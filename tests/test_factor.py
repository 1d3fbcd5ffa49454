"""Normal endomorphisms, the stable/nil splitting, and factorization."""

import itertools
from collections import Counter

import pytest

from fusionsys import catalog, factor, groups, morphisms, verify
from fusionsys import fusion as fusion_mod
from fusionsys.errors import NotNormal, NotSaturated, NotSubgroup, NotSubsystem
from fusionsys.groups import (
    FiniteGroup,
    cycles_to_perm,
    stable_image_kernel,
)
from fusionsys.fusion import (
    FusionSystem,
    center_of,
    focal_generators,
    focal_of,
    fusion_equal,
    generated_fusion,
    restrict_full,
    saturation_report,
)
from fusionsys.morphisms import (
    check_morphism,
    identity_morphism,
    product,
    sum_morphisms,
    zero_morphism,
)
from fusionsys.factor import (
    Factorization,
    factorization_of,
    factorize,
    factorize_all,
    fitting_factorize,
    fusion_endomorphisms,
    is_indecomposable,
    normal_automorphisms,
    normal_complement,
    normal_end_properties,
    normal_endos,
    sum_if_composite_central,
)


def fusion(name):
    return catalog.built(name).fusion


# -- normal_complement ---------------------------------------------------------


def test_identity_is_normal_with_zero_complement(paired_triple):
    F, _, _ = paired_triple
    ne = normal_complement(F, identity_morphism(F))
    assert ne.invertible and ne.surjective
    assert ne.complement.is_zero


def test_zero_is_normal_with_identity_complement(paired_triple):
    F, _, _ = paired_triple
    ne = normal_complement(F, zero_morphism(F, F))
    assert not ne.invertible
    assert ne.complement.images == tuple(range(27))


def test_projection_is_normal(sigma3_squared_aligned):
    big, F1 = sigma3_squared_aligned
    ps = product([F1, F1])
    proj = ps.embeddings[0].compose(ps.projections[0])
    translated = check_morphism(big, big, proj.images)
    ne = normal_complement(big, translated)
    assert not ne.invertible
    assert ne.complement.images == tuple(
        ps.embeddings[1].compose(ps.projections[1]).images
    )


def test_every_v4_endomorphism_is_normal():
    F = fusion("inner-c2c2")
    count = 0
    for m in fusion_endomorphisms(F):
        normal_complement(F, m)
        count += 1
    assert count == 16


def test_inversion_not_normal_on_rigid_system(paired_triple):
    F, _, _ = paired_triple
    G = F.base
    inv = check_morphism(F, F, tuple(G.inv(x) for x in range(27)))
    with pytest.raises(NotNormal):
        normal_complement(F, inv)


# -- normal_endos ----------------------------------------------------------------


@pytest.mark.parametrize(
    "name,total,invertible",
    [
        ("inner-c2c2", 16, 6),
        ("inner-c2c4", 32, 8),
        ("inner-d8", 8, 4),
        ("sigma3", 2, 1),
        ("sigma3-cubed-paired", 2, 1),
        ("sigma3-cubed-full", 8, 1),
    ],
)
def test_normal_endo_counts(name, total, invertible):
    endos = normal_endos(fusion(name))
    assert len(endos) == total
    assert sum(1 for ne in endos if ne.invertible) == invertible


def test_rigid_systems_have_trivial_normal_automorphisms():
    for name in catalog.RIGID:
        F = fusion(name)
        assert center_of(F).order == 1 or focal_of(F).order == F.base.order
        auts = normal_automorphisms(F)
        assert len(auts) == 1
        assert auts[0].images == tuple(range(F.base.order))


def test_zero_composite_sum_is_normal(sigma3_squared_aligned):
    big, F1 = sigma3_squared_aligned
    ps = product([F1, F1])
    f = check_morphism(
        big, big, ps.embeddings[0].compose(ps.projections[0]).images
    )
    g = check_morphism(
        big, big, ps.embeddings[1].compose(ps.projections[1]).images
    )
    composite = tuple(f.images[v] for v in g.images)
    assert composite == tuple([0] * 9)
    total = sum_morphisms([f, g])
    normal_complement(big, total)
    assert total.images == tuple(range(9))


def test_weakened_sum_flag():
    F = fusion("inner-c2c4")
    endos = normal_endos(F)
    verified = 0
    for ne1, ne2 in itertools.product(endos[:8], endos[:8]):
        result = sum_if_composite_central(F, ne1, ne2)
        if result is not None:
            verified += 1
            normal_complement(F, result.morphism)
    assert verified > 0


# -- structural properties ---------------------------------------------------------


def test_normal_end_properties_run(paired_triple):
    F, _, _ = paired_triple
    for ne in normal_endos(F):
        report = normal_end_properties(F, ne)
        assert report.image_saturated


def test_surjective_criterion_check_catches_a_wrong_rule(monkeypatch):
    name = "factor/surjective-criterion"
    checks = dict(verify.FACTOR_CHECKS)
    assert verify._run(name, checks["surjective-criterion"]).passed

    def focal_clause_only(F, images):
        return all(images[x] == x for x in focal_of(F).members)

    monkeypatch.setattr(verify, "_surjective_normal_criterion", focal_clause_only)
    result = verify._run(name, checks["surjective-criterion"])
    assert not result.passed
    assert "disagrees with the complement test" in result.detail


def criterion_disagreements(F):
    """The fusion automorphisms on which ``normal_automorphisms`` and the
    plain complement test ``verify.is_normal_endo`` disagree."""
    kept = {m.images for m in normal_automorphisms(F)}
    return [
        m.images
        for m in factor.fusion_automorphisms(F)
        if (m.images in kept) != verify.is_normal_endo(F, m)
    ]


def center_clause_only(F, images):
    """The surjective criterion without its focal clause."""
    G = F.base
    center = center_of(F).member_set
    return all(G.mul(G.inv(g), images[g]) in center for g in G.generators)


def test_sl23_separates_the_center_clause_from_the_focal_clause():
    # Aut(S,F) = Aut(Q8) of order 24; the 4 inner automorphisms of Q8
    # move every element by a central one, but only the identity fixes
    # foc(F) = Q8, so the center clause alone is not the criterion
    F = verify.sl23_fusion()
    S = F.base
    center = center_of(F).member_set
    assert (S.order, len(center), focal_of(F).order) == (8, 2, 8)
    autos = factor.fusion_automorphisms(F)
    central = [
        m
        for m in autos
        if all(S.mul(S.inv(x), m.images[x]) in center for x in range(S.order))
    ]
    assert (len(autos), len(central)) == (24, 4)
    assert [m.images for m in normal_automorphisms(F)] == [tuple(range(S.order))]
    assert criterion_disagreements(F) == []


def test_sl23_catches_a_criterion_without_the_focal_clause(monkeypatch):
    monkeypatch.setattr(factor, "_surjective_normal_criterion", center_clause_only)
    assert len(criterion_disagreements(verify.sl23_fusion())) == 3


def test_surjective_check_catches_a_criterion_without_the_focal_clause(monkeypatch):
    # no catalog system has Z(F) != 1 and foc(F) = S, so SL(2,3) is the
    # system of the check that sees the focal clause
    monkeypatch.setattr(verify, "_surjective_normal_criterion", center_clause_only)
    result = verify._run(
        "factor/surjective-criterion", dict(verify.FACTOR_CHECKS)["surjective-criterion"]
    )
    assert not result.passed
    assert "SL(2,3): criterion disagrees with the complement test" in result.detail


def test_surjective_check_catches_a_dropped_generator(monkeypatch):
    def one_generator_short(F, images):
        G = F.base
        center = center_of(F).member_set
        if any(G.mul(G.inv(g), images[g]) not in center for g in G.generators[:-1]):
            return False
        return all(images[x] == x for x in focal_generators(F))

    monkeypatch.setattr(verify, "_surjective_normal_criterion", one_generator_short)
    result = verify._run(
        "factor/surjective-on-generators",
        dict(verify.FACTOR_CHECKS)["surjective-on-generators"],
    )
    assert not result.passed
    assert "differs from the all-element criterion" in result.detail


def test_omega_check_catches_a_dropped_generator(monkeypatch):
    def one_generator_short(self, images):
        for w in self.generators:
            on = w.images
            if any(images[on[g]] != on[images[g]] for g in w.source.base.generators[:-1]):
                return False
        return True

    monkeypatch.setattr(factor.OmegaContext, "commutes_with", one_generator_short)
    result = verify._run(
        "factor/surjective-on-generators",
        dict(verify.FACTOR_CHECKS)["surjective-on-generators"],
    )
    assert not result.passed
    assert "Omega commutation differs from the all-element test" in result.detail


def test_omega_walks_aut_s_f_once_for_factorize_all_and_normal_automorphisms(monkeypatch):
    F = catalog.built("inner-c2c4").fusion
    fresh = FusionSystem(F.base, F.p, F.maps)
    inv = tuple(F.base.inv(x) for x in range(8))
    omega = factor.OmegaContext.from_morphisms(fresh, [check_morphism(fresh, fresh, inv)])
    walks = []

    def counting(G, chain, commuting=()):
        walks.append(tuple(commuting))
        return groups.walk_chain(G, chain, commuting)

    monkeypatch.setattr(factor, "walk_chain", counting)
    facts = factorize_all(fresh, omega)
    normal = normal_automorphisms(fresh, omega)
    assert [w for w in walks if w] == [(inv,)]
    assert len(facts) == 4
    plain = factor.OmegaContext.from_morphisms(F, [check_morphism(F, F, inv)])
    assert [m.images for m in normal] == [m.images for m in normal_automorphisms(F, plain)]


def test_self_map_check_catches_a_missing_chain_level(monkeypatch):
    def last_level_dropped(G, labels=None, keep=None):
        base, levels = groups.automorphism_chain(G, labels, keep)
        return base, levels[:-1]

    monkeypatch.setattr(factor, "automorphism_chain", last_level_dropped)
    result = verify._run(
        "factor/self-map-search", dict(verify.FACTOR_CHECKS)["self-map-search"]
    )
    assert not result.passed
    assert "fusion automorphisms differ from the plain filter" in result.detail


def test_aut_s_f_of_an_inner_system_tests_only_the_chain_levels(monkeypatch):
    F = catalog.built("inner-c3c3c3").fusion
    fresh = FusionSystem(F.base, F.p, F.maps)
    calls = []
    pushes_class_generators = factor._pushes_class_generators

    def counting(m):
        calls.append(m.images)
        return pushes_class_generators(m)

    monkeypatch.setattr(factor, "_pushes_class_generators", counting)
    autos = factor.fusion_automorphisms(fresh)
    _, levels = groups.automorphism_chain(F.base)
    # |GL(3,3)| = 26 * 24 * 18, and one test per chain map
    assert len(autos) == 11232
    assert calls == [u for level in levels for u in level]
    assert sum(map(len, levels)) == 26 + 24 + 18


def test_singleton_classes_drop_the_labels_and_change_no_self_map():
    # every F-class of inner-c3c3c3 is a singleton, so the self-map
    # searches run unlabelled; the labelled searches give the same maps
    F = catalog.built("inner-c3c3c3").fusion
    fresh = FusionSystem(F.base, F.p, F.maps)
    assert factor._class_labels(fresh) is None
    labels = fresh._element_class_index
    assert factor._automorphism_chain(fresh) == groups.automorphism_chain(
        F.base, labels, lambda u: factor._preserves(fresh, u)
    )
    full = F.base.full_subgroup()
    labelled = [h.images for h in groups._homs(full, full, False, labels)]
    assert [m.images for m in factor.fusion_endomorphisms(fresh)] == labelled
    assert len(labelled) == 3**9
    assert factor._class_labels(catalog.built("sym4").fusion) is not None


def test_aut_s_f_off_the_chain_shortcut_never_multiplies_aut_s_out(monkeypatch):
    # on sigma3-cubed-paired some automorphisms of C3^3 leave F, so the
    # chain of Aut(S,F) is cut by F: one walk over its levels of 6, 4 and
    # 2 maps, and the 11232 tuples of Aut(S) are never built
    F = catalog.built("sigma3-cubed-paired").fusion
    fresh = FusionSystem(F.base, F.p, F.maps)
    calls = []

    def counting(G, chain, commuting=()):
        calls.append([len(level) for level in chain[1]])
        return groups.walk_chain(G, chain, commuting)

    monkeypatch.setattr(factor, "walk_chain", counting)
    autos = factor.fusion_automorphisms(fresh)
    assert calls == [[6, 4, 2]]
    assert len(autos) == 6 * 4 * 2
    assert [m.images for m in autos] == [m.images for m in factor.fusion_automorphisms(F)]


def test_self_map_check_catches_a_chain_that_ignores_the_fusion_test(monkeypatch):
    # on affine-c7 the class labels admit all 168 maps of GL(3,2), and
    # only the fusion test cuts Aut(S,F) down to the 21 of N(C7) = 7:3
    def keep_ignored(G, labels=None, keep=None):
        return groups.automorphism_chain(G, labels)

    F = verify.affine_c7_fusion()
    assert len(factor.fusion_automorphisms(F)) == 21
    monkeypatch.setattr(factor, "automorphism_chain", keep_ignored)
    fresh = FusionSystem(F.base, F.p, F.maps)
    assert len(factor.fusion_automorphisms(fresh)) == 168
    result = verify._run(
        "factor/self-map-search", dict(verify.FACTOR_CHECKS)["self-map-search"]
    )
    assert not result.passed
    assert "affine-c7: fusion automorphisms differ from the plain filter" in result.detail


def test_normal_automorphism_check_catches_a_shortcut_on_the_first_generator(monkeypatch):
    normal_automorphisms = factor.normal_automorphisms
    criterion = factor._surjective_normal_criterion

    def first_generator_only(F, omega=None):
        # the shortcut of normal_automorphisms on the first chain map only
        if omega is not None:
            return normal_automorphisms(F, omega)
        autos = factor.fusion_automorphisms(F)
        if criterion(F, factor._automorphism_chain(F)[1][0][0]):
            return list(autos)
        return [m for m in autos if criterion(F, m.images)]

    monkeypatch.setattr(verify, "normal_automorphisms", first_generator_only)
    result = verify._run(
        "factor/normal-automorphisms",
        dict(verify.FACTOR_CHECKS)["normal-automorphisms"],
    )
    assert not result.passed
    assert "differ from the plain filter" in result.detail


def test_normal_automorphism_check_catches_a_walk_that_drops_deferred_pairs(monkeypatch):
    # the rotation of the C2^3 blocks moves b_1 out of <b_1>, so its pairs
    # are only tested at a later level
    def first_level_pairs_only(G, chain, commuting=()):
        base = chain[0]
        first = set(groups._closure_ids(G, base[:1]))
        return [
            a for a in groups.walk_chain(G, chain)
            if all(a[w[b]] == w[a[b]] for w in commuting for b in base[:1] if w[b] in first)
        ]

    monkeypatch.setattr(factor, "walk_chain", first_level_pairs_only)
    result = verify._run(
        "factor/normal-automorphisms",
        dict(verify.FACTOR_CHECKS)["normal-automorphisms"],
    )
    assert not result.passed
    assert "differ from the plain filter" in result.detail


def test_equivariant_normal_automorphisms_walk_the_chain(monkeypatch):
    # under the coordinate swap of C3^3 the walk cuts branches at the
    # second level: no map of Aut(S,F) is tested, and far fewer than the
    # 11882 partial products of the full walk are composed
    F0 = fusion("inner-c3c3c3")
    F = FusionSystem(F0.base, F0.p, F0.maps)
    G = F.base
    swap = (3, 4, 5, 0, 1, 2, 6, 7, 8)
    index = {G.perms[x]: x for x in range(G.order)}
    images = tuple(
        index[tuple(swap[G.perms[x][swap[pt]]] for pt in range(9))] for x in range(G.order)
    )
    omega = factor.OmegaContext.from_morphisms(F, [check_morphism(F, F, images)])
    tested, composed = [], []
    commutes_with = factor.OmegaContext.commutes_with
    itemgetter = groups.itemgetter

    def counting_commutes(self, a):
        tested.append(a)
        return commutes_with(self, a)

    def counting_getter(*items):
        get = itemgetter(*items)

        def composing(p):
            composed.append(p)
            return get(p)

        return composing

    monkeypatch.setattr(factor.OmegaContext, "commutes_with", counting_commutes)
    monkeypatch.setattr(groups, "itemgetter", counting_getter)
    normal = normal_automorphisms(F, omega)
    assert len(normal) == 96
    assert all(commutes_with(omega, m.images) for m in normal)
    assert tested == []
    assert 0 < len(composed) < 2000


def test_normal_complement_of_an_automorphism_builds_no_image(monkeypatch):
    from fusionsys import morphisms

    F = fusion("inner-c3c3c3")
    calls = []

    def recording(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(morphisms, name, wrapped)

    recording("close_maps", morphisms.close_maps)
    recording("_extensions_by_restriction", morphisms._extensions_by_restriction)
    for alpha in factor.fusion_automorphisms(F)[1:40:7]:
        ne = normal_complement(F, alpha)
        assert ne.invertible
    assert calls == []


def orbit_check():
    return verify._run(
        "krs/orbit-is-every-factorization",
        dict(verify.KRS_CHECKS)["orbit-is-every-factorization"],
    )


def test_orbit_check_catches_an_orbit_over_the_outermost_level(monkeypatch):
    # the outermost level of Aut(C2^3) holds 7 maps, one per image of
    # b_1, and C2^3 has 28 factorizations into lines
    target = fusion("inner-c2c2c2")
    automorphism_chain = factor._automorphism_chain

    def outermost_level_only(F):
        base, levels = automorphism_chain(F)
        return (base, levels[:1]) if F is target else (base, levels)

    monkeypatch.setattr(factor, "_automorphism_chain", outermost_level_only)
    result = orbit_check()
    assert not result.passed
    assert "inner-c2c2c2: the orbit gives" in result.detail
    assert result.detail.endswith("the split search 28")


def test_orbit_check_catches_an_orbit_that_ignores_omega(monkeypatch):
    # all of Aut(S,F) carries the one factorization of C2^3 into
    # rotation-invariant parts (C2 x C2^2) to all 28 such splits
    def commuting_ignored(G, chain, commuting=()):
        return groups.walk_chain(G, chain)

    monkeypatch.setattr(factor, "walk_chain", commuting_ignored)
    result = orbit_check()
    assert not result.passed
    assert "equivariant 8: the orbit gives 28 factorizations, the split search 1" in (
        result.detail
    )


def test_factorize_all_of_an_indecomposable_system_builds_no_chain():
    F = fusion("sigma3-cubed-paired")
    fresh = FusionSystem(F.base, F.p, F.maps)
    assert [f.key() for f in factorize_all(fresh)] == [(fresh.base.full_subgroup().members,)]
    assert fresh._automorphism_chain is None


def test_product_check_catches_a_dropped_part(monkeypatch):
    name = "factor/factorizations-are-products"
    checks = dict(verify.FACTOR_CHECKS)
    assert verify._run(name, checks["factorizations-are-products"]).passed

    def drop_last_part(F, omega=None):
        return [
            Factorization(fact.parts[:-1] or fact.parts, fact.system)
            for fact in factorize_all(F, omega)
        ]

    monkeypatch.setattr(verify, "factorize_all", drop_last_part)
    result = verify._run(name, checks["factorizations-are-products"])
    assert not result.passed
    assert "do not factor the system" in result.detail


def _self_map_search_result():
    # the lemma suite runs the unmutated check
    check = dict(verify.FACTOR_CHECKS)["self-map-search"]
    return verify._run("factor/self-map-search", check)


def test_self_map_check_catches_classes_mapped_to_themselves(monkeypatch):
    spread = groups._spread

    def own_class_only(A, B, assigned, keys, labels):
        closed = spread(A, B, assigned, keys, labels)
        if closed is not None and labels is not None:
            if any(labels[x] != labels[v] for x, v in closed.items()):
                return None
        return closed

    monkeypatch.setattr(groups, "_spread", own_class_only)
    result = _self_map_search_result()
    assert not result.passed
    # the chain of Aut(S,F) comes from the same labelled search
    assert "fusion automorphisms differ" in result.detail


def test_self_map_check_catches_a_lost_transversal_element(monkeypatch):
    transversal = groups._transversal
    monkeypatch.setattr(groups, "_transversal", lambda *args: transversal(*args)[:-1])
    result = _self_map_search_result()
    assert not result.passed
    assert "base transversals differs" in result.detail


def test_nontrivial_overlap_lands_in_center():
    # squaring on the order-8 abelian group: image and complement image
    # overlap in the order-2 subgroup, inside the center
    F = fusion("inner-c2c4")
    G = F.base
    squaring = check_morphism(F, F, tuple(G.mul(x, x) for x in range(8)))
    ne = normal_complement(F, squaring)
    t = set(ne.images)
    u = set(ne.complement.images)
    assert len(t & u) == 2
    assert (t & u) <= set(center_of(F).members)
    normal_end_properties(F, ne)


def test_dichotomy_on_indecomposables():
    for name in ["inner-d8", "sigma3", "alt4"]:
        F = fusion(name)
        assert is_indecomposable(F)
        for ne in normal_endos(F):
            stable, _, _ = stable_image_kernel(F.base, ne.images)
            assert (stable == frozenset({0})) != ne.invertible


# -- fitting factorization -----------------------------------------------------------


def test_fitting_invertible_and_zero(paired_triple):
    F, _, _ = paired_triple
    split = fitting_factorize(F, normal_complement(F, identity_morphism(F)))
    assert split.stable.base.order == 27 and split.nil.base.order == 1
    split = fitting_factorize(F, normal_complement(F, zero_morphism(F, F)))
    assert split.stable.base.order == 1 and split.nil.base.order == 27


def test_fitting_matches_abelian_split():
    F = fusion("inner-c2c4")
    for ne in normal_endos(F):
        split = fitting_factorize(F, ne)
        T, U = verify.stable_image_kernel_plain(F.base, ne.images)
        assert split.stable.base.member_set == T
        assert split.nil.base.member_set == U
        # the restriction to the stable side is invertible, to the nil side
        # nilpotent
        t_set = split.stable.base.member_set
        assert {ne.images[x] for x in t_set} == t_set


def test_fitting_check_catches_a_stable_image_one_power_short(monkeypatch):
    def one_iteration_early(G, images):
        _, _, n = stable_image_kernel(G, images)
        power = tuple(range(G.order))
        for _ in range(n - 1):
            power = tuple(images[v] for v in power)
        kernel = frozenset(x for x in range(G.order) if power[x] == 0)
        return frozenset(power), kernel, n

    monkeypatch.setattr(factor, "stable_image_kernel", one_iteration_early)
    result = verify._run(
        "factor/fitting-factorize", dict(verify.FACTOR_CHECKS)["fitting-factorize"]
    )
    assert not result.passed
    assert "differs from f^|S| element by element" in result.detail


def test_fitting_blocks_on_ambient(paired_triple):
    _, Fbar, lines = paired_triple
    endos = normal_endos(Fbar)
    nontrivial = [
        ne
        for ne in endos
        if not ne.invertible and any(v != 0 for v in ne.images)
    ]
    assert len(nontrivial) == 6  # proper nonzero block patterns
    for ne in nontrivial:
        split = fitting_factorize(Fbar, ne)
        assert split.stable.base.order * split.nil.base.order == 27
        assert saturation_report(split.stable.system).verdict
        assert saturation_report(split.nil.system).verdict


# -- factorization ------------------------------------------------------------------


def test_factorize_indecomposable(paired_triple):
    F, _, _ = paired_triple
    fact = factorize(F)
    assert len(fact.parts) == 1
    assert fact.parts[0].base.order == 27


def test_factorize_triple_product():
    F1 = fusion("sigma3")
    ps = product([F1, F1, F1])
    fact = factorize(ps.product)
    assert sorted(p.base.order for p in fact.parts) == [3, 3, 3]


def test_factorize_ambient_three_parts(paired_triple):
    _, Fbar, lines = paired_triple
    fact = factorize(Fbar)
    assert sorted(b for b in fact.bases) == sorted(
        T.members for T in lines
    )


def test_factorize_all_counts():
    for name, expected in catalog.FACTORIZATION_COUNTS.items():
        if name == "inner-c3c3c3":
            continue  # covered by the acceptance run
        facts = factorize_all(fusion(name))
        assert len(facts) == expected, name
        keys = [f.key() for f in facts]
        assert len(set(keys)) == len(keys)


def test_factorize_all_enumerates_each_table_once(monkeypatch):
    tables = []
    enumerate_subgroups = groups.enumerate_subgroups

    def counting(G):
        tables.append(tuple(map(tuple, G._mul)))
        return enumerate_subgroups(G)

    # fresh catalog objects, so no lattice is already cached on a group
    monkeypatch.setattr(catalog, "_BUILDS", {})
    monkeypatch.setattr(groups, "_LATTICES", {})
    monkeypatch.setattr(groups, "enumerate_subgroups", counting)
    factorize_all(fusion("inner-c3c3"))
    assert tables
    assert len(tables) == len(set(tables))


def test_factorize_commutation_tests_one_pair_per_level(monkeypatch):
    tested = Counter()
    noncommuting_pair = factor._noncommuting_pair

    def counting(G, xs, ys):
        tested[G.order] += 1
        return noncommuting_pair(G, xs, ys)

    monkeypatch.setattr(factor, "_noncommuting_pair", counting)
    fact = factorize(fusion("inner-c3c3c3"))
    assert len(fact.parts) == 3
    # C3^3 splits as C3 x C3^2, and C3^2 as C3 x C3; C3 has no pair
    assert tested == {27: 1, 9: 1}


def test_factorize_all_restricts_each_subgroup_once(monkeypatch):
    F = fusion("inner-c3c3c3")
    F = FusionSystem(F.base, F.p, F.maps)
    built: dict = {}
    calls = []
    restrict_full = fusion_mod.restrict_full

    def recording(E, T):
        part = restrict_full(E, T)
        # keep every system alive, so that no id is reused
        calls.append((E, part))
        built.setdefault((id(E), T.members), set()).add(id(part))
        return part

    for module in (fusion_mod, morphisms, factor):
        monkeypatch.setattr(module, "restrict_full", recording)
    assert len(factorize_all(F)) == catalog.FACTORIZATION_COUNTS["inner-c3c3c3"]
    assert len(calls) > len(built)
    assert all(len(parts) == 1 for parts in built.values())


def test_factorize_all_proves_each_split_without_rescanning(monkeypatch):
    # the parts are kept restrictions, and a split is decided by its
    # generator tuples alone
    F = fusion("inner-c3c3c3")
    F = FusionSystem(F.base, F.p, F.maps)
    calls = Counter()
    for name in ("_subsystem_scan", "_product_base"):

        def counting(*args, _name=name, _original=getattr(morphisms, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(morphisms, name, counting)
    assert len(factorize_all(F)) == catalog.FACTORIZATION_COUNTS["inner-c3c3c3"]
    assert calls == Counter()


def test_pair_check_catches_a_skipped_intersection_test(monkeypatch):
    monkeypatch.setattr(factor, "_meet_trivially", lambda T, U: True)
    result = verify._run(
        "morphisms/product-by-projection",
        dict(verify.MORPHISM_CHECKS)["product-by-projection"],
    )
    assert not result.passed
    assert "candidate pairs differ from the plain list" in result.detail


def test_factorization_count_formula():
    # independent oracle: unordered decompositions of an elementary
    # abelian group into lines = |GL| / (|GL_1|^rank * rank!)
    assert catalog.FACTORIZATION_COUNTS["inner-c2c2"] == 6 // (1 * 2)
    assert catalog.FACTORIZATION_COUNTS["inner-c3c3"] == 48 // (4 * 2)
    assert catalog.FACTORIZATION_COUNTS["inner-c2c2c2"] == 168 // (1 * 6)
    assert catalog.FACTORIZATION_COUNTS["inner-c3c3c3"] == 11232 // (8 * 6)


def test_factorize_requires_saturation():
    e9 = FiniteGroup.from_permutations(
        [cycles_to_perm([[1, 2, 3]], 6), cycles_to_perm([[4, 5, 6]], 6)]
    )
    from fusionsys.groups import injective_homs, subgroups

    lines = [s for s in subgroups(e9) if s.order == 3]
    iso = injective_homs(lines[0], lines[1])[0]
    bad = generated_fusion(e9, [iso])
    with pytest.raises(NotSaturated):
        factorize(bad)


def test_factorization_parts_are_full_restrictions():
    F = fusion("inner-d8-c2")
    fact = factorize(F)
    for part in fact.parts:
        assert fusion_equal(part.system, restrict_full(F, part.base))


def test_factorization_of_validates_bases_from_outside():
    F = fusion("inner-c2c4")
    facts = factorize_all(F)
    for fact in facts:
        shuffled = [sorted(b, reverse=True) for b in reversed(fact.bases)]
        again = factorization_of(F, shuffled)
        assert again == fact and again.system is F
    line = facts[0].bases[0]
    with pytest.raises(NotSubgroup, match="not a factorization"):
        factorization_of(F, [line, line])
    with pytest.raises(NotSubsystem, match="not a subgroup"):
        factorization_of(F, [line, (0, 8)])
