"""Morphisms between fusion systems: validation, kernels and images,
products, commuting subsystems and sums."""

import pytest

from fusionsys import catalog, factor, groups, morphisms
from fusionsys import fusion as fusion_mod
from fusionsys.errors import (
    NotCommuting,
    NotFusionPreserving,
    NotSubgroup,
    NotSubsystem,
    NotSummable,
)
from fusionsys.groups import FiniteGroup, Subgroup, cycles_to_perm
from fusionsys.fusion import (
    fusion_equal,
    inner_fusion,
    is_saturated,
    restrict_full,
)
from fusionsys.factor import factorize
from fusionsys.morphisms import (
    Subsystem,
    check_morphism,
    commute_check,
    identity_morphism,
    image,
    is_product_decomposition,
    kernel,
    product,
    subsystem_of,
    sum_morphisms,
    zero_morphism,
)


def fusion(name):
    return catalog.built(name).fusion


# -- check_morphism ---------------------------------------------------------


def test_identity_accepted(paired_triple):
    F, _, _ = paired_triple
    m = check_morphism(F, F, tuple(range(27)))
    assert m.is_injective and m.is_surjective
    for dom_idx in range(len(F.lattice.subs)):
        for phi in F.maps[dom_idx]:
            assert m.push_map(dom_idx, phi) == (dom_idx, phi)


def test_zero_accepted(paired_triple):
    F, _, _ = paired_triple
    z = check_morphism(F, F, tuple([0] * 27))
    assert z.is_zero
    triv = F.lattice.trivial_index
    for dom_idx in range(len(F.lattice.subs)):
        for phi in F.maps[dom_idx]:
            assert z.push_map(dom_idx, phi) == (triv, (0,))


def test_inversion_accepted_on_paired_triple(paired_triple):
    # global inversion on the abelian base commutes with every sign map
    F, _, _ = paired_triple
    G = F.base
    inv = check_morphism(F, F, tuple(G.inv(x) for x in range(27)))
    assert inv.is_injective


def test_rejection_with_witness():
    # an automorphism of the base group that breaks fusion: send the
    # fused rotation to itself but break the line pairing
    F = fusion("sym4")
    S = F.base
    # try every non-fusion-preserving bijection until one is rejected
    from fusionsys.groups import automorphisms

    rejected = None
    for h in automorphisms(S):
        try:
            check_morphism(F, F, h.images)
        except NotFusionPreserving as exc:
            rejected = exc
            break
    assert rejected is not None
    assert "domain" in rejected.witness


@pytest.mark.parametrize("image", [99, -1])
def test_image_id_outside_the_target_is_rejected(image):
    F = fusion("inner-c2c2")
    with pytest.raises(NotSubgroup, match="image ids"):
        check_morphism(F, F, (0, 1, 2, image))


def test_morphism_between_systems(paired_triple):
    F, Fbar, lines = paired_triple
    E = restrict_full(F, lines[0])
    incl = check_morphism(E, F, tuple(lines[0].members))
    assert incl.is_injective and not incl.is_surjective


# -- kernel and image --------------------------------------------------------


def test_kernel_cases(sigma3_squared_aligned):
    big, F1 = sigma3_squared_aligned
    assert kernel(identity_morphism(big)).order == 1
    assert kernel(zero_morphism(big, big)).order == 9
    ps = product([F1, F1])
    k = kernel(ps.projections[0])
    assert k.order == 3
    assert k.members == ps.embeddings[1].image_subgroup().members


def test_image_identity(paired_triple):
    F, _, _ = paired_triple
    img = image(identity_morphism(F))
    assert fusion_equal(img, F)


def test_image_invertible_is_target(paired_triple):
    F, _, _ = paired_triple
    G = F.base
    inv = check_morphism(F, F, tuple(G.inv(x) for x in range(27)))
    assert fusion_equal(image(inv), F)
    back = inv.inverse()
    assert tuple(back.images[v] for v in inv.images) == tuple(range(27))


def test_injective_image_is_pushforward(sigma3_squared_aligned):
    # with a trivial kernel the image subsystem is exactly the pushed
    # table, with nothing extra added by the closure
    big, F1 = sigma3_squared_aligned
    ps = product([F1, F1])
    emb = ps.embeddings[0]
    img = image(emb)
    pushed = set()
    for dom_idx, ms in enumerate(F1.maps):
        for phi in ms:
            new_idx, new_map = emb.push_map(dom_idx, phi)
            pushed.add(
                (ps.product.lattice.subs[new_idx].members, new_map)
            )
    translated = set()
    to_parent = emb.image_subgroup().members
    for dom_idx, ms in enumerate(img.maps):
        members = tuple(
            to_parent[x] for x in img.lattice.subs[dom_idx].members
        )
        for mp in ms:
            translated.add((members, tuple(to_parent[v] for v in mp)))
    assert translated == pushed


def test_image_of_projection_is_factor(sigma3_squared_aligned):
    big, F1 = sigma3_squared_aligned
    ps = product([F1, F1])
    emb = ps.embeddings[0]
    proj_then_embed = emb.compose(ps.projections[0])
    img = image(proj_then_embed)
    expected = restrict_full(ps.product, emb.image_subgroup())
    assert fusion_equal(img, expected)


# -- products -----------------------------------------------------------------


def test_product_single_factor(paired_triple):
    F, _, _ = paired_triple
    ps = product([F])
    assert ps.product is F
    assert ps.embeddings[0].images == tuple(range(27))


def test_product_oracle_pairs():
    from fusionsys.verify import product_oracle_pair

    for n1, n2 in catalog.PRODUCT_PAIRS:
        big, F1, F2 = product_oracle_pair(n1, n2)
        ps = product([F1, F2])
        assert fusion_equal(ps.product, big), f"{n1} x {n2}"
        assert is_saturated(ps.product)


def test_product_projection_morphisms(sigma3_squared_aligned):
    big, F1 = sigma3_squared_aligned
    ps = product([F1, F1])
    for pr, emb in zip(ps.projections, ps.embeddings):
        assert pr.compose(emb).images == tuple(range(3))


def test_triple_product_associative_order():
    F1 = fusion("sigma3")
    ps = product([F1, F1, F1])
    assert ps.product.base.order == 27
    assert is_saturated(ps.product)
    assert len(ps.embeddings) == 3
    parts = [
        Subsystem(m.image_subgroup(), image(m)) for m in ps.embeddings
    ]
    assert is_product_decomposition(ps.product, parts)


# -- commuting subsystems -------------------------------------------------------


def test_commute_check_edge_inputs(paired_triple):
    from fusionsys.errors import NotSubgroup

    F, _, _ = paired_triple
    with pytest.raises(NotSubgroup):
        commute_check(F, [])
    c3 = fusion("sigma3")
    v4 = fusion("inner-c2c2")
    with pytest.raises(NotSubgroup):
        product([c3, v4])


def test_single_subsystem_commutes(paired_triple):
    F, _, lines = paired_triple
    sub = subsystem_of(F, lines[0])
    res = commute_check(F, [sub])
    assert res.inner_base.members == lines[0].members
    assert fusion_equal(res.inner, sub.system)


def test_pairwise_but_not_triple(paired_triple):
    F, _, lines = paired_triple
    subs = [subsystem_of(F, T) for T in lines]
    for a in range(3):
        for b in range(a + 1, 3):
            res = commute_check(F, [subs[a], subs[b]])
            assert res.inner_base.order == 9
    with pytest.raises(NotCommuting) as exc:
        commute_check(F, subs)
    assert "tuple" in str(exc.value.witness)


def test_grouped_commuting(paired_triple):
    F, Fbar, lines = paired_triple
    subs = [subsystem_of(F, T) for T in lines]
    r12 = commute_check(F, subs[:2])
    e12 = Subsystem(r12.inner_base, r12.inner)
    assert is_saturated(r12.inner)
    # commutes upstairs, not downstairs
    up = commute_check(Fbar, [e12, subs[2]])
    assert up.inner_base.order == 27
    with pytest.raises(NotCommuting):
        commute_check(F, [e12, subs[2]])


def test_not_subsystem_rejected(paired_triple):
    F, _, lines = paired_triple
    alien = inner_fusion(
        FiniteGroup.from_permutations([cycles_to_perm([[1, 2, 3]], 3)])
    )
    with pytest.raises(NotSubsystem):
        commute_check(F, [Subsystem(lines[0], fusion("inner-c3c3"))])


def _recording_scan(monkeypatch):
    scanned = []
    scan = morphisms._subsystem_scan

    def recording(F, T, E):
        scanned.append(E)
        return scan(F, T, E)

    monkeypatch.setattr(morphisms, "_subsystem_scan", recording)
    return scanned


def test_subsystem_shortcut_takes_only_the_kept_restriction(monkeypatch):
    F = fusion("inner-d8-c2")
    subs = F.lattice.subs

    def cyclic(P):
        return any(F.base.element_order(x) == P.order for x in P.members)

    i = next(i for i, P in enumerate(subs) if P.order == 4 and cyclic(P))
    T = subs[i]
    kept = restrict_full(F, T)
    scanned = _recording_scan(monkeypatch)
    commute_check(F, [Subsystem(T, kept)])
    commute_check(F, [Subsystem(subs[F.lattice.full_index], F)])
    assert scanned == []
    # the same entry built afresh: equal tables, other objects
    monkeypatch.setattr(catalog, "_BUILDS", {})
    F2 = fusion("inner-d8-c2")
    assert F2.base is not F.base and F2.maps == F.maps
    T2 = F2.lattice.subs[i]
    assert T2.members == T.members
    fresh = restrict_full(F2, T2)
    commute_check(F, [Subsystem(T, fresh)])
    assert scanned == [fresh]
    commute_check(F, [Subsystem(T2, kept)])
    assert scanned == [fresh, kept]
    # the kept restriction to a Klein four subgroup, paired with T
    U = next(P for P in subs if P.order == 4 and not cyclic(P))
    with pytest.raises(NotSubsystem):
        commute_check(F, [Subsystem(T, restrict_full(F, U))])
    assert scanned[-1] is restrict_full(F, U)


def test_restriction_check_catches_a_kept_map_that_leaves_the_subgroup(monkeypatch):
    from fusionsys import verify

    restricted_table = fusion_mod._restricted_table

    def leaky(F, T):
        # the restriction, plus one map of F on a subgroup of T whose
        # image leaves T, with its values outside T sent to the identity
        E = restricted_table(F, T)
        local = {x: t for t, x in enumerate(T.members)}
        for i, ms in enumerate(F.maps):
            if F.lattice.member_sets[i] <= T.member_set:
                for m in ms:
                    if not set(m) <= T.member_set:
                        maps = [set(kept) for kept in E.maps]
                        dom = tuple(local[x] for x in F.lattice.subs[i].members)
                        maps[E.index_of(dom)].add(tuple(local.get(v, 0) for v in m))
                        return fusion_mod.FusionSystem(E.base, E.p, maps)
        return E

    monkeypatch.setattr(fusion_mod, "_restricted_table", leaky)
    result = verify._run(
        "morphisms/restriction-is-subsystem",
        dict(verify.MORPHISM_CHECKS)["restriction-is-subsystem"],
    )
    assert not result.passed
    assert "missing from the ambient system" in result.detail


def test_is_product_decomposition_cases(paired_triple, sigma3_squared_aligned):
    F, Fbar, lines = paired_triple
    subs = [subsystem_of(Fbar, Subgroup(Fbar.base, T.members, _checked=True))
            for T in lines]
    assert is_product_decomposition(Fbar, subs)
    # the embedded factors of a constructed product decompose it
    big, F1 = sigma3_squared_aligned
    left = Subgroup(big.base, [0, 3, 6], _checked=True)
    right = Subgroup(big.base, [0, 1, 2], _checked=True)
    assert is_product_decomposition(
        big, [subsystem_of(big, left), subsystem_of(big, right)]
    )
    # a single proper subsystem does not cover
    assert not is_product_decomposition(big, [subsystem_of(big, left)])


def test_overlapping_bases_are_not_a_product():
    # orders that multiply to |S| = 27, over bases that overlap: a line
    # inside a plane, and three lines inside one plane
    F = fusion("inner-c3c3c3")
    plane = next(P for P in F.lattice.subs if P.order == 9)
    lines = [L for L in F.lattice.subs if L.order == 3 and L.member_set <= plane.member_set]
    assert len(lines) == 4
    assert not is_product_decomposition(F, [subsystem_of(F, lines[0]), subsystem_of(F, plane)])
    assert not is_product_decomposition(F, [subsystem_of(F, L) for L in lines[:3]])


def test_inner_v4_line_pairs():
    F = fusion("inner-c2c2")
    subs = F.lattice.subs
    lines = [s for s in subs if s.order == 2]
    for i in range(3):
        for j in range(i + 1, 3):
            assert is_product_decomposition(
                F, [subsystem_of(F, lines[i]), subsystem_of(F, lines[j])]
            )


def test_strongly_closed_split_decomposes():
    # two strongly closed halves with commuting restrictions cover the
    # inner product system
    F = fusion("inner-d8-c2")
    fact = factorize(F)
    assert is_product_decomposition(F, list(fact.parts))


def test_product_check_on_a_factorization_makes_no_closure(monkeypatch):
    F = fusion("inner-d8-c2")
    parts = list(factorize(F).parts)
    closures = []

    def recording(*args, **kwargs):
        closures.append(args)
        return fusion_mod.close_maps(*args, **kwargs)

    monkeypatch.setattr(morphisms, "close_maps", recording)
    assert is_product_decomposition(F, parts)
    assert closures == []


def _product_by_projection_result():
    from fusionsys import verify

    check = dict(verify.MORPHISM_CHECKS)["product-by-projection"]
    return verify._run("morphisms/product-by-projection", check)


def test_projection_check_catches_automorphisms_without_transporters(monkeypatch):
    class_generators = fusion_mod.class_generators

    def automorphisms_only(F):
        subs = F.lattice.subs
        for i, m in class_generators(F):
            if tuple(sorted(m)) == subs[i].members:
                yield i, m

    monkeypatch.setattr(morphisms, "class_generators", automorphisms_only)
    result = _product_by_projection_result()
    assert not result.passed
    assert "the inner product says False" in result.detail


@pytest.mark.parametrize("module", [morphisms, factor], ids=["morphisms", "factor"])
def test_hom_law_check_catches_a_dropped_generator(monkeypatch, module):
    from fusionsys import verify

    def one_generator_short(A, B, images):
        return all(
            images[A.mul(x, g)] == B.mul(images[x], images[g])
            for x in range(A.order)
            for g in A.generators[:-1]
        )

    monkeypatch.setattr(module, "hom_law_on_generators", one_generator_short)
    result = verify._run(
        "morphisms/hom-law-on-generators",
        dict(verify.MORPHISM_CHECKS)["hom-law-on-generators"],
    )
    assert not result.passed
    assert "differs from the plain law" in result.detail


def _push_on_generators_result():
    from fusionsys import verify

    check = dict(verify.MORPHISM_CHECKS)["push-on-generators"]
    return verify._run("morphisms/push-on-generators", check)


@pytest.mark.parametrize(
    "dropped", ["isomorphisms", "automorphisms"], ids=["no-isomorphisms", "no-root-automorphisms"]
)
def test_push_check_catches_a_generator_list_missing_a_kind(monkeypatch, dropped):
    # isomorphisms onto the non-root class members, or automorphisms of
    # the root, left out of the generators that check_morphism pushes
    class_generators = fusion_mod.class_generators

    def one_kind_short(F):
        subs = F.lattice.subs
        return [
            (i, m)
            for i, m in class_generators(F)
            if (tuple(sorted(m)) == subs[i].members) == (dropped == "isomorphisms")
        ]

    monkeypatch.setattr(morphisms, "class_generators", one_kind_short)
    result = _push_on_generators_result()
    assert not result.passed
    assert "differs from the plain scan" in result.detail


def test_commuting_check_catches_generator_tuples_of_the_first_part_only(monkeypatch):
    from fusionsys import verify

    generator_seeds = morphisms._generator_seeds

    def first_part_only(F, bases, generators):
        return generator_seeds(F, bases, [generators[0]] + [[] for _ in generators[1:]])

    monkeypatch.setattr(morphisms, "_generator_seeds", first_part_only)
    result = verify._run(
        "morphisms/commuting-criteria-agree",
        dict(verify.MORPHISM_CHECKS)["commuting-criteria-agree"],
    )
    assert not result.passed
    assert "differs from" in result.detail


def test_chain_level_maps_are_accepted_without_a_push(monkeypatch):
    # trivial fusion on C3^3 has no class generators, so no map is pushed
    F = fusion("inner-c3c3c3")
    pushes = []
    push_map = morphisms.FusionMorphism.push_map

    def counting(self, dom_idx, m):
        pushes.append(dom_idx)
        return push_map(self, dom_idx, m)

    monkeypatch.setattr(morphisms.FusionMorphism, "push_map", counting)
    _, levels = groups.automorphism_chain(F.base)
    for level in levels:
        for u in level:
            assert check_morphism(F, F, u).images == u
    assert pushes == []


# -- sums ------------------------------------------------------------------------


def test_sum_with_zero_is_identity_morphism(paired_triple):
    F, _, _ = paired_triple
    ident = identity_morphism(F)
    z = zero_morphism(F, F)
    assert sum_morphisms([ident, z]).images == ident.images
    assert sum_morphisms([z, ident]).images == ident.images


def test_projection_sum_is_identity(sigma3_squared_aligned):
    big, F1 = sigma3_squared_aligned
    ps = product([F1, F1])
    f1 = ps.embeddings[0].compose(ps.projections[0])
    f2 = ps.embeddings[1].compose(ps.projections[1])
    total = sum_morphisms([f1, f2])
    assert total.images == tuple(range(9))


def test_sum_rejects_non_commuting_images(paired_triple):
    F, _, _ = paired_triple
    ident = identity_morphism(F)
    G = F.base
    inv = check_morphism(F, F, tuple(G.inv(x) for x in range(27)))
    with pytest.raises(NotSummable):
        sum_morphisms([ident, inv])


def test_distributivity_pointwise():
    F = fusion("inner-c2c4")
    from fusionsys.factor import normal_endos

    endos = [ne.morphism for ne in normal_endos(F)[:6]]
    G = F.base
    import itertools

    found = 0
    for f1, f2 in itertools.combinations(endos, 2):
        try:
            fs = sum_morphisms([f1, f2])
        except NotSummable:
            continue
        for g1, g2 in itertools.combinations(endos, 2):
            try:
                gs = sum_morphisms([g1, g2])
            except NotSummable:
                continue
            composite = tuple(fs.images[v] for v in gs.images)
            expanded = []
            for x in range(G.order):
                acc = 0
                for a in (f1, f2):
                    for b in (g1, g2):
                        acc = G.mul(acc, a.images[b.images[x]])
                expanded.append(acc)
            assert composite == tuple(expanded)
            found += 1
    assert found >= 4
