"""Fusion-core: construction from groups, generated closure, saturation,
invariants and full restrictions."""

from collections import deque

import pytest

from fusionsys import catalog
from fusionsys import fusion as fusion_mod
from fusionsys.errors import GenerationMismatch, NotSylow
from fusionsys.groups import (
    FiniteGroup,
    GroupHom,
    Subgroup,
    automorphisms,
    cycles_to_perm,
    injective_homs,
    subgroups,
    sylow,
)
from fusionsys.fusion import (
    FusionSystem,
    center_of,
    classify_subgroup,
    conjugacy,
    focal_of,
    fusion_equal,
    fusion_invariants,
    fusion_of_group,
    generated_fusion,
    inner_fusion,
    is_saturated,
    is_strongly_closed,
    restrict_full,
    saturation_report,
)
from fusionsys.verify import P2_GROUPS, regenerate_from_alperin


def fusion(name):
    return catalog.built(name).fusion


def perm_group(*cycle_lists, points):
    return FiniteGroup.from_permutations(
        [cycles_to_perm(c, points) for c in cycle_lists], points=points
    )


# -- construction ---------------------------------------------------------


def test_inner_system_is_conjugation_only():
    d8 = perm_group([[1, 2, 3, 4]], [[1, 3]], points=4)
    F = inner_fusion(d8)
    full = F.lattice.full_index
    expected = {tuple(d8.conj(s, x) for x in range(8)) for s in range(8)}
    assert set(F.maps[full]) == expected
    assert len(F.maps[full]) == 4  # D8 modulo its center


def test_fusion_needs_sylow():
    s4 = catalog.built("sym4").group
    line = s4.generated_subgroup(
        [next(x for x in range(24) if s4.element_order(x) == 2)]
    )
    with pytest.raises(NotSylow):
        fusion_of_group(s4, 2, line)


def test_order_six_ambient_automizer():
    s3 = catalog.built("sigma3").group
    F = fusion_of_group(s3, 3)
    assert len(F.aut_maps(F.lattice.full_index)) == 2


def test_paired_triple_shape(paired_triple):
    F, Fbar, lines = paired_triple
    assert F.base.order == 27
    assert len(F.lattice.subs) == 28
    assert len(F.aut_maps(F.lattice.full_index)) == 4
    assert len(Fbar.aut_maps(Fbar.lattice.full_index)) == 8
    # the ambient system strictly refines the smaller one
    for i in range(28):
        assert set(F.maps[i]) <= set(Fbar.maps[i])
    assert F.morphism_count() < Fbar.morphism_count()


# -- generated fusion -------------------------------------------------------


def test_generated_empty_is_inner():
    d8 = perm_group([[1, 2, 3, 4]], [[1, 3]], points=4)
    assert fusion_equal(generated_fusion(d8, []), inner_fusion(d8))


def test_generated_inversion_matches_sigma3():
    c3 = perm_group([[1, 2, 3]], points=3)
    inv = GroupHom(c3.full_subgroup(), c3.full_subgroup(), (0, 2, 1))
    generated = generated_fusion(c3, [inv])
    s3 = perm_group([[1, 2, 3]], [[1, 2]], points=3)
    realized = fusion_of_group(s3, 3)
    assert fusion_equal(generated, realized)


def test_generated_klein_rotation_matches_sym4():
    # adding an order-3 automorphism of the normal Klein subgroup to the
    # dihedral inner system regenerates the symmetric-group fusion
    s4 = catalog.built("sym4").group
    F24 = fusion_of_group(s4, 2)
    S = F24.base
    klein = next(
        sub
        for sub in F24.lattice.subs
        if sub.order == 4 and sub.is_normal()
        and all(S.element_order(x) in (1, 2) for x in sub.members)
        and is_strongly_closed(F24, F24.index_of(sub.members))
    )
    auts = [
        h
        for h in injective_homs(klein, S.full_subgroup())
        if sorted(h.images) == list(klein.members)
    ]
    order3 = next(
        h
        for h in auts
        if _map_order(klein, h) == 3
    )
    generated = generated_fusion(S, [order3])
    assert fusion_equal(generated, F24)


def _map_order(sub, hom):
    images = {x: hom.map(x) for x in sub.members}
    current = dict(images)
    n = 1
    while any(current[x] != x for x in sub.members):
        current = {x: images[current[x]] for x in sub.members}
        n += 1
    return n


# -- saturation ---------------------------------------------------------------


@pytest.mark.parametrize("name", catalog.SATURATION_BATTERY)
def test_saturation_battery(name):
    report = saturation_report(fusion(name))
    assert report.verdict
    assert all(c.witness is not None for c in report.per_class)
    assert "vacuous" in report.continuity


def test_saturation_fails_unautomized():
    # one order-3 automorphism on the rank-two group leaves the full
    # subgroup with automizer index divisible by p
    e9 = perm_group([[1, 2, 3]], [[4, 5, 6]], points=6)
    order3 = next(
        h for h in automorphisms(e9) if _full_order(e9, h.images) == 3
    )
    F = generated_fusion(e9, [order3])
    report = saturation_report(F)
    assert not report.verdict
    failures = [c.failure for c in report.per_class if c.failure]
    assert any(f.axiom == "fully_automized" for f in failures)


def test_saturation_fails_receptive():
    # fusing two lines by a single isomorphism: each line stays fully
    # automized but the fused class has no receptive member
    e9 = perm_group([[1, 2, 3]], [[4, 5, 6]], points=6)
    lines = [s for s in subgroups(e9) if s.order == 3]
    iso = injective_homs(lines[0], lines[1])[0]
    F = generated_fusion(e9, [iso])
    report = saturation_report(F)
    assert not report.verdict
    failures = [c.failure for c in report.per_class if c.failure]
    assert any(f.axiom == "receptive" for f in failures)
    bad = next(f for f in failures if f.axiom == "receptive")
    assert bad.phi is not None and bad.n_phi is not None
    assert bad.n_phi.order == 9  # abelian base: the control subgroup is S


def _full_order(G, images):
    ident = tuple(range(G.order))
    cur = images
    n = 1
    while cur != ident:
        cur = tuple(images[v] for v in cur)
        n += 1
    return n


def _counting_receptivity(monkeypatch):
    """Patch ``is_receptive`` to record the subgroups it tests."""
    tested = []
    receptive = fusion_mod.is_receptive

    def counting(F, i):
        tested.append(i)
        return receptive(F, i)

    monkeypatch.setattr(fusion_mod, "is_receptive", counting)
    return tested


def test_saturation_of_a_group_system_makes_no_receptivity_test(monkeypatch):
    tested = _counting_receptivity(monkeypatch)
    systems = [fusion_of_group(catalog.built(name).group, catalog.entry(name).prime)
               for name in ["sym4", "sigma3-cubed-paired", "sym4-c2"]]
    cycles, points = P2_GROUPS["sym4xsym4"]
    systems.append(fusion_of_group(perm_group(*cycles, points=points), 2))
    for F in systems:
        report = saturation_report(F)
        assert report.verdict
        assert all(c.witness is not None and c.failure is None for c in report.per_class)
    assert tested == []


def test_saturation_of_other_systems_still_tests_receptivity(monkeypatch):
    from fusionsys import serialize

    tested = _counting_receptivity(monkeypatch)
    F = fusion("sym4")
    klein = next(
        sub for sub in F.lattice.subs
        if sub.order == 4 and is_strongly_closed(F, F.index_of(sub.members))
    )
    c3 = perm_group([[1, 2, 3]], points=3)
    inv = GroupHom(c3.full_subgroup(), c3.full_subgroup(), (0, 2, 1))
    others = {
        "json": serialize.fusion_from_json(serialize.fusion_to_json(F)),
        "generated": generated_fusion(c3, [inv]),
        "restricted": restrict_full(F, klein),
        "rebuilt": FusionSystem(F.base, F.p, F.maps),
    }
    for label, E in others.items():
        tested.clear()
        saturation_report(E)
        assert tested, label


def test_provenance_check_catches_the_last_fully_normalized_member(monkeypatch):
    assert _fusion_core_result("saturation-by-provenance").passed

    def last_of_largest(F, cls):
        sizes = [F.lattice.normalizer_mask(i).bit_count() for i in cls]
        return cls[len(sizes) - 1 - sizes[::-1].index(max(sizes))]

    monkeypatch.setattr(fusion_mod, "fully_normalized", last_of_largest)
    result = _fusion_core_result("saturation-by-provenance")
    assert not result.passed
    assert "differs from the scan" in result.detail


def test_control_subgroup_proper_on_dihedral():
    # an order-3 automorphism of the normal Klein subgroup transports only
    # the centralizer part of the dihedral conjugation action
    from fusionsys.fusion import control_subgroup

    F = fusion("sym4")
    S = F.base
    klein_idx = next(
        i
        for i, sub in enumerate(F.lattice.subs)
        if sub.order == 4 and sub.is_normal()
        and all(S.element_order(x) in (1, 2) for x in sub.members)
        and is_strongly_closed(F, i)
    )
    klein = F.lattice.subs[klein_idx]
    order3 = next(
        phi
        for phi in F.aut_maps(klein_idx)
        if _map_order(klein, GroupHom(klein, S.full_subgroup(), phi, _checked=True)) == 3
    )
    n_phi = control_subgroup(F, klein_idx, order3, klein_idx)
    assert n_phi.members == klein.members  # proper: only the subgroup itself
    inner = tuple(klein.members)
    n_id = control_subgroup(F, klein_idx, inner, klein_idx)
    assert n_id.order == 8  # the identity transports the whole normalizer


def test_conjugation_tables_check_catches_a_dropped_normalizer_element(monkeypatch):
    from fusionsys import verify

    name = "fusion-core/conjugation-tables"
    checks = dict(verify.FUSION_CORE_CHECKS)
    assert verify._run(name, checks["conjugation-tables"]).passed

    lat = fusion(catalog.names()[0]).lattice
    dropped = list(lat._normalizers)
    whole = dropped[lat.full_index]
    # clear the highest bit: the last member of the normalizer
    dropped[lat.full_index] = whole ^ (1 << (whole.bit_length() - 1))
    monkeypatch.setattr(lat, "_normalizers", dropped)
    result = verify._run(name, checks["conjugation-tables"])
    assert not result.passed
    assert "normalizer table" in result.detail


def test_conjugation_tables_check_catches_a_normalizer_of_the_first_generator(monkeypatch):
    from fusionsys import groups, verify
    from fusionsys.groups import normalizer_mask

    def first_generator_only(trans, shape):
        return [
            normalizer_mask(trans, gens[:1], mask)
            for gens, mask in zip(shape.gens, shape.masks)
        ]

    # fresh catalog objects, so no normalizer table is already cached
    monkeypatch.setattr(catalog, "_BUILDS", {})
    monkeypatch.setattr(groups, "_LATTICES", {})
    monkeypatch.setattr(groups, "_normalizer_masks", first_generator_only)
    checks = dict(verify.FUSION_CORE_CHECKS)
    result = verify._run("fusion-core/conjugation-tables", checks["conjugation-tables"])
    assert not result.passed
    assert "normalizer table" in result.detail


def test_conjugation_tables_check_catches_a_conjugation_test_on_the_first_generator(monkeypatch):
    assert _fusion_core_result("conjugation-tables").passed

    def first_generator_only(self, q, phi):
        trans, pos = self.transporter_table(), self.pos[q]
        mask = (1 << len(trans)) - 1
        for x in self.shape.gens[q][:1]:
            mask &= trans[x].get(phi[pos[x]], 0)
        return mask != 0

    monkeypatch.setattr(fusion_mod.SubgroupLattice, "is_conjugation", first_generator_only)
    result = _fusion_core_result("conjugation-tables")
    assert not result.passed
    assert "is_conjugation of" in result.detail


@pytest.mark.parametrize("name", list(P2_GROUPS))
def test_large_p2_lattices_match_their_plain_twins(name):
    from fusionsys.groups import members_of
    from fusionsys.verify import (
        coset_rows_plain,
        enumerate_subgroups_plain,
        fusion_table_plain,
        is_receptive_plain,
    )

    cycles, points = P2_GROUPS[name]
    G = perm_group(*cycles, points=points)
    F = fusion_of_group(G, 2)
    S, lat = F.base, F.lattice
    assert [s.members for s in lat.subs] == enumerate_subgroups_plain(S)
    for i, sub in enumerate(lat.subs):
        assert lat.normalizer(i) == sub.normalizer_in().members, sub.members
        assert lat.centralizer(i) == sub.centralizer_in().members, sub.members
        rows = tuple((row, members_of(mask)) for row, mask in lat.coset_rows(i))
        assert rows == coset_rows_plain(F, i), sub.members
    assert list(F.map_sets) == [frozenset(ms) for ms in fusion_table_plain(G, 2)]
    assert saturation_report(F) == fusion_mod.saturation_scan(F, is_receptive_plain)


# groups with several Sylow generators and a nontrivial C_G(S), so that
# the table builder keeps fewer rows than G has elements; Alt7, of order
# 2520, is above the dense-table limit and multiplies by permutations
@pytest.mark.parametrize(
    "cycles, points, p",
    [
        ([[[1, 2]], [[1, 2, 3, 4, 5, 6]]], 6, 3),
        ([[[1, 2, 3]], [[1, 4], [2, 5], [3, 6]]], 6, 3),
        ([[[1, 2]], [[1, 2, 3, 4, 5]]], 5, 2),
        ([[[1, 2, 3]], [[3, 4, 5, 6, 7]]], 7, 2),
    ],
    ids=["sym6-p3", "c3wrc2-p3", "sym5-p2", "alt7-p2"],
)
def test_fusion_of_group_matches_the_pass_over_every_element(cycles, points, p):
    from fusionsys.groups import _DENSE_MUL_LIMIT
    from fusionsys.verify import fusion_table_plain

    G = perm_group(*cycles, points=points)
    assert (G._mul is None) == (G.order > _DENSE_MUL_LIMIT)
    F = fusion_of_group(G, p)
    S = sylow(G, p)
    assert len(S.as_group()[0].generators) > 1
    assert len(S.centralizer_in(G.full_subgroup()).members) > 1
    assert list(F.map_sets) == [frozenset(ms) for ms in fusion_table_plain(G, p)]


def test_iso_maps_are_filed_once_per_domain():
    F = fusion("sym4")
    F = FusionSystem(F.base, F.p, F.maps)
    subs = F.lattice.subs
    isos = {
        (i, j): F.iso_maps(i, j)
        for i in range(len(subs))
        for j in range(len(subs))
    }
    for (i, j), ms in isos.items():
        assert ms == tuple(m for m in F.maps[i] if tuple(sorted(m)) == subs[j].members)
    assert any(ms and i != j for (i, j), ms in isos.items())
    # a rescan would now find no maps at all
    F.maps = tuple(() for _ in F.maps)
    for (i, j), ms in isos.items():
        assert F.iso_maps(i, j) is ms
        assert F.aut_maps(i) is isos[i, i]


# -- conjugacy ------------------------------------------------------------------


def test_inner_abelian_classes_are_singletons():
    e9 = perm_group([[1, 2, 3]], [[4, 5, 6]], points=6)
    data = conjugacy(inner_fusion(e9))
    assert all(len(c) == 1 for c in data.element_classes)


def test_paired_triple_inverts_axis_elements(paired_triple):
    F, _, lines = paired_triple
    G = F.base
    for x in lines[0].members:
        cls = F.element_class_of(x)
        assert G.inv(x) in cls


def test_sym4_fuses_klein_involutions():
    F = fusion(name="sym4")
    S = F.base
    central = next(
        x for x in S.center_members() if x != 0
    )
    cls = F.element_class_of(central)
    assert len(cls) > 1  # the central involution fuses away from the center


def test_element_classes_check_catches_a_skipped_cyclic_subgroup(monkeypatch):
    assert _fusion_core_result("element-classes").passed
    cyclic = fusion_mod.SubgroupLattice.cyclic_generators

    def skipping(self):
        return cyclic(self)[:-1]

    monkeypatch.setattr(fusion_mod.SubgroupLattice, "cyclic_generators", skipping)
    result = _fusion_core_result("element-classes")
    assert not result.passed
    assert "differ from the join along every map" in result.detail


def test_coset_rows_check_catches_a_coset_mask_missing_a_member(monkeypatch):
    assert _fusion_core_result("coset-rows").passed
    coset_rows = fusion_mod.SubgroupLattice.coset_rows

    def dropping(self, i):
        rows = coset_rows(self, i)
        row, coset = rows[-1]
        # clear the lowest bit of the last coset
        return rows[:-1] + ((row, coset & (coset - 1)),)

    monkeypatch.setattr(fusion_mod.SubgroupLattice, "coset_rows", dropping)
    result = _fusion_core_result("coset-rows")
    assert not result.passed
    assert "differ from the plain cosets" in result.detail


# -- center, focal subgroup, classification -------------------------------------


def test_center_inner_is_group_center():
    d8 = perm_group([[1, 2, 3, 4]], [[1, 3]], points=4)
    F = inner_fusion(d8)
    assert center_of(F).members == tuple(sorted(d8.center_members()))


@pytest.mark.parametrize(
    "name,z_order",
    [
        ("sigma3-cubed-paired", 1),
        ("sym4", 1),
        ("alt4", 1),
        ("inner-d8", 2),
        ("sym4-c2", 2),
    ],
)
def test_center_orders(name, z_order):
    assert center_of(fusion(name)).order == z_order


def test_center_of_c2_5_makes_one_extension_test(monkeypatch):
    F = inner_fusion(
        perm_group([[1, 2]], [[3, 4]], [[5, 6]], [[7, 8]], [[9, 10]], points=10)
    )
    calls = []
    central = fusion_mod.is_central_subgroup

    def counting(F, i):
        calls.append(i)
        return central(F, i)

    monkeypatch.setattr(fusion_mod, "is_central_subgroup", counting)
    assert center_of(F).order == 32
    assert len(calls) <= 1


def _fusion_core_result(check_name):
    from fusionsys import verify

    check = dict(verify.FUSION_CORE_CHECKS)[check_name]
    return verify._run(f"fusion-core/{check_name}", check)


def test_center_check_catches_unchecked_fixed_points(monkeypatch):
    from fusionsys import verify

    def fixed_points_only(F):
        G = F.base
        fixed = {cls[0] for cls in F.element_classes() if len(cls) == 1}
        return G.generated_subgroup(fixed & set(G.center_members()))

    monkeypatch.setattr(verify, "center_of", fixed_points_only)
    result = _fusion_core_result("center-fixed-points")
    assert not result.passed
    assert "differs from the extension loop" in result.detail


def test_center_check_catches_the_saturated_shortcut_without_saturation(monkeypatch):
    assert _fusion_core_result("center-fixed-points").passed
    # V4 with <(1 2)> -> <(3 4)> is not saturated, and its <Fix> is not central
    monkeypatch.setattr(fusion_mod, "_known_saturated", lambda F: True)
    result = _fusion_core_result("center-fixed-points")
    assert not result.passed
    assert "differs from the extension loop" in result.detail


def test_center_of_a_saturated_system_makes_no_extension_test(monkeypatch):
    from fusionsys.verify import center_plain

    calls = []
    central = fusion_mod.is_central_subgroup

    def counting(F, i):
        calls.append(i)
        return central(F, i)

    monkeypatch.setattr(fusion_mod, "is_central_subgroup", counting)
    for name in ["sym4-c2", "inner-d8-c2", "sigma3-cubed-paired"]:
        F = fusion(name)
        F = FusionSystem(F.base, F.p, F.maps)
        assert saturation_report(F).verdict
        z = center_of(F)
        assert calls == []
        assert z == center_plain(F)
        calls.clear()


def test_focal_against_derived_intersection():
    # oracle: for realized systems the focal subgroup is the intersection
    # of the Sylow subgroup with the derived subgroup of the ambient group
    from fusionsys.groups import characteristic_subgroups

    for name in ["sym4", "alt4", "sigma3", "dihedral18", "sigma3-cubed-paired",
                 "sym4-c2", "inner-d8", "inner-c2c4"]:
        b = catalog.built(name)
        F = b.fusion
        S = sylow(b.group, b.entry.prime)
        derived = characteristic_subgroups(b.group, b.entry.prime).derived
        expected = sorted(S.member_set & derived.member_set)
        focal = focal_of(F)
        got = sorted(S.members[t] for t in focal.members)
        assert got == expected, name


def test_focal_inversion_generates():
    c3 = perm_group([[1, 2, 3]], points=3)
    inv = GroupHom(c3.full_subgroup(), c3.full_subgroup(), (0, 2, 1))
    F = generated_fusion(c3, [inv])
    assert focal_of(F).order == 3


def test_classify_full_subgroup(paired_triple):
    F, _, _ = paired_triple
    cls = classify_subgroup(F, F.base.full_subgroup())
    assert cls.strongly_closed and cls.centric


def test_classify_center_and_focal_bounds():
    F = fusion("sym4")
    z = center_of(F)
    foc = focal_of(F)
    for i, sub in enumerate(F.lattice.subs):
        if sub.member_set <= z.member_set:
            assert classify_subgroup(F, sub).strongly_closed
        if foc.member_set <= sub.member_set:
            assert classify_subgroup(F, sub).strongly_closed


def test_radical_subgroups_sym4():
    # the dihedral Sylow and the normal Klein subgroup are the radical
    # centric subgroups of the symmetric-group fusion at p=2
    F = fusion("sym4")
    crs = [
        F.lattice.subs[i].order
        for i in range(len(F.lattice.subs))
        if classify_subgroup(F, F.lattice.subs[i]).centric
        and classify_subgroup(F, F.lattice.subs[i]).radical
    ]
    assert sorted(crs) == [4, 8]


def test_fusion_invariants_record():
    F = fusion("inner-d8")
    inv = fusion_invariants(F)
    assert inv.center.order == 2
    assert inv.focal.order == 2
    assert len(inv.strongly_closed) == 6  # the normal subgroups
    assert F.lattice.full_index in inv.centric


# -- full restriction -------------------------------------------------------------


def test_restrict_full_whole_group_is_identity(paired_triple):
    F, _, _ = paired_triple
    assert restrict_full(F, F.base.full_subgroup()) is F


def test_restrict_axis_is_sigma3_fusion(paired_triple):
    F, Fbar, lines = paired_triple
    s3 = catalog.built("sigma3").group
    realized = fusion_of_group(s3, 3)
    for T in lines:
        E = restrict_full(F, T)
        assert fusion_equal(E, realized)
        Ebar = restrict_full(Fbar, Subgroup(Fbar.base, T.members, _checked=True))
        assert fusion_equal(Ebar, realized)


def test_restrict_strongly_closed_saturated(paired_triple):
    F, _, lines = paired_triple
    G = F.base
    T12 = G.generated_subgroup(set(lines[0].members) | set(lines[1].members))
    assert is_strongly_closed(F, F.index_of(T12.members))
    assert is_saturated(restrict_full(F, T12))


# -- generation -----------------------------------------------------------------


def test_alperin_generators_inner():
    d8 = perm_group([[1, 2, 3, 4]], [[1, 3]], points=4)
    F = inner_fusion(d8)
    gens = regenerate_from_alperin(F)
    bases = sorted(sub.order for sub, _ in gens)
    assert bases[-1] == 8  # the full subgroup always appears
    for sub, auts in gens:
        if sub.order == 8:
            assert len(auts) == 4


def test_alperin_generators_reuse_the_centric_radical_subgroups(monkeypatch):
    # on sym4 one subgroup has an Out_F(P) of mixed order, so the radical
    # test builds it as a group; fusion_invariants does that once
    F = fusion("sym4")
    F = FusionSystem(F.base, F.p, F.maps)
    calls = []
    outer = fusion_mod.outer_automorphism_group

    def counting(F, i):
        calls.append(i)
        return outer(F, i)

    monkeypatch.setattr(fusion_mod, "outer_automorphism_group", counting)
    fusion_invariants(F)
    assert len(calls) == 1
    gens = fusion_mod.alperin_generators(F)
    assert len(calls) == 1
    fresh = FusionSystem(F.base, F.p, F.maps)
    assert gens == fusion_mod.alperin_generators(fresh)
    assert len(calls) == 2


def test_alperin_regenerates_rigid_table(paired_triple):
    F, _, _ = paired_triple
    gens = regenerate_from_alperin(F)
    assert [sub.order for sub, _ in gens] == [27]


def _close_without_image_joins(base, seeds):
    """The elementwise worklist (``verify.close_maps_plain``) with both
    exact-image joins deleted: inner maps and seeds closed under
    inversion and restriction only."""
    lat = fusion_mod.lattice_of(base)
    store = [set() for _ in lat.subs]
    queue = deque((lat.full_index, tuple(row)) for row in lat.conj_table())
    queue.extend(seeds)
    while queue:
        d, m = queue.popleft()
        if m in store[d]:
            continue
        store[d].add(m)
        members, pos = lat.subs[d].members, lat.pos[d]
        image = tuple(sorted(m))
        queue.append((lat.idx[image], fusion_mod._invert_map(m, members, image)))
        for e in lat.maximal_of[d]:
            queue.append((e, tuple(m[pos[x]] for x in lat.subs[e].members)))
    return store


def test_alperin_check_catches_close_maps_without_image_joins(monkeypatch):
    from fusionsys import verify

    assert _fusion_core_result("alperin-generation").passed
    monkeypatch.setattr(verify, "close_maps", _close_without_image_joins)
    # in GL(3,2) the outer involutions of one Klein four-group reach those
    # of the other only by a composite through the central involution
    with pytest.raises(GenerationMismatch):
        verify.regenerate_from_alperin(verify.gl32_fusion())
    result = _fusion_core_result("alperin-generation")
    assert not result.passed
    assert result.detail.startswith("GenerationMismatch")


def test_alperin_on_product_splits(sigma3_squared_aligned):
    big, _ = sigma3_squared_aligned
    gens = regenerate_from_alperin(big)
    for sub, _ in gens:
        left = {x // 3 for x in sub.members}
        right = {x % 3 for x in sub.members}
        assert {a * 3 + b for a in left for b in right} == sub.member_set


# -- orbit-level kernels and their twins ------------------------------------------


def test_class_closure_check_catches_a_merge_without_conjugated_generators(monkeypatch):
    assert _fusion_core_result("class-closure").passed
    extend = fusion_mod._ClassClosure._extend

    def dropping(self, r, candidates, step):
        if step == "merging two classes":
            candidates = []
        return extend(self, r, candidates, step)

    monkeypatch.setattr(fusion_mod._ClassClosure, "_extend", dropping)
    result = _fusion_core_result("class-closure")
    assert not result.passed
    assert "differs from the worklist" in result.detail


def test_receptivity_check_catches_one_isomorphism_per_class_member(monkeypatch):
    assert _fusion_core_result("receptive-representatives").passed

    def first_only(F, q_idx, p_idx):
        yield from F.iso_maps(q_idx, p_idx)[:1]

    monkeypatch.setattr(fusion_mod, "double_coset_reps", first_only)
    result = _fusion_core_result("receptive-representatives")
    assert not result.passed
    assert "differs from the plain loop" in result.detail


def test_receptivity_check_catches_a_conjugation_shortcut_without_conjugacy(monkeypatch):
    assert _fusion_core_result("receptive-representatives").passed
    reps = fusion_mod.double_coset_reps

    def pre_covering(F, q_idx, p_idx):
        found = reps(F, q_idx, p_idx)
        if not F.lattice.transporter_mask(q_idx, p_idx):
            # treat the first double coset as the S-conjugations Q -> P
            next(found, None)
        yield from found

    monkeypatch.setattr(fusion_mod, "double_coset_reps", pre_covering)
    result = _fusion_core_result("receptive-representatives")
    assert not result.passed
    assert "differs from the plain loop" in result.detail


def test_automizer_check_catches_a_missing_inner_automorphism(monkeypatch):
    from fusionsys import verify

    assert _fusion_core_result("automizers").passed
    battery = verify.orbit_battery

    def with_a_gap():
        F = fusion("sym4")
        lat = F.lattice
        # drop a conjugation map of the full subgroup other than the identity
        i = lat.full_index
        inner = sorted(lat.aut_s(i) - {lat.subs[i].members})[0]
        maps = [ms if j != i else [m for m in ms if m != inner] for j, ms in enumerate(F.maps)]
        return battery() + [("sym4 without an inner map", FusionSystem(F.base, F.p, maps))]

    monkeypatch.setattr(verify, "orbit_battery", with_a_gap)
    result = _fusion_core_result("automizers")
    assert not result.passed
    assert "inner automorphisms of subgroup" in result.detail


def test_radical_check_catches_radicality_left_on_the_class_root(monkeypatch):
    from fusionsys import verify

    assert _fusion_core_result("radical-by-order").passed

    def root_only(F):
        every = range(len(F.lattice.subs))
        roots = {cls[0] for cls in F.subgroup_classes()}
        return (
            tuple(i for i in every if fusion_mod.is_centric(F, i)),
            tuple(i for i in every if i in roots and fusion_mod.is_radical(F, i)),
        )

    monkeypatch.setattr(verify, "centric_radical", root_only)
    result = _fusion_core_result("radical-by-order")
    assert not result.passed
    assert "centric-radical lists differ" in result.detail


def test_radical_check_catches_p_power_out_called_radical(monkeypatch):
    from fusionsys import verify

    assert _fusion_core_result("radical-by-order").passed
    radical = fusion_mod.is_radical

    def p_power_radical(F, i):
        order = fusion_mod.out_order(F, i)
        return True if fusion_mod.p_part(order, F.p) == order else radical(F, i)

    monkeypatch.setattr(verify, "is_radical", p_power_radical)
    result = _fusion_core_result("radical-by-order")
    assert not result.passed
    assert "differs from the Out_F table" in result.detail


def _double_coset_count(F, q_idx, p_idx):
    """Aut_S(P) \\ Iso_F(Q, P) / Aut_S(Q), counted by brute force."""
    lat = F.lattice
    pos_p, pos_q = lat.pos[p_idx], lat.pos[q_idx]
    left, right = lat.aut_s(p_idx), lat.aut_s(q_idx)
    isos = set(F.iso_maps(q_idx, p_idx))
    count = 0
    while isos:
        phi = min(isos)
        isos -= {
            tuple(alpha[pos_p[phi[pos_q[b]]]] for b in beta)
            for alpha in left
            for beta in right
        }
        count += 1
    return count


def test_saturation_makes_one_control_subgroup_per_double_coset(monkeypatch):
    control = fusion_mod.control_subgroup
    receptive = fusion_mod.is_receptive
    controls, tested = [], []

    def counting_control(F, q_idx, phi, p_idx):
        controls.append(p_idx)
        return control(F, q_idx, phi, p_idx)

    def recording_receptive(F, i):
        tested.append(i)
        return receptive(F, i)

    monkeypatch.setattr(fusion_mod, "control_subgroup", counting_control)
    monkeypatch.setattr(fusion_mod, "is_receptive", recording_receptive)
    for name in catalog.names():
        F = fusion(name)
        fresh = fusion_mod.FusionSystem(F.base, F.p, F.maps)
        controls.clear()
        tested.clear()
        saturation_report(fresh)
        bound = sum(
            _double_coset_count(fresh, q_idx, i)
            for i in tested
            for q_idx in fresh.subgroup_class_of(i)
        )
        assert len(controls) <= bound, name


def test_saturation_of_inner_systems_builds_no_control_subgroup(monkeypatch):
    control = fusion_mod.control_subgroup
    controls = []

    def counting_control(F, q_idx, phi, p_idx):
        controls.append(p_idx)
        return control(F, q_idx, phi, p_idx)

    monkeypatch.setattr(fusion_mod, "control_subgroup", counting_control)
    systems = [fusion(name) for name in catalog.names() if name.startswith("inner-")]
    cycles, points = P2_GROUPS["d8xd8"]
    systems.append(fusion_of_group(perm_group(*cycles, points=points), 2))
    for F in systems:
        report = saturation_report(fusion_mod.FusionSystem(F.base, F.p, F.maps))
        assert report.verdict
    assert len(systems) == 9
    # every isomorphism of an inner system is an S-conjugation
    assert controls == []
    # a system with fusion outside S still builds them
    sym4 = fusion("sym4")
    saturation_report(fusion_mod.FusionSystem(sym4.base, sym4.p, sym4.maps))
    assert controls


def test_radicality_builds_out_f_only_for_mixed_orders(monkeypatch):
    outer = fusion_mod.outer_automorphism_group
    built = []

    def recording(F, i):
        built.append((F, i))
        return outer(F, i)

    monkeypatch.setattr(fusion_mod, "outer_automorphism_group", recording)
    for name in catalog.names():
        fusion_invariants(fusion(name))
    for F, i in built:
        members = F.lattice.subs[i].members
        inner = {tuple(F.base.conj(x, y) for y in members) for x in members}
        order = len(F.aut_maps(i)) // len(inner)
        assert fusion_mod.p_part(order, F.p) != order, (F, i, order)
    # Out_F of the Klein four-group of Sym(4) at p = 2 is Sym(3)
    assert built


def test_sym4_regeneration_composes_less_than_the_worklist_pops(monkeypatch):
    from fusionsys import verify

    F = fusion("sym4")
    seeds = verify.centric_radical_seeds(F)

    class CountingDeque(deque):
        pops = 0

        def popleft(self):
            CountingDeque.pops += 1
            return super().popleft()

    monkeypatch.setattr(verify, "deque", CountingDeque)
    verify.close_maps_plain(F.base, seeds)
    # every composition of the class closure (vertex groups, transporters,
    # conjugated generators and the final table) goes through _compose
    compositions = []
    compose = fusion_mod._compose

    def counting(x, y, pos):
        compositions.append(1)
        return compose(x, y, pos)

    monkeypatch.setattr(fusion_mod, "_compose", counting)
    table = fusion_mod.close_maps(F.base, seeds)
    assert [frozenset(ms) for ms in table] == list(F.map_sets)
    assert 0 < len(compositions) < CountingDeque.pops
