"""Group-core: closure, lattices, Sylow subgroups, hom enumeration,
series and splittings.  Derived values are frozen against independent
oracles (sympy's Schreier-Sims order, counting formulas, raw brute
force)."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st
from sympy.combinatorics import Permutation, PermutationGroup

from fusionsys.errors import (
    ClosureTooLarge,
    GroupTooLarge,
    NotAbelian,
    NotBijection,
    NotPGroup,
    NotSubgroup,
)
from fusionsys import catalog, groups
from fusionsys.groups import (
    CharacteristicSubgroups,
    FiniteGroup,
    GroupHom,
    Subgroup,
    all_homs,
    automorphisms,
    characteristic_subgroups,
    cycles_to_perm,
    direct_product,
    enumerate_subgroups,
    fitting_split,
    injective_homs,
    lattice_of,
    normal_closure,
    omega_central_series,
    quotient,
    subgroups,
    sylow,
)
from fusionsys import guardrails
from fusionsys.verify import enumerate_subgroups_plain


def perm_group(*cycle_lists, points):
    return FiniteGroup.from_permutations(
        [cycles_to_perm(c, points) for c in cycle_lists], points=points
    )


def sympy_order(*cycle_lists, points):
    perms = [
        Permutation(list(cycles_to_perm(cycles, points)))
        for cycles in cycle_lists
    ]
    return int(PermutationGroup(perms).order())


# -- closure ----------------------------------------------------------------


def test_single_three_cycle():
    G = perm_group([[1, 2, 3]], points=3)
    assert G.order == 3


def test_paired_triple_order():
    G = perm_group(
        [[1, 2, 3]], [[4, 5, 6]], [[7, 8, 9]], [[1, 2], [4, 5]], [[1, 2], [7, 8]],
        points=9,
    )
    assert G.order == 108


@pytest.mark.parametrize(
    "cycle_lists,points",
    [
        (([[1, 2]], [[1, 2, 3, 4]]), 4),
        (([[1, 2, 3]], [[1, 2], [3, 4]]), 4),
        (([[1, 2, 3, 4, 5]], [[1, 2]]), 5),
        (([[1, 2, 3, 4]], [[1, 3]]), 4),
    ],
)
def test_closure_matches_schreier_sims(cycle_lists, points):
    ours = perm_group(*cycle_lists, points=points)
    assert ours.order == sympy_order(*cycle_lists, points=points)


def test_closure_guardrail(monkeypatch):
    monkeypatch.setattr(guardrails, "_ACTIVE", guardrails.Guardrails().scaled_to(10))
    with pytest.raises(ClosureTooLarge):
        FiniteGroup.from_permutations(
            [cycles_to_perm([[1, 2]], 4), cycles_to_perm([[1, 2, 3, 4]], 4)]
        )


def test_malformed_permutation():
    with pytest.raises(NotBijection):
        FiniteGroup.from_permutations([(0, 0, 1)])
    with pytest.raises(NotBijection):
        cycles_to_perm([[1, 2], [2, 3]], 3)


def test_identity_generator_gives_trivial_group():
    G = FiniteGroup.from_permutations([(0, 1, 2)])
    assert G.order == 1
    assert G.generators == ()
    assert len(subgroups(G)) == 1


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.lists(
        st.permutations(list(range(5))),
        min_size=1,
        max_size=3,
    )
)
def test_group_laws_random_generators(perms):
    G = FiniteGroup.from_permutations([tuple(p) for p in perms], points=5)
    assert G.order == int(PermutationGroup([Permutation(list(p)) for p in perms]).order())
    G.verify_axioms()


def test_from_permutations_composes_once_per_tree_edge(monkeypatch):
    calls = []
    compose = groups.perm_compose

    def counting(a, b):
        calls.append(1)
        return compose(a, b)

    monkeypatch.setattr(groups, "perm_compose", counting)
    gens = [
        cycles_to_perm(c, 8) for c in ([[1, 2]], [[1, 2, 3, 4]], [[5, 6]], [[5, 6, 7, 8]])
    ]
    G = FiniteGroup.from_permutations(gens, points=8)
    assert G.order == 576
    assert len(calls) <= G.order * (len(gens) + 1)


def _cayley_check():
    from fusionsys import verify

    check = dict(verify.GROUP_CORE_CHECKS)["cayley-tables"]
    return verify._run("group-core/cayley-tables", check)


def test_cayley_check_catches_a_wrong_tree_parent(monkeypatch):
    assert _cayley_check().passed
    table_from_tree = groups._table_from_tree

    def wrong_parent(parent, via, right):
        parent = list(parent)
        parent[-1] = 1 if parent[-1] == 0 else 0
        return table_from_tree(parent, via, right)

    monkeypatch.setattr(groups, "_table_from_tree", wrong_parent)
    result = _cayley_check()
    assert not result.passed
    assert "dense table differs" in result.detail


def test_containment_check_catches_a_dropped_maximal_subgroup(monkeypatch):
    from fusionsys import verify

    check = dict(verify.GROUP_CORE_CHECKS)["containment"]
    assert verify._run("group-core/containment", check).passed
    index_p = groups._maximal_of_index_p

    def dropping(members, gens, p):
        return [tops[:-1] for tops in index_p(members, gens, p)]

    monkeypatch.setattr(groups, "_maximal_of_index_p", dropping)
    result = verify._run("group-core/containment", check)
    assert not result.passed
    assert "differ from the pairwise loop" in result.detail


# -- subgroup enumeration -----------------------------------------------------


def test_subgroups_cyclic_prime():
    G = perm_group([[1, 2, 3]], points=3)
    assert len(subgroups(G)) == 2


def test_subgroups_counts_against_formulas():
    # elementary abelian 27: 1 + (3^3-1)/2 twice + 1 = 28 subspaces
    e27 = perm_group([[1, 2, 3]], [[4, 5, 6]], [[7, 8, 9]], points=9)
    assert len(subgroups(e27)) == 28
    # dihedral of order 2n has d(n) + sigma(n) subgroups: d(4)+sigma(4) = 3+7
    d8 = perm_group([[1, 2, 3, 4]], [[1, 3]], points=4)
    assert len(subgroups(d8)) == 10
    # symmetric group on 4 points: 30 subgroups (classical count)
    s4 = perm_group([[1, 2]], [[1, 2, 3, 4]], points=4)
    assert len(subgroups(s4)) == 30


def test_subgroups_canonical_order_and_index():
    d8 = perm_group([[1, 2, 3, 4]], [[1, 3]], points=4)
    subs = subgroups(d8)
    keys = [s.key() for s in subs]
    assert keys == sorted(keys)
    for i, s in enumerate(subs):
        assert s.canonical_index == i
    assert subs[0].order == 1 and subs[-1].order == 8


def test_subgroups_guardrail(monkeypatch):
    default, small = guardrails.active(), guardrails.Guardrails().scaled_to(4)
    d8 = perm_group([[1, 2, 3, 4]], [[1, 3]], points=4)
    same_table = FiniteGroup.from_cayley(
        [[d8.mul(a, b) for b in range(8)] for a in range(8)]
    )
    monkeypatch.setattr(guardrails, "_ACTIVE", small)
    with pytest.raises(GroupTooLarge):
        subgroups(d8)
    # a group whose table is already memoized is still refused
    monkeypatch.setattr(guardrails, "_ACTIVE", default)
    subgroups(d8)
    monkeypatch.setattr(guardrails, "_ACTIVE", small)
    with pytest.raises(GroupTooLarge):
        subgroups(same_table)


# The plain enumeration of the 216-element sigma3-cubed-full group takes
# about 15 s; every other full catalog group takes about a second or less.
FULL_GROUP_LIMIT = 108


def _lattices_match_plain(name):
    """The memoized lattices of the entry's full group (up to
    FULL_GROUP_LIMIT elements), of its Sylow subgroup, of every subgroup
    of that and of the trivial group equal the one-closure-per-element
    enumeration.  The full group goes first, then the Sylow subgroup, so
    a wrong lattice is caught before its members are taken for
    subgroups."""
    b = catalog.built(name)
    full = [b.group] if b.group.order <= FULL_GROUP_LIMIT else []

    def sylow_lattices():
        S = b.fusion.base
        yield S
        for sub in subgroups(S):
            yield sub.as_group()[0]

    return all(
        [s.members for s in subgroups(G)] == enumerate_subgroups_plain(G)
        for G in itertools.chain(full, sylow_lattices(), [perm_group([], points=1)])
    )


@pytest.mark.parametrize("name", catalog.names())
def test_memoized_lattices_match_enumeration(name):
    assert _lattices_match_plain(name)


def test_lattice_oracle_catches_marking_the_whole_extension(monkeypatch):
    # marking all of <H, x> done, not just the coset Hx, skips the
    # subgroups of <H, x> that other elements of it generate with H; only
    # groups that are not p-groups take the coset path
    monkeypatch.setattr(catalog, "_BUILDS", {})
    monkeypatch.setattr(groups, "_LATTICES", {})
    monkeypatch.setattr(
        groups,
        "_right_coset",
        lambda G, members, x: groups._closure_ids(G, tuple(members) + (x,)),
    )
    assert not _lattices_match_plain("sym4")


def test_lattice_oracle_catches_skipping_the_normalizer_test(monkeypatch):
    # H <x> is a subgroup only when x normalizes H, so extending a p-group's
    # subgroups by every x with x^p in H records sets that are no subgroups
    monkeypatch.setattr(catalog, "_BUILDS", {})
    monkeypatch.setattr(groups, "_LATTICES", {})
    monkeypatch.setattr(
        groups, "normalizer_mask", lambda trans, gens, mask: (1 << len(trans)) - 1
    )
    assert not _lattices_match_plain("inner-d8")


def _counting_closures(monkeypatch):
    calls = []
    closure = groups._closure_ids

    def counting(G, seed):
        calls.append(seed)
        return closure(G, seed)

    monkeypatch.setattr(groups, "_closure_ids", counting)
    return calls


def test_enumerate_subgroups_closes_once_per_coset(monkeypatch):
    # Sym4 x C2 is no p-group, so its subgroups are found by coset closure
    G = perm_group([[1, 2]], [[1, 2, 3, 4]], [[5, 6]], points=6)
    calls = _counting_closures(monkeypatch)
    lattice = enumerate_subgroups(G).members
    assert len(lattice) == 98
    # one closure per coset Hx other than H itself
    assert len(calls) <= sum(G.order // len(m) - 1 for m in lattice)


def test_p_group_lattice_makes_no_closure(monkeypatch):
    c2_5 = perm_group([[1, 2]], [[3, 4]], [[5, 6]], [[7, 8]], [[9, 10]], points=10)
    trivial = perm_group([], points=1)
    calls = _counting_closures(monkeypatch)
    # C2^5: the sum over k of the Gaussian binomials [5, k]_2
    for G, count in ((c2_5, 374), (trivial, 1)):
        assert len(enumerate_subgroups(G).members) == count
    assert calls == []


def test_lattice_shape_records_masks_and_generators():
    d8 = perm_group([[1, 2, 3, 4]], [[1, 3]], points=4)
    subgroups(d8)
    shape = d8._shape
    for members, mask, gens in zip(shape.members, shape.masks, shape.gens):
        assert groups.members_of(mask) == members
        assert shape.mask_index[mask] == shape.idx[members]
        assert d8.generated_subgroup(gens).members == members


def test_lattice_shape_keeps_the_enumerators_transporters(monkeypatch):
    # fresh shapes, so no earlier lattice has filled the tables
    monkeypatch.setattr(groups, "_LATTICES", {})
    # a dense p-group: the enumerator's rows and transporters are kept on
    # the shape, and the group's lattice reads them from there
    d8, _ = perm_group([[1, 2, 3, 4]], [[1, 3]], points=4).full_subgroup().as_group()
    subgroups(d8)
    shape = d8._shape
    every = range(d8.order)
    assert shape.conj == [d8.conj_row(g, every) for g in every]
    assert shape.trans == groups.transporters(shape.conj)
    lat = lattice_of(d8)
    assert lat.conj_table() is shape.conj
    assert lat.transporter_table() is shape.trans
    # Sym3 is no p-group: its shape gets the tables on first use
    s3 = perm_group([[1, 2]], [[1, 2, 3]], points=3)
    subgroups(s3)
    assert s3._shape.conj is None and s3._shape.trans is None
    assert lattice_of(s3).transporter_table() is s3._shape.trans
    assert s3._shape.trans == groups.transporters(
        [s3.conj_row(g, range(6)) for g in range(6)]
    )


def test_maximal_subgroups_are_refused_off_p_groups():
    # index p finds only C3 in Sym3 and would miss the three subgroups of
    # order 2; the rest of the lattice still serves the group
    s3 = perm_group([[1, 2]], [[1, 2, 3]], points=3)
    lat = lattice_of(s3)
    with pytest.raises(NotPGroup):
        lat.maximal_of
    assert lat.normalizer(lat.full_index) == tuple(range(6))
    d8 = perm_group([[1, 2, 3, 4]], [[1, 3]], points=4)
    assert sorted(map(len, lattice_of(d8).maximal_of)) == [0, 1, 1, 1, 1, 1, 1, 3, 3, 3]


def test_transporters_of_rectangular_rows_with_none():
    # two rows over three columns; None marks an image outside the set
    rows = [[0, 1, None], [0, None, 1]]
    assert groups.transporters(rows) == [{0: 0b11}, {1: 0b01, None: 0b10}, {None: 0b01, 1: 0b10}]


def test_is_prime_matches_trial_division_and_refuses_pseudoprimes():
    trial = [n for n in range(2000) if n > 1 and all(n % d for d in range(2, n))]
    assert [n for n in range(-3, 2000) if groups.is_prime(n)] == trial
    # 2^61 - 1 is prime; the others are strong pseudoprimes to the bases
    # up to 7 and up to 23, and Miller-Rabin to 12 bases rejects them
    assert groups.is_prime(2**61 - 1)
    assert not groups.is_prime(3215031751)
    assert not groups.is_prime(3825123056546413051)


def test_equal_subgroups_share_as_group():
    d8 = perm_group([[1, 2, 3, 4]], [[1, 3]], points=4)
    a = d8.generated_subgroup([1])
    b = d8.generated_subgroup([1])
    assert a is not b
    assert a.as_group() is b.as_group()


def test_subgroup_validation():
    d8 = perm_group([[1, 2, 3, 4]], [[1, 3]], points=4)
    with pytest.raises(NotSubgroup):
        Subgroup(d8, (0, 1))  # r alone is not closed


# -- characteristic subgroups -------------------------------------------------


def test_characteristic_abelian():
    e9 = perm_group([[1, 2, 3]], [[4, 5, 6]], points=6)
    chars = characteristic_subgroups(e9, 3)
    assert chars.center.order == 9
    assert chars.derived.order == 1


def test_characteristic_sigma3():
    s3 = perm_group([[1, 2, 3]], [[1, 2]], points=3)
    chars = characteristic_subgroups(s3, 3)
    assert chars.center.order == 1
    assert chars.derived.order == 3
    assert chars.o_p_prime.order == 1
    # generated by the 3-elements: the rotation subgroup, not all of it
    assert chars.o_upper_p_prime.order == 3


def test_characteristic_paired_triple_group(groups):
    G = groups["sigma3-cubed-paired"]
    chars = characteristic_subgroups(G, 3)
    assert chars.o_p_prime.order == 1
    # every order-3 element lies in the Sylow subgroup: squares of the
    # mixed elements land in an axis, forcing order 2 or 6 outside
    assert chars.o_upper_p_prime.order == 27
    assert {x for x in range(G.order) if G.element_order(x) == 3} <= set(
        chars.o_upper_p_prime.members
    )


def test_o_p_prime_against_normal_scan():
    # independent route: largest coprime-order normal subgroup by scanning
    # the full subgroup lattice
    s3c2 = direct_product(
        perm_group([[1, 2, 3]], [[1, 2]], points=3),
        perm_group([[1, 2, 3]], points=3),
    ).product
    chars = characteristic_subgroups(s3c2, 2)
    best = max(
        (s for s in subgroups(s3c2) if s.is_normal() and s.order % 2),
        key=lambda s: s.order,
    )
    assert chars.o_p_prime.members == best.members
    assert chars.o_p_prime.order == 9


def test_o_p_prime_check_catches_joining_one_class(monkeypatch):
    from fusionsys import verify

    check = dict(verify.GROUP_CORE_CHECKS)["o-p-prime"]
    assert verify._run("group-core/o-p-prime", check).passed

    def first_class_only(G, p):
        chars = characteristic_subgroups(G, p)
        for cls in G.conjugacy_classes()[1:]:
            closed = G.generated_subgroup(cls)
            if closed.order % p:
                return CharacteristicSubgroups(
                    chars.center, chars.derived, closed, chars.o_upper_p_prime
                )
        return chars

    # on Sigma3 x Sigma3 at p = 2 the rule finds one C3 of O_2' = C3 x C3
    G = catalog.built("sigma3-squared").group
    assert first_class_only(G, 2).o_p_prime.order == 3
    assert len(verify.o_p_prime_plain(G, 2)) == 9
    monkeypatch.setattr(verify, "characteristic_subgroups", first_class_only)
    result = verify._run("group-core/o-p-prime", check)
    assert not result.passed
    assert "differs from the normal-subgroup scan" in result.detail


def test_characteristic_subgroups_close_each_class_at_most_once(monkeypatch):
    G = catalog.built("sym4-c2").group
    classes = len(G.conjugacy_classes())
    calls = _counting_closures(monkeypatch)
    characteristic_subgroups(G, 2)
    # one closure per conjugacy class, then the derived subgroup, O_p'
    # and O^p'
    assert len(calls) <= classes + 3


# -- normal closure and Sylow -------------------------------------------------


def test_normal_closure_fixed_point():
    d8 = perm_group([[1, 2, 3, 4]], [[1, 3]], points=4)
    center = Subgroup(d8, d8.center_members(), _checked=True)
    assert normal_closure(d8, center).members == center.members


def test_normal_closure_sigma3():
    s3 = perm_group([[1, 2, 3]], [[1, 2]], points=3)
    flip = next(x for x in range(6) if s3.element_order(x) == 2)
    assert normal_closure(s3, s3.generated_subgroup([flip])).order == 6


def test_normal_closure_of_axis(groups):
    # the axis line is inverted by both sign generators, hence normal;
    # oracle: the smallest normal subgroup containing it in the lattice
    G = groups["sigma3-cubed-paired"]
    a1 = next(
        x
        for x in range(G.order)
        if G.element_order(x) == 3
        and all(G.perms[x][i] == i for i in range(3, 9))
    )
    T1 = G.generated_subgroup([a1])
    H1 = normal_closure(G, T1)
    assert H1.order == 3
    assert H1.members == T1.members


def test_sylow():
    s4 = perm_group([[1, 2]], [[1, 2, 3, 4]], points=4)
    assert sylow(s4, 2).order == 8
    assert sylow(s4, 3).order == 3
    assert sylow(s4, 5).order == 1
    d8 = perm_group([[1, 2, 3, 4]], [[1, 3]], points=4)
    assert sylow(d8, 2).order == 8  # a p-group is its own Sylow subgroup


def test_sylow_of_paired_triple_is_axis_product(groups):
    G = groups["sigma3-cubed-paired"]
    S = sylow(G, 3)
    assert S.order == 27
    assert all(G.element_order(x) in (1, 3) for x in S.members)


def test_sylow_deterministic_least(groups):
    # all Sylow subgroups are conjugate; ours must be the least member tuple
    s4 = groups["sym4"]
    S = sylow(s4, 2)
    conjugates = {
        tuple(sorted(s4.conj(g, x) for x in S.members)) for g in range(24)
    }
    assert S.members == min(conjugates)


def test_sylow_conjugates_once_per_coset_of_the_normalizer():
    # D8 x D8 is its own normalizer in Sym4 x Sym4: 9 cosets, 9 conjugates
    G = perm_group([[1, 2]], [[1, 2, 3, 4]], [[5, 6]], [[5, 6, 7, 8]], points=8)
    S = sylow(G, 2)
    walk = groups.conjugate_masks(G, S.members, S.generating_sequence())
    assert len(walk) == 9
    assert set(walk) == {
        groups.mask_of(G.conj(g, x) for x in S.members) for g in range(G.order)
    }


def test_sylow_check_catches_a_walk_over_right_cosets(monkeypatch):
    from fusionsys import verify

    check = dict(verify.GROUP_CORE_CHECKS)["sylow-least-conjugate"]
    assert verify._run("group-core/sylow-least-conjugate", check).passed

    def right_cosets(G, members, gens):
        # marks N g instead of g N, on which g H g^-1 is not constant
        mask = groups.mask_of(members)
        normalizer = [
            g for g in range(G.order) if all(mask >> y & 1 for y in G.conj_row(g, gens))
        ]
        seen, out = set(), []
        for g in range(G.order):
            if g not in seen:
                seen.update(G.products(normalizer, [g]))
                out.append(groups.mask_of(G.conj_row(g, members)))
        return out

    monkeypatch.setattr(verify, "conjugate_masks", right_cosets)
    result = verify._run("group-core/sylow-least-conjugate", check)
    assert not result.passed
    assert "misses or repeats a conjugate" in result.detail


# -- homomorphism enumeration --------------------------------------------------


def test_trivial_domain_hom():
    c3 = perm_group([[1, 2, 3]], points=3)
    triv = c3.trivial_subgroup()
    homs = injective_homs(triv, c3.full_subgroup())
    assert len(homs) == 1 and homs[0].images == (0,)


def test_automorphism_counts():
    c3 = perm_group([[1, 2, 3]], points=3)
    assert len(automorphisms(c3)) == 2
    v4 = perm_group([[1, 2]], [[3, 4]], points=4)
    assert len(automorphisms(v4)) == 6


def test_v4_automorphisms_raw_bruteforce():
    # oracle: all 4^4 self-maps filtered by the homomorphism and
    # bijectivity definitions, no backtracking involved
    v4 = perm_group([[1, 2]], [[3, 4]], points=4)
    count = 0
    for images in itertools.product(range(4), repeat=4):
        if images[0] != 0 or len(set(images)) != 4:
            continue
        if all(
            images[v4.mul(x, y)] == v4.mul(images[x], images[y])
            for x in range(4)
            for y in range(4)
        ):
            count += 1
    assert count == len(automorphisms(v4)) == 6


def test_hom_counts_elementary_abelian():
    # linear-algebra oracle: |Hom((C3)^2, (C3)^2)| = 3^4, |GL_2(3)| = 48
    e9 = perm_group([[1, 2, 3]], [[4, 5, 6]], points=6)
    full = e9.full_subgroup()
    assert len(all_homs(full, full)) == 81
    assert len(automorphisms(e9)) == 48


def test_injective_homs_between_different_sizes():
    c2 = perm_group([[1, 2]], points=2)
    c4 = perm_group([[1, 2, 3, 4]], points=4)
    assert injective_homs(c4.full_subgroup(), c2.full_subgroup()) == []
    into = injective_homs(c2.full_subgroup(), c4.full_subgroup())
    assert len(into) == 1  # only the order-2 element is available


# -- quotients and the omega series -------------------------------------------


def test_quotient_d8_by_center():
    d8 = perm_group([[1, 2, 3, 4]], [[1, 3]], points=4)
    z = Subgroup(d8, d8.center_members(), _checked=True)
    quo, label = quotient(d8, z)
    assert quo.order == 4
    assert all(quo.mul(x, x) == 0 for x in range(4))  # Klein four-group
    assert label[0] == 0


def test_omega_series_examples():
    c9 = perm_group([[1, 2, 3, 4, 5, 6, 7, 8, 9]], points=9)
    assert [t.order for t in omega_central_series(c9).terms] == [1, 3, 9]
    c4 = perm_group([[1, 2, 3, 4]], points=4)
    assert [t.order for t in omega_central_series(c4).terms] == [1, 2, 4]
    d8 = perm_group([[1, 2, 3, 4]], [[1, 3]], points=4)
    assert [t.order for t in omega_central_series(d8).terms] == [1, 2, 8]
    e9 = perm_group([[1, 2, 3]], [[4, 5, 6]], points=6)
    assert [t.order for t in omega_central_series(e9).terms] == [1, 9]


def test_omega_series_rejects_non_p_group():
    s3 = perm_group([[1, 2, 3]], [[1, 2]], points=3)
    with pytest.raises(NotPGroup):
        omega_central_series(s3)


# -- fitting split -------------------------------------------------------------


def test_fitting_split_identity_zero():
    c4 = perm_group([[1, 2, 3, 4]], points=4)
    full = c4.full_subgroup()
    T, U = fitting_split(c4, GroupHom(full, full, tuple(range(4))))
    assert (T.order, U.order) == (4, 1)
    T, U = fitting_split(c4, GroupHom(full, full, (0, 0, 0, 0)))
    assert (T.order, U.order) == (1, 4)


def test_fitting_split_mixed():
    c2c4 = direct_product(
        perm_group([[1, 2]], points=2), perm_group([[1, 2, 3, 4]], points=4)
    ).product
    full = c2c4.full_subgroup()
    # kill the order-4 generator, keep the involution: f(a,c) = (a,1)
    images = tuple((x // 4) * 4 for x in range(8))
    T, U = fitting_split(c2c4, GroupHom(full, full, images))
    assert T.order == 2 and U.order == 4
    assert T.member_set == {0, 4}
    assert U.member_set == {0, 1, 2, 3}


def test_fitting_split_requires_abelian():
    d8 = perm_group([[1, 2, 3, 4]], [[1, 3]], points=4)
    full = d8.full_subgroup()
    with pytest.raises(NotAbelian):
        fitting_split(d8, GroupHom(full, full, tuple(range(8))))


# -- direct products -----------------------------------------------------------


def test_direct_product_trivial_factor():
    c3 = perm_group([[1, 2, 3]], points=3)
    triv = FiniteGroup.from_cayley([[0]])
    dp = direct_product(c3, triv)
    assert dp.product.order == 3
    assert sorted(dp.product.element_order(x) for x in range(3)) == [1, 3, 3]


def test_direct_product_c2_c2():
    c2 = perm_group([[1, 2]], points=2)
    dp = direct_product(c2, c2)
    assert dp.product.order == 4
    assert all(dp.product.mul(x, x) == 0 for x in range(4))


def test_direct_product_d8_c2_center():
    d8 = perm_group([[1, 2, 3, 4]], [[1, 3]], points=4)
    c2 = perm_group([[1, 2]], points=2)
    dp = direct_product(d8, c2)
    assert dp.product.order == 16
    assert len(dp.product.center_members()) == 4
    # embeddings and projections compose to the identity on each factor
    for emb, proj in ((dp.embed1, dp.proj1), (dp.embed2, dp.proj2)):
        assert proj.compose(emb).images == tuple(range(emb.domain.order))


def test_cayley_round_trip():
    d8 = perm_group([[1, 2, 3, 4]], [[1, 3]], points=4)
    rows = [[d8.mul(a, b) for b in range(8)] for a in range(8)]
    rebuilt = FiniteGroup.from_cayley(rows)
    assert rebuilt.order == 8
    rebuilt.verify_axioms()
    bad = [row[:] for row in rows]
    bad[3][4] = 0 if bad[3][4] else 1
    with pytest.raises(NotSubgroup):
        FiniteGroup.from_cayley(bad)


# -- generators ----------------------------------------------------------------


def _generated(G):
    return groups._closure_ids(G, G.generators) == tuple(range(G.order))


def test_declared_generators_generate_the_group():
    """Tests on generators (the homomorphism law, Omega commutation,
    the normal-automorphism criterion, Sylow search) read
    ``G.generators`` as a generating set of G."""
    from fusionsys import serialize

    checked = 0
    for name in catalog.names():
        b = catalog.built(name)
        for G in (b.group, b.fusion.base):
            assert _generated(G), name
            checked += 1
        for H in subgroups(b.fusion.base):
            HG, _ = H.as_group()
            assert _generated(HG), (name, H.members)
            checked += 1
    d8 = perm_group([[1, 2, 3, 4]], [[1, 3]], points=4)
    center = Subgroup(d8, d8.center_members())
    quo, _ = quotient(d8, center)
    dp = direct_product(d8, perm_group([[1, 2, 3]], points=3))
    cayley = FiniteGroup.from_cayley([[d8.mul(a, b) for b in range(8)] for a in range(8)])
    loaded = [
        serialize.group_from_json(serialize.group_to_json(G))
        for G in (d8, dp.product, cayley)
    ]
    for G in [quo, dp.product, cayley] + loaded:
        assert _generated(G)
        checked += 1
    # 17 catalog groups and their Sylow bases, 237 lattice members and
    # 6 constructed or loaded groups
    assert checked == 17 * 2 + 237 + 6
