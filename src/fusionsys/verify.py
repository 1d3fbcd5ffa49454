"""Property suites: one named check per structural fact, run over the
catalog.  The CLI ``verify`` command and the acceptance tests both drive
these functions."""

from __future__ import annotations

import itertools
import math
from collections import Counter, deque
from typing import Callable, Optional

from . import catalog
from .errors import (
    FusionError,
    GenerationMismatch,
    NotCommuting,
    NotFusionPreserving,
    NotNormal,
    NotSaturated,
    NotSubgroup,
    NotSummable,
    SuiteUnknown,
)
from .groups import (
    FiniteGroup,
    GroupHom,
    LatticeShape,
    MapTuple,
    Subgroup,
    SubgroupLattice,
    _closure_ids,
    all_homs,
    automorphism_chain,
    automorphisms,
    characteristic_subgroups,
    conjugate_masks,
    cycles_to_perm,
    direct_product,
    fitting_split,
    group_prime,
    injective_homs,
    is_prime,
    lattice_of,
    mask_of,
    members_of,
    omega_central_series,
    p_part,
    perm_compose,
    perm_inverse,
    quotient,
    stable_image_kernel,
    subgroups,
    sylow,
)
from .fusion import (
    FusionSystem,
    _invert_map,
    aut_table,
    center_of,
    centric_radical,
    close_maps,
    control_subgroup,
    focal_of,
    fusion_equal,
    fusion_of_group,
    generated_fusion,
    inner_fusion,
    is_central_subgroup,
    is_centric,
    is_radical,
    is_receptive,
    is_saturated,
    is_strongly_closed,
    op_is_trivial,
    restrict_full,
    saturation_report,
    saturation_scan,
    alperin_generators,
)
from .morphisms import (
    CommuteResult,
    FusionMorphism,
    Subsystem,
    _commute_elementwise,
    _commute_scan,
    _product_base,
    _push_every_map,
    _pushes_class_generators,
    _subsystem_scan,
    check_morphism,
    commute_check,
    image,
    is_product_decomposition,
    kernel,
    product,
    projections,
    subsystem_of,
    sum_morphisms,
    zero_morphism,
)
from .factor import (
    Factorization,
    NormalEndomorphism,
    OmegaContext,
    _admissible_splits,
    _automorphism_chain,
    _factorization,
    _proven_splits,
    _surjective_normal_criterion,
    aut_structure,
    factorize,
    factorize_all,
    fitting_factorize,
    fusion_automorphisms,
    fusion_endomorphisms,
    goldschmidt_factor,
    is_indecomposable,
    krs_certificate,
    normal_automorphisms,
    normal_complement,
    normal_end_properties,
    normal_endos,
    sum_if_composite_central,
)
from .records import Record


class CheckResult(Record):
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str) -> None:
        self.name = name
        self.passed = passed
        self.detail = detail


def _run(name: str, fn: Callable[[], str]) -> CheckResult:
    try:
        detail = fn()
        return CheckResult(name, True, detail or "ok")
    except AssertionError as exc:
        return CheckResult(name, False, f"assertion: {exc}")
    except Exception as exc:
        return CheckResult(name, False, f"{type(exc).__name__}: {exc}")


# ---------------------------------------------------------------------------
# shared constructions


def _fusion(name: str) -> FusionSystem:
    return catalog.built(name).fusion


def _group(name: str) -> FiniteGroup:
    return catalog.built(name).group


def product_oracle_pair(name1: str, name2: str):
    """Aligned ambient product and factor systems for the oracle."""
    b1, b2 = catalog.built(name1), catalog.built(name2)
    p = b1.entry.prime
    S1, S2 = sylow(b1.group, p), sylow(b2.group, p)
    dp = direct_product(b1.group, b2.group)
    n2 = b2.group.order
    members = [a * n2 + b for a in S1.members for b in S2.members]
    big = fusion_of_group(
        dp.product, p, Subgroup(dp.product, members, _checked=True)
    )
    F1 = fusion_of_group(b1.group, p, S1)
    F2 = fusion_of_group(b2.group, p, S2)
    return big, F1, F2


_ENDO_CACHE: dict[str, list[NormalEndomorphism]] = {}


def catalog_normal_endos(name: str) -> list[NormalEndomorphism]:
    if name not in _ENDO_CACHE:
        _ENDO_CACHE[name] = normal_endos(_fusion(name))
    return _ENDO_CACHE[name]


def fitting_candidates(
    G: FiniteGroup,
    images: tuple[int, ...],
    F: Optional[FusionSystem] = None,
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Brute-force oracle for stable/nil splittings: every pair (T, U) of
    subgroups with G the internal direct product of T and U, on which
    the endomorphism ``images`` is bijective on T and nilpotent on U.
    Given a fusion system ``F`` over ``G``, only pairs of strongly closed
    subgroups whose full subsystems factor ``F`` are kept."""
    subs = subgroups(G)
    out = []
    for i, Ti in enumerate(subs):
        ti = Ti.member_set
        if {images[x] for x in ti} != ti:
            continue
        for j, Uj in enumerate(subs):
            uj = Uj.member_set
            if Ti.order * Uj.order != G.order or (ti & uj) != {0}:
                continue
            if any(images[x] not in uj for x in uj):
                continue
            cur = set(uj)
            while True:
                nxt = {images[x] for x in cur}
                if nxt == cur:
                    break
                cur = nxt
            if cur != {0}:
                continue
            if not all(G.mul(a, b) == G.mul(b, a) for a in ti for b in uj):
                continue
            if F is not None and not (
                is_strongly_closed(F, i)
                and is_strongly_closed(F, j)
                and is_product_decomposition(
                    F, [subsystem_of(F, Ti), subsystem_of(F, Uj)]
                )
            ):
                continue
            out.append((Ti.members, Uj.members))
    return out


def axis_subsystems():
    """The three rank-one axis subsystems of the order-108 example.

    Both Sylow base groups consist of the same permutations in the same
    order (asserted), so subsystems can be tested in either ambient."""
    F = _fusion("sigma3-cubed-paired")
    Fbar = _fusion("sigma3-cubed-full")
    assert F.base.perms == Fbar.base.perms
    lines = []
    for sub in F.lattice.subs:
        if sub.order == 3:
            moved = set()
            for m in sub.members:
                perm = F.base.perms[m]
                moved |= {i for i, v in enumerate(perm) if v != i}
            if len(moved) == 3:
                lines.append(sub)
    assert len(lines) == 3, "expected exactly three axis lines"
    subs = [subsystem_of(F, T) for T in lines]
    return F, Fbar, subs


def relabelling(F: FusionSystem, sigma: tuple[int, ...]) -> tuple[FusionSystem, OmegaContext]:
    """``F`` with Omega generated by the relabelling ``sigma`` of the
    permutation points, acting on the base by conjugation."""
    G, sigma_inv = F.base, perm_inverse(sigma)
    index = {G.perms[x]: x for x in range(G.order)}
    images = tuple(
        index[tuple(sigma[G.perms[x][sigma_inv[pt]]] for pt in range(len(sigma)))]
        for x in range(G.order)
    )
    return F, OmegaContext.from_morphisms(F, [check_morphism(F, F, images)])


def equivariant_contexts() -> list[tuple[FusionSystem, OmegaContext]]:
    """The rank-three elementary abelian 2-group under the rotation of
    its three transposition blocks, C2 x C4 under inversion, the
    rank-three group again under the swap of its first two blocks, and
    sigma3-squared under the swap of its two Sigma3 factors, whose chain
    of Aut(S,F) is cut by F: levels of 4 and 2 maps (8 of the 48 maps of
    Aut(C3 x C3), whose chain has levels of 8 and 6)."""
    F8 = _fusion("inner-c2c2c2")
    FA = _fusion("inner-c2c4")
    inv = tuple(FA.base.inv(x) for x in range(8))
    return [
        relabelling(F8, (2, 3, 4, 5, 0, 1)),
        (FA, OmegaContext.from_morphisms(FA, [check_morphism(FA, FA, inv)])),
        relabelling(F8, (2, 3, 0, 1, 4, 5)),
        relabelling(_fusion("sigma3-squared"), (3, 4, 5, 0, 1, 2)),
    ]


def sl23_fusion() -> FusionSystem:
    """F_Q8(SL(2,3)), with SL(2,3) acting on the 8 nonzero vectors of
    F_3^2: Z(F) = <-1> and foc(F) = Q8, so the center clause of the
    surjective criterion holds on the 4 maps of Inn(Q8) and only the
    focal clause tells them from the identity."""
    vectors = [(a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)]

    def acting(m):
        return tuple(
            vectors.index(((m[0][0] * a + m[0][1] * b) % 3, (m[1][0] * a + m[1][1] * b) % 3))
            for a, b in vectors
        )

    G = FiniteGroup.from_permutations([acting([[1, 1], [0, 1]]), acting([[0, -1], [1, 0]])])
    assert G.order == 24
    return fusion_of_group(G, 2)


def affine_c7_fusion() -> FusionSystem:
    """F_S(S:C7) for S = C2^3: the affine group x -> ax + b of
    F_8 = F_2[w]/(w^3 + w + 1) with a in <w> (order 56), generated by
    x -> x + 1 and x -> wx on the 8 points.  The 7 involutions of S form
    one F-class, so the class labels admit all 168 maps of GL(3,2), but
    only the 21 of N(C7) = 7:3 preserve F: here the fusion test, not the
    labels, cuts Aut(S,F) out of the labelled search."""

    def times_w(x: int) -> int:
        return (x << 1) ^ 0b1011 if x & 0b100 else x << 1

    G = FiniteGroup.from_permutations(
        [tuple(x ^ 1 for x in range(8)), tuple(times_w(x) for x in range(8))], points=8
    )
    assert G.order == 56
    return fusion_of_group(G, 2)


# ---------------------------------------------------------------------------
# group-core suite


def inverse_battery() -> list[tuple[str, FiniteGroup]]:
    """The ``p2-lattice`` groups, each again as its dense table alone,
    and Alt(7), built afresh: beyond the catalog, both ways of
    ``FiniteGroup._build_inverses`` (inverting permutations, finding 0 in
    each dense row) at orders up to 2520."""
    groups = p2_groups()
    groups += [(f"{name}/dense", FiniteGroup(G._mul, G.generators)) for name, G in groups]
    return groups + [("alt7", alt7())]


def inverse_law_fails(G: FiniteGroup) -> Optional[int]:
    """The least x with x x^-1 != 1 or x^-1 x != 1, if any: O(|G|)."""
    return next(
        (x for x in range(G.order) if G.mul(x, G.inv(x)) != 0 or G.mul(G.inv(x), x) != 0),
        None,
    )


def check_group_axioms() -> str:
    """The exhaustive laws on every catalog group, and the inverse law on
    the larger groups of ``inverse_battery``."""
    count = 0
    for name in catalog.names():
        G = _group(name)
        if G.order <= 512:
            G.verify_axioms()
            count += 1
    assert count == len(catalog.names())
    battery = inverse_battery()
    for name, G in battery:
        x = inverse_law_fails(G)
        assert x is None, f"{name}: inverse law fails at element {x}"
    return f"exhaustive laws on {count} groups, the inverse law on {len(battery)} more"


def check_subgroup_lattice() -> str:
    small = ["sigma3", "inner-d8", "inner-c2c4", "inner-c2c2", "inner-c3c3", "sym4"]
    for name in small:
        G = _group(name)
        subs = subgroups(G)
        keys = {s.members for s in subs}
        for a in subs:
            for b in subs:
                inter = tuple(sorted(a.member_set & b.member_set))
                assert inter in keys, f"{name}: lattice not intersection-closed"
        p = catalog.entry(name).prime
        chars = characteristic_subgroups(G, p)
        assert chars.center.members in keys
        assert chars.derived.members in keys
        assert sylow(G, p).members in keys
    return f"intersection closure on {len(small)} lattices"


def check_subgroup_counts() -> str:
    assert len(subgroups(_group("inner-c3c3c3"))) == 28
    assert len(subgroups(_group("inner-d8"))) == 10
    assert len(subgroups(_group("inner-c2c2"))) == 5
    return "frozen counts 28/10/5"


def check_omega_series() -> str:
    checked = 0
    for name in ["inner-d8", "inner-c2c4", "inner-c3c3c3", "inner-d8-c2"]:
        S = _group(name)
        p = group_prime(S)
        series = omega_central_series(S)
        assert series.terms[0].order == 1
        assert series.terms[-1].order == S.order
        for i in range(1, len(series.terms)):
            prev = series.terms[i - 1]
            assert prev.issubset(series.terms[i])
            assert series.terms[i].is_normal()
            quo, label = quotient(S, prev)
            z = set(quo.center_members())
            omega1 = {q for q in z if quo.power(q, p) == 0}
            lifted = tuple(
                sorted(x for x in range(S.order) if label[x] in omega1)
            )
            assert lifted == series.terms[i].members, f"{name}: term {i}"
        checked += 1
    return f"series recomputed on {checked} p-groups"


def check_coprime_action() -> str:
    checked = 0
    for name in ["inner-d8", "inner-c2c4", "inner-c3c3"]:
        S = _group(name)
        p = group_prime(S)
        series = omega_central_series(S).terms
        for h in automorphisms(S):
            order = 1
            cur = h.images
            ident = tuple(range(S.order))
            while cur != ident:
                cur = tuple(h.images[v] for v in cur)
                order += 1
            if order % p == 0:
                continue
            stable = True
            for i in range(1, len(series)):
                prev = series[i - 1].member_set
                if any(
                    S.mul(S.inv(x), h.images[x]) not in prev
                    for x in series[i].members
                ):
                    stable = False
                    break
            if stable:
                assert h.images == ident, f"{name}: nontrivial stable coprime action"
            checked += 1
    return f"{checked} automorphisms filtered"


def check_fitting_split() -> str:
    cases = 0
    for name in ["inner-c2c4", "inner-c3c3", "inner-c2c2"]:
        A = _group(name)
        full = A.full_subgroup()
        for h in all_homs(full, full):
            T, U = fitting_split(A, h)
            assert T.order * U.order == A.order
            assert (T.member_set & U.member_set) == {0}
            assert {h.map(x) for x in T.members} == T.member_set
            cur = set(U.members)
            while True:
                nxt = {h.map(x) for x in cur}
                if nxt == cur:
                    break
                cur = nxt
            assert cur == {0}
            assert fitting_candidates(A, h.images) == [(T.members, U.members)], (
                f"{name}: split not unique"
            )
            cases += 1
    return f"{cases} endomorphisms split and unique"


def enumerate_subgroups_plain(G: FiniteGroup) -> list[tuple[int, ...]]:
    """The slow twin of ``groups.enumerate_subgroups``: each subgroup is
    extended by every element outside it, one closure per element."""
    trivial = (0,)
    found: dict[tuple[int, ...], tuple[int, ...]] = {trivial: ()}
    frontier = [(trivial, ())]
    while frontier:
        nxt = []
        for members, gens in frontier:
            member_set = set(members)
            for x in range(1, G.order):
                if x in member_set:
                    continue
                new_gens = gens + (x,)
                closed = _closure_ids(G, new_gens)
                if closed not in found:
                    found[closed] = new_gens
                    nxt.append((closed, new_gens))
        frontier = nxt
    return sorted(found, key=lambda m: (len(m), m))


def dense_table_plain(G: FiniteGroup) -> list[list[int]]:
    """The slow twin of the dense table of ``from_permutations``: every
    product composed as permutations and looked up."""
    index = {p: i for i, p in enumerate(G.perms)}
    return [[index[perm_compose(a, b)] for b in G.perms] for a in G.perms]


def check_cayley_tables() -> str:
    """The dense tables that ``from_permutations`` fills from its BFS tree
    equal the tables composed product by product.  The groups are built
    afresh, so no cached group can hide a fault."""
    count = 0
    for name in catalog.names():
        e = catalog.entry(name)
        G = FiniteGroup.from_permutations(e.permutations(), points=e.points)
        assert G._mul == dense_table_plain(G), f"{name}: dense table differs"
        count += 1
    return f"{count} dense tables equal composing every product"


def containment_plain(G: FiniteGroup) -> list[tuple[int, ...]]:
    """The slow twin of the maximal-subgroup table of a p-group's
    ``LatticeShape``: every pair of subgroups compared."""
    member_sets = [frozenset(s.members) for s in subgroups(G)]
    maximal: list[tuple[int, ...]] = []
    for whole in member_sets:
        proper = [j for j, part in enumerate(member_sets) if part < whole]
        tops = [
            j
            for j in proper
            if not any(member_sets[j] < member_sets[l] for l in proper)
        ]
        maximal.append(tuple(tops))
    return maximal


def check_containment() -> str:
    """The maximal subgroups of every catalog base group and every small
    base, read off the subgroups of index p, equal the pairwise loop.  A
    fresh shape is built each time, so no cached table can hide a fault."""
    groups = [(name, _fusion(name).base) for name in catalog.names()]
    groups += list(small_base_groups().items())
    for name, G in groups:
        subgroups(G)
        fresh = LatticeShape(dict(zip(G._shape.members, G._shape.gens)))
        assert fresh.maximal_of() == containment_plain(G), (
            f"{name}: maximal subgroups differ from the pairwise loop"
        )
    return f"maximal subgroups of {len(groups)} p-group lattices equal the pairwise loop"


def o_p_prime_plain(G: FiniteGroup, p: int) -> tuple[int, ...]:
    """The slow twin of the O_p'(G) of ``groups.characteristic_subgroups``:
    the largest normal p'-member of ``subgroups(G)``."""
    coprime = [s for s in subgroups(G) if s.order % p and s.is_normal()]
    return max(coprime, key=lambda s: s.order).members


def check_o_p_prime() -> str:
    """O_p'(G) joined from the p'-closures of conjugacy classes equals the
    largest normal p'-subgroup of the lattice, on every catalog group of
    order at most 108 and every small base, at p = 2, 3 and 5."""
    groups = [(name, _group(name)) for name in catalog.names()]
    groups = [(name, G) for name, G in groups if G.order <= 108]
    groups += list(small_base_groups().items())
    for name, G in groups:
        for p in (2, 3, 5):
            fast = characteristic_subgroups(G, p).o_p_prime.members
            assert fast == o_p_prime_plain(G, p), (
                f"{name}: O_{p}' differs from the normal-subgroup scan"
            )
    return f"O_p' of {len(groups)} groups at p = 2, 3, 5 equals the normal-subgroup scan"


def derived_plain(G: FiniteGroup) -> tuple[int, ...]:
    """The slow twin of the derived subgroup of ``characteristic_subgroups``:
    the closure of the commutators of every pair of elements."""
    pairs = itertools.product(range(G.order), repeat=2)
    return G.generated_subgroup(G.mul(G.mul(x, y), G.inv(G.mul(y, x))) for x, y in pairs).members


def check_derived_subgroup() -> str:
    """G' from the commutators of the generators equals the closure of all
    commutators, on every catalog group and small base."""
    groups = [(n, _group(n)) for n in catalog.names()] + list(small_base_groups().items())
    for name, G in groups:
        assert characteristic_subgroups(G, 2).derived.members == derived_plain(G), (
            f"{name}: derived subgroup differs"
        )
    return f"derived subgroups of {len(groups)} groups equal the all-pairs closure"


def sylow_plain(G: FiniteGroup, p: int) -> Subgroup:
    """The slow twin of the least-conjugate step of ``groups.sylow``: the
    least member tuple among the conjugates of its answer by every
    element of G.  Every Sylow p-subgroup is one of them."""
    S = sylow(G, p)
    least = min(tuple(sorted(G.conj_row(g, S.members))) for g in range(G.order))
    return Subgroup(G, least)


def conjugate_masks_plain(G: FiniteGroup, members: tuple[int, ...]) -> set[int]:
    """The slow twin of ``groups.conjugate_masks``: the conjugates of the
    subgroup by every element of G, as masks."""
    return {mask_of(G.conj_row(g, members)) for g in range(G.order)}


def alt7() -> FiniteGroup:
    """Alt(7), of order 2520: above the dense-table limit, so it
    multiplies by permutations."""
    return FiniteGroup.from_permutations(
        [cycles_to_perm(c, 7) for c in ([[1, 2, 3]], [[3, 4, 5, 6, 7]])], points=7
    )


def check_sylow_least_conjugate() -> str:
    """``sylow``, which conjugates by one element of each coset of
    N_G(S), returns the least Sylow p-subgroup that conjugating by every
    element finds, on every catalog group, the three ``p2-lattice``
    groups and Alt(7), at every prime dividing the order.  The walk of
    one element per coset, ``conjugate_masks``, finds each conjugate of
    S once."""
    groups = [(name, _group(name)) for name in catalog.names()]
    groups += p2_groups() + [("alt7", alt7())]
    pairs = 0
    for name, G in groups:
        for p in (q for q in range(2, G.order + 1) if G.order % q == 0 and is_prime(q)):
            S = sylow(G, p)
            assert S.order == p_part(G.order, p), f"{name}: Sylow {p}-subgroup of wrong order"
            assert S == sylow_plain(G, p), (
                f"{name}: Sylow {p}-subgroup is not the least conjugate"
            )
            walk = conjugate_masks(G, S.members, S.generating_sequence())
            every = conjugate_masks_plain(G, S.members)
            assert len(walk) == len(every) and set(walk) == every, (
                f"{name}: the coset walk misses or repeats a conjugate of the Sylow {p}-subgroup"
            )
            pairs += 1
    return f"Sylow subgroups of {len(groups)} groups at {pairs} primes equal the least conjugate"


GROUP_CORE_CHECKS = [
    ("group-axioms", check_group_axioms),
    ("cayley-tables", check_cayley_tables),
    ("containment", check_containment),
    ("subgroup-lattice", check_subgroup_lattice),
    ("subgroup-counts", check_subgroup_counts),
    ("omega-series", check_omega_series),
    ("coprime-action-trivial", check_coprime_action),
    ("fitting-split", check_fitting_split),
    ("o-p-prime", check_o_p_prime),
    ("derived-subgroup", check_derived_subgroup),
    ("sylow-least-conjugate", check_sylow_least_conjugate),
]


# ---------------------------------------------------------------------------
# fusion-core suite


def check_saturation_battery() -> str:
    count = 0
    for name in catalog.SATURATION_BATTERY:
        assert saturation_report(_fusion(name)).verdict, f"{name} not saturated"
        count += 1
    assert count >= 8
    return f"{count} group fusion systems saturated"


def center_plain(F: FusionSystem) -> Subgroup:
    """The slow twin of ``center_of``: the join of every subgroup of Z(S)
    that passes the extension test."""
    G = F.base
    z_s = set(G.center_members())
    members: set[int] = {0}
    for i, sub in enumerate(F.lattice.subs):
        if sub.member_set <= z_s and is_central_subgroup(F, i):
            members |= sub.member_set
    return G.generated_subgroup(members)


# Small bases for generated systems, saturated or not, shared with the
# closure property tests: (generator cycles, points).
SMALL_BASES = {
    "c4": ([[[1, 2, 3, 4]]], 4),
    "v4": ([[[1, 2]], [[3, 4]]], 4),
    "d8": ([[[1, 2, 3, 4]], [[1, 3]]], 4),
    "c9": ([[[1, 2, 3, 4, 5, 6, 7, 8, 9]]], 9),
    "c3c3": ([[[1, 2, 3]], [[4, 5, 6]]], 6),
    "c2c4": ([[[1, 2]], [[3, 4, 5, 6]]], 6),
}


# D8 x D8, Sym4 x Sym4 and C2^5 at p = 2, the groups of the p2-lattice
# benchmark workload: lattices of 374 to 389 subgroups.
P2_GROUPS = {
    "d8xd8": ([[[1, 2, 3, 4]], [[1, 3]], [[5, 6, 7, 8]], [[5, 7]]], 8),
    "sym4xsym4": ([[[1, 2]], [[1, 2, 3, 4]], [[5, 6]], [[5, 6, 7, 8]]], 8),
    "c2^5": ([[[1, 2]], [[3, 4]], [[5, 6]], [[7, 8]], [[9, 10]]], 10),
}


def p2_groups() -> list[tuple[str, FiniteGroup]]:
    """The groups of ``P2_GROUPS``, built afresh."""
    return [
        (name, FiniteGroup.from_permutations(
            [cycles_to_perm(c, points) for c in cycles], points=points
        ))
        for name, (cycles, points) in P2_GROUPS.items()
    ]


def small_base_groups() -> dict[str, FiniteGroup]:
    """The group of each small base, built afresh."""
    return {
        base: FiniteGroup.from_permutations(
            [cycles_to_perm(c, points) for c in gens], points=points
        )
        for base, (gens, points) in SMALL_BASES.items()
    }


def one_isomorphism_seeds() -> list[tuple[str, FiniteGroup, GroupHom]]:
    """Every isomorphism between nontrivial subgroups of a small base
    (196 of them), with a label."""
    out = []
    for base, G in small_base_groups().items():
        subs = subgroups(G)
        for P, Q in itertools.product(subs, repeat=2):
            if 1 < P.order == Q.order:
                for h in injective_homs(P, Q):
                    out.append((f"{base}:{P.members}->{h.images}", G, h))
    return out


def unsaturated_battery() -> list[tuple[str, FusionSystem]]:
    """Every system generated over a small base by one isomorphism
    between nontrivial subgroups that is not saturated (115 systems).
    It holds V4 with <(1 2)> -> <(3 4)>, where <Fix> = <(1 2)(3 4)> is
    not central and Z(F) = 1."""
    out = []
    for label, G, h in one_isomorphism_seeds():
        F = generated_fusion(G, [h])
        if not is_saturated(F):
            out.append((label, F))
    return out


def check_center_fixed_points() -> str:
    """``center_of`` against its twin on every catalog system, on a fresh
    copy (the extension test), on a copy with its saturation verdict
    cached and on the system ``fusion_of_group`` builds afresh (the
    saturated shortcut), where it also equals the fixed points of Z(S);
    and on the battery of systems that are not saturated."""
    for name in catalog.names():
        F = _fusion(name)
        z = center_of(FusionSystem(F.base, F.p, F.maps))
        assert z == center_plain(F), f"{name}: center differs from the extension loop"
        known = FusionSystem(F.base, F.p, F.maps)
        if saturation_report(known).verdict:
            assert center_of(known) == z, (
                f"{name}: saturated center differs from the extension loop"
            )
        b = catalog.built(name)
        assert center_of(fusion_of_group(b.group, b.entry.prime)) == z, (
            f"{name}: center of the group's system differs from the extension loop"
        )
        fixed = {
            x
            for x in F.base.center_members()
            if F.element_class_of(x) == (x,)
        }
        assert z.member_set == fixed, f"{name}: center mismatch"
    battery = dict(unsaturated_battery())
    for label, F in battery.items():
        assert center_of(F) == center_plain(F), (
            f"{label}: center differs from the extension loop"
        )
    assert center_plain(battery["v4:(0, 1)->(0, 2)"]).order == 1
    return (
        f"center equals the extension loop and the fused-fixed elements on "
        f"the catalog, and the extension loop on {len(battery)} unsaturated systems"
    )


def check_strongly_closed_bounds() -> str:
    for name in catalog.names():
        F = _fusion(name)
        z = center_of(F)
        foc = focal_of(F)
        for i, sub in enumerate(F.lattice.subs):
            if sub.member_set <= z.member_set:
                assert is_strongly_closed(F, i), f"{name}: central not closed"
            if foc.member_set <= sub.member_set:
                assert is_strongly_closed(F, i), f"{name}: focal-over not closed"
    return "subgroups under the center and over the focal subgroup are closed"


def check_restriction_saturated() -> str:
    cases = 0
    for name in catalog.names():
        F = _fusion(name)
        G = F.base
        for i, T in enumerate(F.lattice.subs):
            if not (1 < T.order < G.order):
                continue
            if not is_strongly_closed(F, i):
                continue
            cent = T.centralizer_in()
            covered = {G.mul(t, c) for t in T.members for c in cent.members}
            if len(covered) != G.order:
                continue
            assert saturation_report(restrict_full(F, T)).verdict, (
                f"{name}: restriction to {T.members} not saturated"
            )
            cases += 1
    assert cases >= 3
    return f"{cases} strongly closed full restrictions saturated"


def check_centric_radical_split() -> str:
    cases = 0
    for name in ["sigma3-squared", "dihedral18-sigma3", "sym4-c2", "inner-d8-c2"]:
        F = _fusion(name)
        fact = factorize(F)
        if len(fact.parts) < 2:
            continue
        t1 = fact.parts[0].base.member_set
        t2 = set()
        G = F.base
        for part in fact.parts[1:]:
            t2 |= part.base.member_set
        T2 = G.generated_subgroup(t2)
        for i in range(len(F.lattice.subs)):
            if is_centric(F, i) and is_radical(F, i):
                P = F.lattice.subs[i]
                inter1 = P.member_set & t1
                inter2 = P.member_set & T2.member_set
                prod = {G.mul(a, b2) for a in inter1 for b2 in inter2}
                assert prod == P.member_set, f"{name}: centric-radical not split"
                cases += 1
    assert cases >= 3
    return f"{cases} centric-radical subgroups split across factors"


def check_table_closure() -> str:
    """``validate_closure`` applies the full composition rule, so it is
    an exact twin of ``close_maps``, which closes class by class.
    Besides catalog tables it checks ``close_maps`` outputs from seeds
    that are not closed."""
    for name in ["sigma3", "inner-d8", "sym4", "sigma3-cubed-paired", "inner-c2c4"]:
        _fusion(name).validate_closure()
    generated = 0
    tables = set()
    for name in catalog.names():
        S = _fusion(name).base
        table = tuple(tuple(S.mul(a, b) for b in range(S.order)) for a in range(S.order))
        if table in tables:  # close_maps sees only the table and the seeds
            continue
        tables.add(table)
        inner = {tuple(S.conj(s, x) for x in range(S.order)) for s in range(S.order)}
        auts = automorphisms(S)
        seeds = [[next((a for a in auts if a.images not in inner), auts[0])]]
        # automorphisms of S close under composition through restriction
        # alone; isomorphisms between maximal subgroups need composition
        maximal = [sub for sub in subgroups(S) if sub.order * group_prime(S) == S.order]
        for Q in maximal[1:]:
            isos = injective_homs(maximal[0], Q)
            seeds += [[isos[-1]]] if isos else []
        for gens in seeds:
            generated_fusion(S, gens).validate_closure()
            generated += 1
    inner_systems = 0
    for name in catalog.MULTI_FACTOR:
        F = _fusion(name)
        parts = list(factorize(F).parts)
        for k in range(2, len(parts) + 1):
            for family in itertools.combinations(parts, k):
                commute_check(F, list(family)).inner.validate_closure()
                inner_systems += 1
    return (
        f"catalog tables, {generated} generated systems and {inner_systems} "
        "commuting inner systems closed under restriction/composition/inversion"
    )


def gl32_fusion() -> FusionSystem:
    """The 2-fusion of GL(3,2) = PSL(2,7) on 7 points (order 168, Sylow
    D8, 44 morphisms).  Its two Klein four-groups are centric-radical, and
    their outer involutions are fused only by composites through the
    central involution, so regenerating its table needs composition
    (the exact-image joins of ``close_maps_plain``); the catalog tables
    regenerate without it."""
    G = FiniteGroup.from_permutations(
        [cycles_to_perm(c, 7) for c in ([[1, 2, 3, 4, 5, 6, 7]], [[1, 2], [3, 6]])],
        points=7,
    )
    F = fusion_of_group(G, 2)
    assert (G.order, F.base.order, F.morphism_count()) == (168, 8, 44)
    return F


def regenerate_from_alperin(F: FusionSystem) -> list[tuple[Subgroup, list[GroupHom]]]:
    """``alperin_generators(F)``, after checking Alperin's fusion theorem
    on ``F``: closing the centric-radical automorphisms gives the table
    back, or ``GenerationMismatch`` is raised."""
    gens = alperin_generators(F)
    seeds = [(F.index_of(sub.members), h.images) for sub, homs in gens for h in homs]
    regenerated = close_maps(F.base, seeds)
    if [frozenset(s) for s in regenerated] != list(F.map_sets):
        raise GenerationMismatch(
            "centric-radical automorphisms do not regenerate the table"
        )
    return gens


def check_alperin_generation() -> str:
    systems = [
        _fusion(name)
        for name in ["sigma3", "inner-d8", "sym4", "alt4", "sigma3-cubed-paired",
                     "inner-c2c4", "sigma3-squared", "dihedral18"]
    ]
    systems.append(gl32_fusion())
    for F in systems:
        regenerate_from_alperin(F)
    return f"{len(systems)} systems regenerated from centric-radical automorphisms"


def _control_subgroup_twin(
    F: FusionSystem, q_idx: int, phi: tuple[int, ...], p_idx: int
) -> Subgroup:
    """N_phi from ``normalizer_in`` and direct conjugation, closed by
    ``Subgroup``: the slow twin of ``control_subgroup``."""
    G = F.base
    Q = F.lattice.subs[q_idx]
    P = F.lattice.subs[p_idx]
    aut_s_p = {
        tuple(G.conj(g, x) for x in P.members) for g in P.normalizer_in().members
    }
    back = {v: Q.members[t] for t, v in enumerate(phi)}
    members = [
        g
        for g in Q.normalizer_in().members
        if tuple(phi[Q.pos(G.conj(g, back[y]))] for y in P.members) in aut_s_p
    ]
    return Subgroup(G, members)


def check_conjugation_tables() -> str:
    """The conjugation tables of each lattice agree with ``normalizer_in``,
    ``centralizer_in`` and directly conjugated maps; between members of
    a subgroup class, on every isomorphism ``is_conjugation`` agrees with
    the maps that the elements conjugating one into the other give, and
    ``control_subgroup`` with its twin."""
    subs = controls = 0
    for name in catalog.names():
        F = _fusion(name)
        G, lat = F.base, F.lattice
        for i, sub in enumerate(lat.subs):
            norm = sub.normalizer_in()
            assert lat.normalizer(i) == norm.members, (
                f"{name}: normalizer table of {sub.members} disagrees"
            )
            assert lat.centralizer(i) == sub.centralizer_in().members, (
                f"{name}: centralizer table of {sub.members} disagrees"
            )
            direct = {tuple(G.conj(g, x) for x in sub.members) for g in norm.members}
            assert lat.aut_s(i) == direct, (
                f"{name}: Aut_S table of {sub.members} disagrees"
            )
            subs += 1
        for cls in F.subgroup_classes():
            for p_idx, q_idx in itertools.product(cls, repeat=2):
                P, Q = lat.subs[p_idx], lat.subs[q_idx]
                into = [
                    g for g in range(G.order)
                    if all(G.conj(g, x) in P.member_set for x in Q.members)
                ]
                conjugations = {tuple(G.conj(g, x) for x in Q.members) for g in into}
                for phi in F.iso_maps(q_idx, p_idx):
                    assert lat.is_conjugation(q_idx, phi) == (phi in conjugations), (
                        f"{name}: is_conjugation of {phi} disagrees"
                    )
                    assert control_subgroup(F, q_idx, phi, p_idx) == (
                        _control_subgroup_twin(F, q_idx, phi, p_idx)
                    ), f"{name}: control subgroup of {phi} disagrees"
                    controls += 1
    return (
        f"{subs} subgroups, and the S-conjugation tests and control subgroups "
        f"of {controls} isomorphisms, agree with direct conjugation"
    )


def coset_rows_plain(
    F: FusionSystem, i: int
) -> tuple[tuple[MapTuple, tuple[int, ...]], ...]:
    """The slow twin of ``SubgroupLattice.coset_rows``, with each coset
    as a member tuple: the cosets g C_S(P_i) multiplied out through
    ``FiniteGroup.mul`` and sorted, in the order of their least element."""
    lat = F.lattice
    G = F.base
    members = lat.subs[i].members
    centralizer = lat.centralizer(i)
    rows = []
    done: set[int] = set()
    for g in lat.normalizer(i):
        if g not in done:
            coset = sorted(G.mul(g, c) for c in centralizer)
            done.update(coset)
            rows.append((tuple(G.conj(g, x) for x in members), tuple(coset)))
    return tuple(rows)


def check_coset_rows() -> str:
    """The coset rows of every catalog lattice, whose cosets are read off
    the transporter table as masks, equal the cosets multiplied out and
    sorted.  Fresh lattices are built, so no cached row can hide a
    fault."""
    count = 0
    for name in catalog.names():
        F = _fusion(name)
        lat = SubgroupLattice(F.base)
        for i in range(len(lat.subs)):
            fast = tuple((row, members_of(mask)) for row, mask in lat.coset_rows(i))
            assert fast == coset_rows_plain(F, i), (
                f"{name}: coset rows of {lat.subs[i].members} differ from the plain cosets"
            )
            count += len(fast)
    return f"{count} coset rows equal the cosets multiplied out"


def element_classes_plain(F: FusionSystem) -> tuple[tuple[int, ...], ...]:
    """The slow twin of ``FusionSystem.element_classes``: x is joined
    with phi(x) for every map phi of the table and every x in its
    domain."""
    n = F.base.order
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    for i, ms in enumerate(F.maps):
        members = F.lattice.subs[i].members
        for m in ms:
            for x, y in zip(members, m):
                rx, ry = find(x), find(y)
                if rx != ry:
                    parent[max(rx, ry)] = min(rx, ry)
    buckets: dict[int, list[int]] = {}
    for x in range(n):
        buckets.setdefault(find(x), []).append(x)
    return tuple(tuple(v) for _, v in sorted(buckets.items()))


def check_element_classes() -> str:
    """``element_classes``, which joins each x only along the maps on
    <x>, equals the join along every map on every catalog system, every
    table of the closure battery and a product system.  Fresh systems
    are built, so no cached class can hide a fault."""
    systems = [(name, _fusion(name)) for name in catalog.names()]
    for label, base, seeds in closure_battery():
        systems.append((label, FusionSystem(base, group_prime(base), close_maps(base, seeds))))
    systems.append(("sym4 x alt4", product([_fusion("sym4"), _fusion("alt4")]).product))
    for label, F in systems:
        fresh = FusionSystem(F.base, F.p, F.maps)
        assert fresh.element_classes() == element_classes_plain(F), (
            f"{label}: element classes differ from the join along every map"
        )
    return f"element classes of {len(systems)} systems equal the join along every map"


def fusion_table_plain(G: FiniteGroup, p: int) -> list[set[MapTuple]]:
    """The slow twin of ``fusion_of_group``: the maps of conjugation by
    every element of G, one pass per element."""
    S = sylow(G, p)
    SG, to_parent = S.as_group()
    from_parent = {pid: i for i, pid in enumerate(to_parent)}
    lat = lattice_of(SG)
    maps: list[set[MapTuple]] = [set() for _ in lat.subs]
    s_set = S.member_set
    for g in range(G.order):
        conj = [G.conj(g, pid) for pid in to_parent]
        inside = [c in s_set for c in conj]
        translated = [from_parent[c] if ok else -1 for c, ok in zip(conj, inside)]
        for i, sub in enumerate(lat.subs):
            if all(inside[m] for m in sub.members):
                maps[i].add(tuple(translated[m] for m in sub.members))
    return maps


def check_conjugation_rows() -> str:
    """``fusion_of_group``, which keeps one conjugation row per coset of
    C_G(S) and builds one map per coset of C_G(P) among those rows,
    gives the table of the pass over every element."""
    count = 0
    for name in catalog.names():
        b = catalog.built(name)
        F = fusion_of_group(b.group, b.entry.prime)
        plain = fusion_table_plain(b.group, b.entry.prime)
        assert list(F.map_sets) == [frozenset(ms) for ms in plain], (
            f"{name}: fusion table differs from the pass over every element"
        )
        count += F.morphism_count()
    return f"{count} morphisms equal the pass over every element"


def close_maps_plain(
    base: FiniteGroup, seeds: list[tuple[int, MapTuple]]
) -> list[set[MapTuple]]:
    """The slow twin of ``close_maps``: the elementwise worklist.  Every
    stored map is inverted, restricted to its maximal subgroups and
    composed with the stored maps onto exactly its domain and on exactly
    its image."""
    lat = lattice_of(base)
    store: list[set[MapTuple]] = [set() for _ in lat.subs]
    by_image: list[list[tuple[int, MapTuple]]] = [[] for _ in lat.subs]
    queue: deque[tuple[int, MapTuple]] = deque(
        (lat.full_index, tuple(row)) for row in lat.conj_table()
    )
    queue.extend(seeds)
    while queue:
        d, m = queue.popleft()
        if m in store[d]:
            continue
        store[d].add(m)
        members = lat.subs[d].members
        pos = lat.pos[d]
        image = tuple(sorted(m))
        j = lat.idx[image]
        by_image[j].append((d, m))
        queue.append((j, _invert_map(m, members, image)))
        for e in lat.maximal_of[d]:
            queue.append((e, tuple(m[pos[x]] for x in lat.subs[e].members)))
        for (d2, t2) in by_image[d]:
            queue.append((d2, tuple(m[pos[v]] for v in t2)))
        pos_j = lat.pos[j]
        for t3 in store[j]:
            queue.append((d, tuple(t3[pos_j[v]] for v in m)))
    return store


def centric_radical_seeds(F: FusionSystem) -> list[tuple[int, MapTuple]]:
    """The automorphisms of the centric-radical subgroups, the seeds of
    ``alperin_generators``."""
    return [
        (i, m)
        for i in range(len(F.lattice.subs))
        if is_centric(F, i) and is_radical(F, i)
        for m in F.aut_maps(i)
    ]


def closure_battery() -> list[tuple[str, FiniteGroup, list[tuple[int, MapTuple]]]]:
    """Each catalog base with its full table, with its centric-radical
    automorphisms and with no seeds; the centric-radical automorphisms
    of GL(3,2); each one-isomorphism system over a small base; and, over
    each small base and each pair of distinct subgroups P, Q of one
    order, every automorphism of Q and then one isomorphism P -> Q.  In
    the last family the automorphisms of P come only from conjugating
    those of Q at the merge of the two classes."""
    out = []
    for name in catalog.names():
        F = _fusion(name)
        full = [(i, m) for i, ms in enumerate(F.maps) for m in ms]
        out.append((f"{name}/full", F.base, full))
        out.append((f"{name}/centric-radical", F.base, centric_radical_seeds(F)))
        out.append((f"{name}/inner", F.base, []))
    gl32 = gl32_fusion()
    out.append(("gl32/centric-radical", gl32.base, centric_radical_seeds(gl32)))
    for label, G, h in one_isomorphism_seeds():
        seeds = [(lattice_of(G).index_of(h.domain.members), h.images)]
        out.append((label, G, seeds))
    for base, G in small_base_groups().items():
        lat = lattice_of(G)
        for P, Q in itertools.product(lat.subs, repeat=2):
            isos = injective_homs(P, Q) if 1 < P.order == Q.order and P != Q else []
            if isos:
                q_idx = lat.index_of(Q.members)
                seeds = [(q_idx, a.images) for a in injective_homs(Q, Q)]
                seeds.append((lat.index_of(P.members), isos[0].images))
                out.append((f"{base}:Aut{Q.members}+{P.members}->{Q.members}", G, seeds))
    return out


def check_class_closure() -> str:
    """``close_maps``, which closes the table class by class, gives the
    sets of the elementwise worklist on the whole battery."""
    battery = closure_battery()
    for label, base, seeds in battery:
        assert close_maps(base, seeds) == close_maps_plain(base, seeds), (
            f"{label}: class-by-class closure differs from the worklist"
        )
    return f"{len(battery)} closures equal the elementwise worklist"


def is_receptive_plain(
    F: FusionSystem, i: int
) -> tuple[bool, Optional[MapTuple], Optional[int], Optional[Subgroup]]:
    """The slow twin of ``is_receptive``: every isomorphism onto P_i from
    its class is tested."""
    lat = F.lattice
    for q_idx in F.subgroup_class_of(i):
        Q = lat.subs[q_idx]
        for phi in F.iso_maps(q_idx, i):
            n_phi = control_subgroup(F, q_idx, phi, i)
            n_idx = n_phi.canonical_index
            pos_q = [lat.pos[n_idx][x] for x in Q.members]
            extended = any(
                all(psi[t] == phi[s] for s, t in enumerate(pos_q))
                for psi in F.maps[n_idx]
            )
            if not extended:
                return False, phi, q_idx, n_phi
    return True, None, None, None


def aut_table_plain(F: FusionSystem, i: int) -> tuple[list[MapTuple], list[list[int]]]:
    """The slow twin of ``aut_table``: every product a o b of Aut_F(P_i)
    composed elementwise and looked up."""
    members = F.lattice.subs[i].members
    pos = F.lattice.pos[i]
    elems = [members] + [a for a in sorted(F.aut_maps(i)) if a != members]
    idx = {m: t for t, m in enumerate(elems)}
    return elems, [[idx[tuple(a[pos[v]] for v in b)] for b in elems] for a in elems]


def is_radical_plain(F: FusionSystem, i: int) -> bool:
    """The slow twin of ``is_radical``: O_p of Out_F(P_i), the quotient
    of the elementwise table of Aut_F(P_i) by Inn(P_i)."""
    elems, rows = aut_table_plain(F, i)
    A = FiniteGroup.from_cayley(rows)
    members = F.lattice.subs[i].members
    inner = sorted({elems.index(tuple(F.base.conj(x, y) for y in members)) for x in members})
    return op_is_trivial(quotient(A, Subgroup(A, inner, _checked=True))[0], F.p)


def orbit_battery() -> list[tuple[str, FusionSystem]]:
    """The catalog systems, the unsaturated battery and GL(3,2)."""
    systems = [(name, _fusion(name)) for name in catalog.names()]
    systems += unsaturated_battery()
    systems.append(("gl32", gl32_fusion()))
    return systems


def check_receptive_representatives() -> str:
    """``is_receptive``, which skips the S-conjugations, returns what the
    test of every isomorphism returns, witnesses included, on every
    subgroup; the saturation reports agree too."""
    systems = orbit_battery()
    subs = unsaturated = 0
    for label, F in systems:
        for i in range(len(F.lattice.subs)):
            got = is_receptive(F, i)
            assert got == is_receptive_plain(F, i), (
                f"{label}: receptivity of subgroup {i} differs from the plain loop"
            )
            subs += 1
        report = saturation_report(FusionSystem(F.base, F.p, F.maps))
        assert report == saturation_scan(F, is_receptive_plain), (
            f"{label}: saturation report differs from the plain loop"
        )
        unsaturated += not report.verdict
    return (
        f"{subs} subgroups and {len(systems)} saturation reports "
        f"({unsaturated} with failure witnesses) equal the plain loop"
    )


def check_automizers() -> str:
    """Aut_S(P) lies in Aut_F(P), and so |Aut_S(P)| divides |Aut_F(P)|,
    on every subgroup of every system of the orbit battery: the index
    that ``is_fully_automized`` reads off the two orders is whole."""
    systems = orbit_battery()
    subs = 0
    for label, F in systems:
        for i in range(len(F.lattice.subs)):
            aut_f, aut_s = F.aut_maps(i), F.lattice.aut_s(i)
            assert aut_s <= set(aut_f), (
                f"{label}: inner automorphisms of subgroup {i} missing from the table"
            )
            assert len(aut_f) % len(aut_s) == 0, (
                f"{label}: Lagrange failure in the automorphism groups of subgroup {i}"
            )
            subs += 1
    return f"{subs} subgroups of {len(systems)} systems: Aut_S(P) is a subgroup of Aut_F(P)"


def check_radical_by_order() -> str:
    """The table of Aut_F(P) that ``aut_table`` reads column by column
    equals the table composed product by product, on every subgroup (a
    transposed table gives the opposite group, which has the same O_p,
    so radicality alone cannot tell); ``is_radical``, which reads most
    answers off |Out_F(P)|, agrees with O_p of Out_F(P) built from that
    table; and ``centric_radical``, which tests one member of each
    F-class, lists the subgroups that the tests of every subgroup find,
    on a fresh copy of each system."""
    systems = orbit_battery()
    subs = 0
    for label, F in systems:
        every = range(len(F.lattice.subs))
        for i in every:
            assert aut_table(F, i) == aut_table_plain(F, i), (
                f"{label}: Aut_F table of subgroup {i} differs from composing every product"
            )
        radical = tuple(i for i in every if is_radical_plain(F, i))
        assert tuple(i for i in every if is_radical(F, i)) == radical, (
            f"{label}: radicality differs from the Out_F table"
        )
        centric = tuple(i for i in every if is_centric(F, i))
        fresh = FusionSystem(F.base, F.p, F.maps)
        assert centric_radical(fresh) == (centric, radical), (
            f"{label}: centric-radical lists differ from the test of every subgroup"
        )
        subs += len(every)
    return (
        f"{subs} subgroups of {len(systems)} systems: the Aut_F tables and "
        f"radicality equal the elementwise Out_F table, and the lists by class "
        f"equal the test of every subgroup"
    )


def provenance_systems() -> list[tuple[str, FusionSystem]]:
    """Every system of the orbit battery that ``fusion_of_group`` builds
    (the catalog and GL(3,2)) and the systems of the three
    ``p2-lattice`` groups, each built afresh."""
    systems = [
        (name, fusion_of_group(b.group, b.entry.prime))
        for name in catalog.names()
        for b in [catalog.built(name)]
    ]
    systems.append(("gl32", gl32_fusion()))
    systems += [(name, fusion_of_group(G, 2)) for name, G in p2_groups()]
    return systems


def check_saturation_by_provenance() -> str:
    """``saturation_report``, which reads each class's witness off
    |N_S(P)| on a system that ``fusion_of_group`` built, equals the scan
    of every class by ``is_receptive`` on each such system.  Many classes
    have several fully normalized members, so a witness other than the
    first of them fails here."""
    systems = provenance_systems()
    ties = 0
    for label, F in systems:
        report = saturation_report(F)
        assert report == saturation_scan(F, is_receptive), (
            f"{label}: saturation report by provenance differs from the scan"
        )
        for cls in F.subgroup_classes():
            sizes = [F.lattice.normalizer_mask(i).bit_count() for i in cls]
            ties += sizes.count(max(sizes)) > 1
    return (
        f"{len(systems)} saturation reports by provenance equal the scan "
        f"({ties} classes with several fully normalized members)"
    )


FUSION_CORE_CHECKS = [
    ("saturation-battery", check_saturation_battery),
    ("center-fixed-points", check_center_fixed_points),
    ("conjugation-rows", check_conjugation_rows),
    ("strongly-closed-bounds", check_strongly_closed_bounds),
    ("restriction-saturated", check_restriction_saturated),
    ("centric-radical-split", check_centric_radical_split),
    ("table-closure", check_table_closure),
    ("alperin-generation", check_alperin_generation),
    ("conjugation-tables", check_conjugation_tables),
    ("coset-rows", check_coset_rows),
    ("element-classes", check_element_classes),
    ("class-closure", check_class_closure),
    ("receptive-representatives", check_receptive_representatives),
    ("automizers", check_automizers),
    ("radical-by-order", check_radical_by_order),
    ("saturation-by-provenance", check_saturation_by_provenance),
]


# ---------------------------------------------------------------------------
# morphisms suite


def check_kernel_strongly_closed() -> str:
    """The kernel of a fusion-preserving map is strongly closed in its
    source, which ``kernel`` does not test: the kernels of normal
    endomorphisms, their complements and a zero map."""
    zero = zero_morphism(_fusion("sigma3"), _fusion("sigma3"))
    assert kernel(zero).order == 3
    maps = [zero]
    for name in ["sigma3-squared", "inner-c2c4", "dihedral18-sigma3"]:
        for ne in normal_endos(_fusion(name))[:12]:
            maps += [ne.morphism, ne.complement]
    for m in maps:
        ker = kernel(m)
        assert is_strongly_closed(m.source, m.source.index_of(ker.members)), (
            f"kernel {ker.members} is not strongly closed in the source"
        )
    return f"{len(maps)} kernels strongly closed"


def check_iso_inverse() -> str:
    count = 0
    for name in ["sigma3", "inner-d8", "inner-c3c3"]:
        F = _fusion(name)
        for m in fusion_automorphisms(F)[:10]:
            inv = m.inverse()
            both = tuple(inv.images[v] for v in m.images)
            assert both == tuple(range(F.base.order))
            count += 1
    return f"{count} isomorphisms inverted inside the category"


def check_product_oracle() -> str:
    count = 0
    for n1, n2 in catalog.PRODUCT_PAIRS:
        big, F1, F2 = product_oracle_pair(n1, n2)
        prod = product([F1, F2]).product
        assert fusion_equal(big, prod), f"{n1} x {n2}"
        assert saturation_report(prod).verdict
        count += 1
    assert count >= 3
    return f"{count} product pairs equal entrywise and saturated"


def check_product_universal() -> str:
    """The inner system of a product lies in it; projection i after
    embedding j is the identity for i = j and zero otherwise; and the
    embeddings, the projections and their composites, which
    ``ProductSystem`` and ``FusionMorphism.compose`` build without a
    test, pass ``check_morphism_plain``, for products of two and three
    factors."""
    big, F1, F2 = product_oracle_pair("sigma3", "sigma3")
    count = 0
    for factors in ([F1, F2], [F1, _fusion("dihedral18"), F2]):
        ps = product(factors)
        inner = inner_fusion(ps.product.base)
        for i, m in ((i, m) for i in range(len(inner.maps)) for m in inner.maps[i]):
            assert ps.product.has_map(i, m), "inner system escapes the product"
        maps = ps.embeddings + ps.projections
        maps += [emb.compose(pr) for emb, pr in zip(ps.embeddings, ps.projections)]
        for i, pr in enumerate(ps.projections):
            for j, emb in enumerate(ps.embeddings):
                n = emb.source.base.order
                maps.append(pr.compose(emb))
                assert maps[-1].images == (tuple(range(n)) if i == j else (0,) * n), (
                    f"projection {i} after embedding {j} is not {'the identity' if i == j else 'zero'}"
                )
        for m in maps:
            check_morphism_plain(m.source, m.target, m.images)
        count += len(maps)
    return f"inner system lands inside the product; {count} structure maps are morphisms"


def check_commuting_associativity() -> str:
    F, Fbar, subs = axis_subsystems()
    r12 = commute_check(F, subs[:2])
    e12 = Subsystem(r12.inner_base, r12.inner)
    r = commute_check(Fbar, [e12, subs[2]])
    assert r.inner_base.order == 27
    full = commute_check(Fbar, subs)
    assert full.inner_base.order == 27
    assert fusion_equal(full.inner, r.inner)
    return "grouped and flat commuting agree on the ambient example"


def check_image_transport() -> str:
    big, F1, F2 = product_oracle_pair("sigma3", "sigma3")
    ps = product([F1, F2])
    F = ps.product
    fact = factorize(F)
    pr = ps.projections[0]
    parts = list(fact.parts)
    commute_check(F, parts)
    transported = []
    for part in parts:
        incl = check_morphism(
            part.system, F, tuple(part.base.members)
        )
        composed = pr.compose(incl)
        transported.append(
            Subsystem(composed.image_subgroup(), image(composed))
        )
    commute_check(pr.target, transported)
    return "images of commuting subsystems commute in the image"


def hom_law_plain(
    A: FiniteGroup, B: FiniteGroup, images: MapTuple
) -> Optional[tuple[int, int]]:
    """The slow twin of ``morphisms.hom_law_on_generators``: the first
    pair (x, y) with f(x y) != f(x) f(y), scanning every pair, or None
    for a homomorphism."""
    for x in range(A.order):
        for y in range(A.order):
            if images[A.mul(x, y)] != B.mul(images[x], images[y]):
                return (x, y)
    return None


def check_morphism_plain(
    E: FusionSystem, F: FusionSystem, images: MapTuple, *, hom_checked: bool = False
) -> FusionMorphism:
    """The slow twin of ``morphisms.check_morphism``: the homomorphism
    law on every pair (unless ``hom_checked``), then every map of ``E``
    pushed, largest domains first, with the same errors and
    witnesses."""
    witness = None if hom_checked else hom_law_plain(E.base, F.base, images)
    if witness is not None:
        raise NotSubgroup("not a group homomorphism at (%d,%d)" % witness)
    m = FusionMorphism(E, F, tuple(images))
    _push_every_map(m)
    return m


def commute_check_plain(F: FusionSystem, subsystems: list[Subsystem]) -> CommuteResult:
    """The slow twin of ``morphisms.commute_check``: every part scanned
    by ``_subsystem_scan`` (kept restrictions too), and every tuple of
    part morphisms looked up, each extension a seed."""
    if not subsystems:
        raise NotSubgroup("need at least one subsystem")
    for sub in subsystems:
        _subsystem_scan(F, sub.base, sub.system)
    _commute_elementwise(F.base, [sub.base.members for sub in subsystems])
    seeds = _commute_scan(F, subsystems)
    bases = [sub.base.members for sub in subsystems]
    return CommuteResult(F, _product_base(F.base, bases), frozenset(seeds))


def sum_morphisms_plain(summands: list[FusionMorphism]) -> FusionMorphism:
    """The slow twin of ``morphisms.sum_morphisms``: the image of every
    summand closed from the pushes of all its source maps, and the
    images put through ``commute_check_plain``."""
    if len(summands) == 1:
        return summands[0]
    E, F = summands[0].source, summands[0].target
    images = [Subsystem(m.image_subgroup(), image(m)) for m in summands]
    try:
        commute_check_plain(F, images)
    except NotCommuting as exc:
        raise NotSummable(
            "images of the summands do not commute", witness=exc.witness
        ) from exc
    G = F.base
    summed = []
    for x in range(E.base.order):
        acc = 0
        for m in summands:
            acc = G.mul(acc, m.images[x])
        summed.append(acc)
    return FusionMorphism(E, F, tuple(summed))


def is_normal_endo(F: FusionSystem, f: FusionMorphism) -> bool:
    """The plain complement test: x -> f(x)^-1 x is a homomorphism
    (every pair), it preserves F (every map pushed), and its image
    commutes with the image of f (``sum_morphisms_plain``)."""
    G = F.base
    chi = tuple(G.mul(G.inv(f.images[x]), x) for x in range(G.order))
    try:
        sum_morphisms_plain([f, check_morphism_plain(F, F, chi)])
    except (NotSubgroup, NotFusionPreserving, NotSummable):
        return False
    return True


def _outcome(decide: Callable[[], object]) -> tuple[Optional[str], object]:
    """(None, what ``decide`` returns), or the class name of the
    FusionError it raises with its message and witness."""
    try:
        return None, decide()
    except FusionError as exc:
        return type(exc).__name__, (str(exc), getattr(exc, "witness", None))


def hom_law_battery(G: FiniteGroup) -> list[MapTuple]:
    """Self-maps of ``G`` on both sides of the homomorphism law: the
    stabiliser-chain automorphisms, inversion, squaring, a translation,
    and the identity moved by c on the coset g<gens without g> of the
    last generator g for every c != 1 (which obeys the law at every
    other generator)."""
    n = G.order
    maps = [u for level in automorphism_chain(G)[1] for u in level]
    maps += [tuple(range(n)), tuple(G.inv(x) for x in range(n))]
    maps.append(tuple(G.mul(x, x) for x in range(n)))
    if not G.generators:
        return maps
    g = G.generators[-1]
    maps.append(tuple(G.mul(g, x) for x in range(n)))
    coset = set(G.products([g], _closure_ids(G, G.generators[:-1])))
    for c in range(1, n):
        maps.append(tuple(G.mul(c, x) if x in coset else x for x in range(n)))
    return maps


def check_hom_law_on_generators() -> str:
    """``check_morphism`` accepts exactly the homomorphisms, testing the
    law on generators, and names the first failing pair of the plain
    scan; ``normal_complement`` rejects exactly the endomorphisms whose
    complement breaks the law."""
    maps = complements = 0
    for name in catalog.names():
        F = _fusion(name)
        G = F.base
        for images in hom_law_battery(G):
            witness = hom_law_plain(G, G, images)
            want = witness and "not a group homomorphism at (%d,%d)" % witness
            try:
                check_morphism(F, F, images)
                got = None
            except NotFusionPreserving:
                got = None
            except NotSubgroup as exc:
                got = str(exc)
            assert got == want, (
                f"{name}: check_morphism differs from the plain law on {images}"
            )
            maps += 1
    for name in ["inner-c2c2", "inner-c2c4", "inner-c3c3", "inner-d8", "sym4", "alt4"]:
        F = _fusion(name)
        G = F.base
        for m in fusion_endomorphisms(F):
            chi = tuple(G.mul(G.inv(m.images[x]), x) for x in range(G.order))
            try:
                normal_complement(F, m)
                hom = True
            except NotNormal as exc:
                hom = str(exc) != "complement is not a homomorphism"
            assert hom == (hom_law_plain(G, G, chi) is None), (
                f"{name}: complement test differs from the plain law on {m.images}"
            )
            complements += 1
    return f"{maps} maps and {complements} complements: law on generators agrees with every pair"


_SELF_MAP_CANDIDATES: dict[tuple[tuple[int, ...], ...], tuple[list[GroupHom], list[GroupHom]]] = {}


def self_map_candidates(S: FiniteGroup) -> tuple[list[GroupHom], list[GroupHom]]:
    """Every automorphism and every endomorphism of ``S``, from the
    exhaustive backtracker, enumerated once per multiplication table."""
    table = tuple(tuple(S.mul(a, b) for b in range(S.order)) for a in range(S.order))
    if table not in _SELF_MAP_CANDIDATES:
        full = S.full_subgroup()
        _SELF_MAP_CANDIDATES[table] = (injective_homs(full, full), all_homs(full, full))
    return _SELF_MAP_CANDIDATES[table]


_PLAIN_SELF_MAPS: dict[str, list[tuple[MapTuple, tuple[Optional[str], object]]]] = {}


def self_map_systems() -> list[tuple[str, FusionSystem]]:
    """The catalog systems, the unsaturated battery and F_S(S:C7), where
    the fusion test rejects maps that the class labels admit."""
    systems = [(name, _fusion(name)) for name in catalog.names()] + unsaturated_battery()
    return systems + [("affine-c7", affine_c7_fusion())]


def plain_self_maps(name: str, F: FusionSystem) -> list[tuple[MapTuple, tuple[Optional[str], object]]]:
    """Every endomorphism of the base of ``F`` (for ``inner-c3c3c3``,
    19683 of them, only the automorphisms) with the outcome of
    ``check_morphism_plain``, computed once per system."""
    if name not in _PLAIN_SELF_MAPS:
        autos, endos = self_map_candidates(F.base)
        _PLAIN_SELF_MAPS[name] = [
            (h.images, _outcome(lambda: check_morphism_plain(F, F, h.images, hom_checked=True).images))
            for h in (autos if name == "inner-c3c3c3" else endos)
        ]
    return _PLAIN_SELF_MAPS[name]


def check_push_on_generators() -> str:
    """``_pushes_class_generators``, the push test of ``check_morphism``
    and of the self-map searches, accepts the maps that
    ``check_morphism_plain`` accepts and no other; a map it rejects
    gets its witness from the plain scan itself (``_push_every_map``).
    The candidates are every endomorphism of the base of each system of
    ``self_map_systems()``; for ``inner-c3c3c3`` only the
    automorphisms."""
    verdicts: Counter = Counter()
    for name, F in self_map_systems():
        for images, plain in plain_self_maps(name, F):
            accepted = _pushes_class_generators(FusionMorphism(F, F, images))
            assert accepted == (plain[0] is None), (
                f"{name}: the push test differs from the plain scan on {images}"
            )
            verdicts[plain[0]] += 1
    assert verdicts[None] and verdicts["NotFusionPreserving"], "both verdicts must occur"
    return (
        f"{verdicts[None]} accepted and {verdicts['NotFusionPreserving']} "
        f"rejected self-maps agree with the plain scan"
    )


def check_sum_bookkeeping() -> str:
    """Sums are morphisms, and the image of a sum lies in the inner
    product of the images of the summands; every f + chi that
    ``normal_complement`` forms is a morphism and the identity.  Sums
    are re-accepted by ``check_morphism_plain``.  On every pair of the
    first six normal endomorphisms of each ``ENDO_SUITE`` system,
    ``sum_morphisms`` gives the sum or the NotSummable witness of
    ``sum_morphisms_plain``."""
    count = 0
    for name in ["inner-c2c4", "sigma3-squared", "sigma3-cubed-full"]:
        F = _fusion(name)
        endos = catalog_normal_endos(name)
        for ne1 in endos[:8]:
            for ne2 in endos[:8]:
                try:
                    total = sum_morphisms([ne1.morphism, ne2.morphism])
                except NotSummable:
                    continue
                count += 1
                check_morphism_plain(F, F, total.images)
                images = [
                    Subsystem(m.image_subgroup(), image(m))
                    for m in (ne1.morphism, ne2.morphism)
                ]
                inner_maps = _inner_maps(commute_check_plain(F, images))
                img_total = Subsystem(total.image_subgroup(), image(total))
                assert set(img_total.translated_maps()) <= inner_maps, (
                    f"{name}: image of the sum escapes the product of the images"
                )
    identities = 0
    verdicts: Counter = Counter()
    for name in catalog.ENDO_SUITE:
        F = _fusion(name)
        endos = catalog_normal_endos(name)
        for ne in endos:
            total = sum_morphisms([ne.morphism, ne.complement])
            check_morphism_plain(F, F, total.images)
            assert total.images == tuple(range(F.base.order)), (
                f"{name}: f plus its complement is not the identity"
            )
            identities += 1
        for ne1, ne2 in itertools.product(endos[:6], repeat=2):
            pair = [ne1.morphism, ne2.morphism]
            fast = _outcome(lambda: sum_morphisms(pair).images)
            assert fast == _outcome(lambda: sum_morphisms_plain(pair).images), (
                f"{name}: sum differs from the plain sum on {ne1.images}, {ne2.images}"
            )
            verdicts[fast[0]] += 1
    assert verdicts[None] and verdicts["NotSummable"], "both verdicts must occur"
    return (
        f"{count} sums re-accepted as morphisms inside the product of the "
        f"images; {identities} sums f + chi are the identity; "
        f"{verdicts[None]} sums and {verdicts['NotSummable']} rejections "
        f"agree with the plain sum"
    )


def _inner_maps(res: CommuteResult) -> set[tuple[tuple[int, ...], MapTuple]]:
    """The maps of the inner product of a commuting family, in ambient ids."""
    return set(Subsystem(res.inner_base, res.inner).translated_maps())


def check_commuting_criteria_agree() -> str:
    """The tuple-extension criterion and the product-morphism definition
    accept and reject the same subsystem families.  ``commute_check``,
    which tests generator tuples, gives the verdict, the witness and
    the inner product of ``commute_check_plain``, which tests every
    tuple, on the axis families and, in both orders, on every pair of
    complementary subgroups of a catalog system whose elements
    commute."""
    F, Fbar, subs = axis_subsystems()
    cases = [
        (F, subs[:2], True),
        (F, [subs[0], subs[2]], True),
        (F, subs, False),
        (Fbar, subs, True),
    ]
    r12 = commute_check(F, subs[:2])
    e12 = Subsystem(r12.inner_base, r12.inner)
    cases.append((F, [e12, subs[2]], False))
    cases.append((Fbar, [e12, subs[2]], True))
    for system, family, expected in cases:
        try:
            res = commute_check(system, family)
        except NotCommuting:
            res = None
        assert (res is not None) == expected
        # independent route: the inclusion-extending morphism out of the
        # external product is forced, so test it directly
        prod = product([s.system for s in family])
        G = system.base
        imgs = []
        for x in range(prod.product.base.order):
            acc = 0
            for i, s in enumerate(family):
                acc = G.mul(acc, s.base.members[prod.components[i][x]])
            imgs.append(acc)
        try:
            inclusion = check_morphism_plain(prod.product, system, tuple(imgs))
        except FusionError:
            inclusion = None
        assert (inclusion is not None) == expected, "criteria disagree"
        if res is not None:
            assert fusion_equal(image(inclusion), res.inner), (
                "inner product differs from the image of the inclusion"
            )
    families = [(system, family) for system, family, _ in cases]
    for name in catalog.names():
        F = _fusion(name)
        G = F.base
        for T, U in itertools.combinations(F.lattice.subs, 2):
            if (
                1 < T.order
                and T.order * U.order == G.order
                and T.member_set & U.member_set == {0}
                and all(G.mul(a, b) == G.mul(b, a) for a in T.members for b in U.members)
            ):
                pair = [subsystem_of(F, T), subsystem_of(F, U)]
                families += [(F, pair), (F, pair[::-1])]
    verdicts: Counter = Counter()
    for system, family in families:
        fast = _outcome(lambda: _inner_maps(commute_check(system, family)))
        assert fast == _outcome(lambda: _inner_maps(commute_check_plain(system, family))), (
            f"commute_check differs from the plain scan on "
            f"{[s.base.members for s in family]}"
        )
        verdicts[fast[0]] += 1
    assert verdicts[None] and verdicts["NotCommuting"], "both verdicts must occur"
    return (
        f"{len(cases)} families agree under both criteria; {verdicts[None]} "
        f"commuting and {verdicts['NotCommuting']} non-commuting families "
        f"agree with the plain scan"
    )


def check_factor_intersection_central() -> str:
    """When two commuting subsystems cover the system, their bases meet
    inside the center (checked here on an overlap that is nontrivial)."""
    F = _fusion("inner-d8-c2")
    G = F.base
    z = center_of(F)
    fact = factorize(F)
    d8_part = max(fact.parts, key=lambda p: p.base.order).base
    sub1 = subsystem_of(F, d8_part)
    sub2 = subsystem_of(F, z)
    res = commute_check(F, [sub1, sub2])
    assert res.inner_base.order == G.order
    assert fusion_equal(res.inner, F)
    overlap = d8_part.member_set & z.member_set
    assert len(overlap) == 2, "expected a nontrivial overlap"
    assert overlap <= z.member_set
    # the overlap keeps the cover from being a direct decomposition
    assert not is_product_decomposition(F, [sub1, sub2])
    return "overlapping cover lands its intersection in the center"


def check_distributivity() -> str:
    checked = 0
    for name in ["inner-c2c4", "sigma3-squared"]:
        F = _fusion(name)
        G = F.base
        endos = [ne.morphism for ne in catalog_normal_endos(name)[:6]]
        for f1, f2 in itertools.combinations(endos, 2):
            try:
                fsum = sum_morphisms([f1, f2])
            except NotSummable:
                continue
            for g1, g2 in itertools.combinations(endos, 2):
                try:
                    gsum = sum_morphisms([g1, g2])
                except NotSummable:
                    continue
                left = tuple(fsum.images[v] for v in gsum.images)
                composites = [
                    tuple(a.images[v] for v in b.images)
                    for a in (f1, f2)
                    for b in (g1, g2)
                ]
                right = []
                for x in range(G.order):
                    acc = 0
                    for comp in composites:
                        acc = G.mul(acc, comp[x])
                    right.append(acc)
                assert left == tuple(right), f"{name}: distributivity"
                try:
                    parts = [check_morphism(F, F, c) for c in composites]
                    sum_morphisms(parts)
                except (NotSummable, FusionError) as exc:
                    raise AssertionError(
                        f"{name}: composite family not summable: {exc}"
                    )
                checked += 1
    assert checked >= 4
    return f"{checked} composites distributed"


def product_decomposition_plain(
    F: FusionSystem, subsystems: list[Subsystem]
) -> bool:
    """The slow twin of ``is_product_decomposition``: the inner product,
    closed from the extension seeds of every tuple, compared with ``F``
    entrywise."""
    res = commute_check_plain(F, subsystems)
    total = 1
    for sub in subsystems:
        total *= sub.base.order
    if not total == res.inner_base.order == F.base.order:
        return False
    return fusion_equal(res.inner, F)


def _product_verdicts(
    label: str, F: FusionSystem, subsystems: list[Subsystem]
) -> object:
    """The verdict of ``is_product_decomposition``, "not commuting" when it
    raises NotCommuting, asserted equal to the plain twin's."""
    verdicts = []
    for decide in (is_product_decomposition, product_decomposition_plain):
        try:
            verdicts.append(decide(F, subsystems))
        except NotCommuting:
            verdicts.append("not commuting")
    assert verdicts[0] == verdicts[1], (
        f"{label}: on {[s.base.members for s in subsystems]} the projection "
        f"says {verdicts[0]}, "
        f"the inner product says {verdicts[1]}"
    )
    return verdicts[0]


def check_product_by_projection() -> str:
    """``is_product_decomposition``, which projects generators of F onto
    the parts class by class, gives the verdict of the entrywise
    comparison with the inner product on every complementary pair of
    subgroups of the catalog and the unsaturated battery, on every
    factorization from ``factorize_all`` and on the overlapping cover of
    inner-d8-c2.  The lazy pair generator of ``factorize`` yields the
    plain list of candidate pairs."""
    tally: Counter = Counter()
    systems = [(name, _fusion(name)) for name in catalog.names()]
    for label, F in systems + unsaturated_battery():
        subs = F.lattice.subs
        for T, U in itertools.combinations(subs, 2):
            if T.order * U.order == F.base.order and T.member_set & U.member_set == {0}:
                family = [subsystem_of(F, T), subsystem_of(F, U)]
                tally[_product_verdicts(label, F, family)] += 1
    assert tally[True] and tally[False], (
        "both verdicts must occur on pairs that commute"
    )
    cases = [(name, F, None) for name, F in systems] + [
        (f"equivariant {F.base.order}", F, omega) for F, omega in equivariant_contexts()
    ]
    facts = 0
    for label, F, omega in cases:
        for fact in factorize_all(F, omega):
            assert _product_verdicts(label, F, list(fact.parts)) is True
            facts += 1
        plain = admissible_splits_plain(F, omega)
        assert list(_admissible_splits(F, omega)) == plain, (
            f"{label}: candidate pairs differ from the plain list"
        )
    F = _fusion("inner-d8-c2")
    d8_part = max(factorize(F).parts, key=lambda p: p.base.order).base
    cover = [subsystem_of(F, d8_part), subsystem_of(F, center_of(F))]
    assert _product_verdicts("inner-d8-c2", F, cover) is False
    return (
        f"{sum(tally.values())} complementary pairs ({tally[True]} products, "
        f"{tally[False]} commuting non-products, {tally['not commuting']} not "
        f"commuting), {facts} factorizations and one overlapping cover agree "
        f"with the inner product; candidate pairs of {len(cases)} systems "
        f"equal the plain list"
    )


def check_restriction_is_subsystem() -> str:
    """Every system that ``restrict_full`` keeps is a subsystem of its
    parent by the full scan ``_subsystem_scan``, since
    ``_assert_subsystem`` accepts a kept restriction by identity: those
    kept by ``factorize_all_plain`` on every catalog system, which splits
    at every depth, and the restrictions of the unsaturated battery to
    each of its subgroups, where maps leave the subgroups that are not
    strongly closed.  The inner systems that ``commute_check`` and
    ``image`` close without a scan pass it too: those of the commuting
    axis families and of the factorizations of the multi-factor
    systems, and the images of the normal endomorphisms of the
    endomorphism suite and of their complements."""
    F, Fbar, subs = axis_subsystems()
    families = [(F, subs[:2]), (F, [subs[0], subs[2]]), (Fbar, subs)]
    for name in catalog.MULTI_FACTOR:
        E = _fusion(name)
        families += [(E, list(fact.parts)) for fact in factorize_all(E)[:4]]
    for system, family in families:
        res = commute_check(system, family)
        _subsystem_scan(system, res.inner_base, res.inner)
    images = 0
    for name in catalog.ENDO_SUITE:
        for ne in catalog_normal_endos(name):
            for m in (ne.morphism, ne.complement):
                _subsystem_scan(m.target, m.image_subgroup(), image(m))
                images += 1
    kept = []
    for name in catalog.names():
        F = _fusion(name)
        factorize_all_plain(F)
        kept.append(F)
    for _, F in unsaturated_battery():
        for T in F.lattice.subs:
            restrict_full(F, T)
        kept.append(F)
    checked = 0
    while kept:
        F = kept.pop()
        for members, E in F._restrictions.items():
            _subsystem_scan(F, Subgroup(F.base, members, _checked=True), E)
            kept.append(E)
            checked += 1
    return (
        f"{checked} kept restrictions, {len(families)} inner products and "
        f"{images} images pass the full subsystem scan"
    )


MORPHISM_CHECKS = [
    ("kernel-strongly-closed", check_kernel_strongly_closed),
    ("iso-inverse", check_iso_inverse),
    ("product-oracle", check_product_oracle),
    ("product-universal", check_product_universal),
    ("commuting-associativity", check_commuting_associativity),
    ("commuting-criteria-agree", check_commuting_criteria_agree),
    ("factor-intersection-central", check_factor_intersection_central),
    ("image-transport", check_image_transport),
    ("hom-law-on-generators", check_hom_law_on_generators),
    ("push-on-generators", check_push_on_generators),
    ("sum-bookkeeping", check_sum_bookkeeping),
    ("distributivity", check_distributivity),
    ("product-by-projection", check_product_by_projection),
    ("restriction-is-subsystem", check_restriction_is_subsystem),
]


# ---------------------------------------------------------------------------
# factor suite


def check_dichotomy() -> str:
    count = 0
    for name in catalog.INDECOMPOSABLE:
        F = _fusion(name)
        assert is_indecomposable(F), f"{name} should be indecomposable"
        for ne in catalog_normal_endos(name):
            stable, _, _ = stable_image_kernel(F.base, ne.images)
            nilpotent = stable == frozenset({0})
            assert nilpotent != ne.invertible, f"{name}: dichotomy"
            count += 1
    return f"{count} normal endomorphisms nilpotent xor invertible"


def check_sum_criterion() -> str:
    count = 0
    for name in ["inner-d8", "sigma3", "dihedral18", "alt4"]:
        F = _fusion(name)
        assert is_indecomposable(F)
        endos = catalog_normal_endos(name)
        for ne1 in endos:
            for ne2 in endos:
                try:
                    total = sum_morphisms([ne1.morphism, ne2.morphism])
                except NotSummable:
                    continue
                if total.is_injective:
                    assert ne1.invertible or ne2.invertible, f"{name}: sum criterion"
                count += 1
    return f"{count} summable pairs checked"


def check_normal_end_properties() -> str:
    count = 0
    for name in ["inner-c2c4", "inner-d8", "sigma3", "sym4",
                 "sigma3-cubed-paired", "sigma3-cubed-full"]:
        F = _fusion(name)
        for ne in catalog_normal_endos(name):
            normal_end_properties(F, ne)
            count += 1
    return f"{count} normal endomorphisms verified structurally"


def check_normal_monoid() -> str:
    for name in ["inner-c2c2", "inner-d8", "sigma3", "inner-c2c4"]:
        F = _fusion(name)
        endos = catalog_normal_endos(name)
        images = {ne.images for ne in endos}
        for a in endos:
            for b in endos:
                comp = tuple(a.images[v] for v in b.images)
                assert comp in images, f"{name}: composite escaped"
                if all(a.images[b.images[x]] == 0 for x in range(F.base.order)):
                    total = sum_morphisms([a.morphism, b.morphism])
                    normal_complement(F, total)
    return "composition closure and zero-composite sums"


def check_projections_normal() -> str:
    count = 0
    for name in ["sigma3-squared", "dihedral18-sigma3", "inner-c2c4"]:
        F = _fusion(name)
        fact = factorize(F)
        if len(fact.parts) < 2:
            continue
        for arr in projections(F.base, [p.base.members for p in fact.parts]):
            m = check_morphism(F, F, arr)
            normal_complement(F, m)
            count += 1
    assert count >= 4
    return f"{count} factor projections normal"


def check_normality_converse_fails() -> str:
    F = _fusion("sigma3")
    inv = None
    for m in fusion_automorphisms(F):
        if m.images != tuple(range(F.base.order)):
            inv = m
    assert inv is not None
    auts = F.aut_maps(F.lattice.full_index)
    assert all(
        tuple(inv.images[w[x]] for x in range(F.base.order))
        == tuple(w[inv.images[x]] for x in range(F.base.order))
        for w in auts
    ), "inversion should centralize the abelian automizer"
    try:
        normal_complement(F, inv)
        raise AssertionError("inversion must not be normal")
    except FusionError:
        pass
    return "centralizing the automizer does not imply normal"


def stable_image_kernel_plain(
    G: FiniteGroup, images: MapTuple
) -> tuple[frozenset[int], frozenset[int]]:
    """The slow twin of ``groups.stable_image_kernel``: f^|G| taken on
    each element alone, |G| steps (the images of the powers of f shrink
    for at most log2 |G| of them), and its image and kernel."""
    power = []
    for x in range(G.order):
        for _ in range(G.order):
            x = images[x]
        power.append(x)
    return frozenset(power), frozenset(x for x in range(G.order) if power[x] == 0)


def check_fitting_factorize() -> str:
    """Each stable/nil split is the image and kernel of f^|S|
    (``stable_image_kernel_plain``) and the only split
    (``fitting_candidates``), and f restricts to a normal endomorphism
    of both parts."""
    count = 0
    for name in catalog.ENDO_SUITE:
        F = _fusion(name)
        if F.base.order > 64:
            continue
        for ne in catalog_normal_endos(name):
            split = fitting_factorize(F, ne)
            parts = (split.stable.base.member_set, split.nil.base.member_set)
            assert parts == stable_image_kernel_plain(F.base, ne.images), (
                f"{name}: stable image or nil kernel differs from f^|S| element by element"
            )
            assert fitting_candidates(F.base, ne.images, F) == [
                (split.stable.base.members, split.nil.base.members)
            ], f"{name}: second stable/nil splitting"
            for part in (split.stable, split.nil):  # both restrictions normal
                E, pos = part.system, {m: t for t, m in enumerate(part.base.members)}
                on_part = tuple(pos[ne.images[m]] for m in part.base.members)
                normal_complement(E, check_morphism(E, E, on_part))
            count += 1
    return f"{count} fitting splits verified (unique by brute force)"


def surjective_criterion_plain(F: FusionSystem, images: MapTuple) -> bool:
    """The slow twin of ``_surjective_normal_criterion``: the displacement
    x^-1 f(x) of every element, and every element of foc(F)."""
    G = F.base
    center = center_of(F).member_set
    if any(G.mul(G.inv(x), images[x]) not in center for x in range(G.order)):
        return False
    return all(images[x] == x for x in focal_of(F).members)


def check_surjective_criterion() -> str:
    """The center/focal criterion that ``normal_automorphisms`` uses
    agrees with the complement test on every fusion automorphism of the
    catalog and of SL(2,3), where a criterion without its focal clause
    keeps the 4 maps of Inn(Q8)."""
    count = 0
    systems = [(name, _fusion(name)) for name in catalog.names()]
    for name, F in systems + [("SL(2,3)", sl23_fusion())]:
        if name == "inner-c3c3c3":  # 11232 automorphisms: too slow here
            continue
        for m in fusion_automorphisms(F):
            assert _surjective_normal_criterion(F, m.images) == is_normal_endo(F, m), (
                f"{name}: criterion disagrees with the complement test on {m.images}"
            )
            count += 1
    return f"{count} automorphisms: criterion agrees with the complement test"


def commutes_with_plain(omega: OmegaContext, images: MapTuple) -> bool:
    """The slow twin of ``OmegaContext.commutes_with``: w o f and f o w
    compared on every element, for every generator w."""
    return all(
        tuple(images[v] for v in w.images) == tuple(w.images[v] for v in images)
        for w in omega.generators
    )


def normal_automorphisms_plain(
    F: FusionSystem, omega: Optional[OmegaContext] = None
) -> list[FusionMorphism]:
    """The slow twin of ``normal_automorphisms``: every fusion automorphism
    filtered by Omega commutation and the criterion on every element."""
    return [m for m in fusion_automorphisms(F) if surjective_criterion_plain(F, m.images)
            and (omega is None or commutes_with_plain(omega, m.images))]


def check_surjective_on_generators() -> str:
    """The center/focal criterion, tested on generators of S and of
    foc(F), agrees with its all-element twin on every fusion
    automorphism of the catalog (inner-c3c3c3 included); in the
    equivariant contexts, Omega commutation tested on generators agrees
    with its all-element twin on every fusion endomorphism."""
    count = 0
    for name in catalog.names():
        F = _fusion(name)
        for m in fusion_automorphisms(F):
            assert _surjective_normal_criterion(F, m.images) == surjective_criterion_plain(
                F, m.images
            ), f"{name}: criterion differs from the all-element criterion on {m.images}"
            count += 1
    for F, omega in equivariant_contexts():
        for m in fusion_endomorphisms(F):
            assert omega.commutes_with(m.images) == commutes_with_plain(omega, m.images), (
                f"Omega commutation differs from the all-element test on {m.images}"
            )
    return f"{count} automorphisms: criterion agrees with the all-element criterion"


def check_normal_automorphisms() -> str:
    """``normal_automorphisms``, which tests the criterion on the
    generators of Aut(S,F) and on every map only when one fails, equals
    the plain filter (Omega commutation and the criterion on every
    element of every map) on a fresh copy of every catalog system and
    every system of the unsaturated battery, and in the equivariant
    contexts, where the walk runs both on a chain of Aut(S,F) that is the
    chain of Aut(S) and on one that F cuts."""
    cases = [(_fusion(name), None) for name in catalog.names()]
    cases += [(F, None) for _, F in unsaturated_battery()]
    cases += equivariant_contexts()
    shortcut: Counter = Counter()
    on_chain: Counter = Counter()
    for F, omega in cases:
        if omega is None:
            F = FusionSystem(F.base, F.p, F.maps)
        assert normal_automorphisms(F, omega) == normal_automorphisms_plain(F, omega), (
            f"normal automorphisms of a system of order {F.base.order} differ "
            f"from the plain filter"
        )
        shortcut[all(surjective_criterion_plain(F, m.images) for m in fusion_automorphisms(F))] += 1
        if omega is not None:
            on_chain[_automorphism_chain(F)[1] == automorphism_chain(F.base)[1]] += 1
    assert shortcut[True] and shortcut[False], "both outcomes must occur"
    assert on_chain[True] and on_chain[False], (
        "the Omega walk must run on the chain of Aut(S) and on a chain cut by F"
    )
    return (
        f"{len(cases)} systems agree with the plain filter; Aut(S,F) is all "
        f"normal in {shortcut[True]} of them; {on_chain[True]} Omega walks on "
        f"the chain of Aut(S), {on_chain[False]} on a chain cut by F"
    )


def admissible_splits_plain(
    F: FusionSystem, omega: Optional[OmegaContext]
) -> list[tuple[int, int]]:
    """The slow twin of ``factor._admissible_splits``: every pair of
    eligible subgroups tested, and the candidates listed at once."""
    G = F.base
    subs = F.lattice.subs
    n = G.order
    eligible = []
    for i in range(len(subs)):
        if 1 < subs[i].order < n and is_strongly_closed(F, i):
            if omega is None or omega.fixes_subgroup(subs[i].members):
                eligible.append(i)
    out = []
    for a_pos, i in enumerate(eligible):
        ti = subs[i].member_set
        for j in eligible[a_pos + 1 :]:
            uj = subs[j].member_set
            if subs[i].order * subs[j].order != n:
                continue
            if (ti & uj) != {0}:
                continue
            if not all(G.mul(a, b) == G.mul(b, a) for a in subs[i].members for b in uj):
                continue
            out.append((i, j))
    return out


def factorize_all_plain(
    F: FusionSystem, omega: Optional[OmegaContext] = None
) -> list[Factorization]:
    """The slow twin of ``factorize_all``: every proven split of every
    part, recursively, with a content-keyed memo."""
    if not is_saturated(F):
        raise NotSaturated("factorization requires a saturated system")
    memo: dict = {}

    def content_key(sys: FusionSystem):
        n = sys.base.order
        if n > 64:
            return id(sys)
        return (tuple(sys.base.products(range(n), range(n))), sys.maps)

    def rec(sys: FusionSystem, og: Optional[OmegaContext]) -> list[tuple[tuple[int, ...], ...]]:
        key = (
            content_key(sys),
            og.closure if og is not None else None,
        )
        if key in memo:
            return memo[key]
        results: set[tuple[tuple[int, ...], ...]] = set()
        for (sub_i, og_i), (sub_j, og_j) in _proven_splits(sys, og):
            for left in rec(sub_i.system, og_i):
                for right in rec(sub_j.system, og_j):
                    combo = tuple(
                        sorted(
                            [tuple(sub_i.base.members[t] for t in m) for m in left]
                            + [tuple(sub_j.base.members[t] for t in m) for m in right]
                        )
                    )
                    results.add(combo)
        if not results:
            results = {(tuple(range(sys.base.order)),)} if sys.base.order > 1 else {()}
        out = sorted(results)
        memo[key] = out
        return out

    return [_factorization(F, bases) for bases in rec(F, omega)]


def check_factorizations_are_products() -> str:
    """Every factorization that ``factorize`` and ``factorize_all`` return
    is a direct factorization: ``factorize`` decides each of its splits
    by the generator tuples alone, since a strongly closed commuting
    split is a direct product, and assembles the parts without proving
    the whole, and the parts from ``factorize_all`` are the images of
    those bases under fusion automorphisms, with no split proven.  The
    proof here is the plain one, the inner product compared entrywise."""
    cases = [(_fusion(name), None) for name in catalog.names()]
    cases += equivariant_contexts()
    count = 0
    for F, omega in cases:
        facts = factorize_all(F, omega)
        if omega is None:
            facts.append(factorize(F))
        for fact in facts:
            assert product_decomposition_plain(F, list(fact.parts)), (
                f"{fact.bases} do not factor the system"
            )
            count += 1
    return f"{count} factorizations are direct products of their parts"


def check_self_map_search() -> str:
    """The fusion-aware self-map search against its plain twin: every
    homomorphism S -> S from the exhaustive backtracker without class
    labels, filtered by ``check_morphism_plain``.  Aut(S) from the base
    transversals is compared with ``injective_homs``, and Aut(S,F) (the
    chain from the labelled transversal search, each first leaf kept only
    if it preserves F) with the filtered ``injective_homs``, on a fresh
    copy of each system, so no cached list can hide a fault.  The systems
    are ``self_map_systems()``; on all but ``affine-c7`` the class labels
    alone cut Aut(S,F), and there the fusion test rejects 40 of the 51
    leaves it sees.  The twin runs once per multiplication table; the
    endomorphisms of ``inner-c3c3c3`` (19683 of them) are left out."""
    compared: set[int] = set()
    autos = endos = 0
    systems = self_map_systems()
    for name, F in systems:
        S = F.base
        plain_auts = self_map_candidates(S)[0]
        if id(plain_auts) not in compared:
            compared.add(id(plain_auts))
            assert [a.images for a in automorphisms(S)] == [a.images for a in plain_auts], (
                f"{name}: Aut(S) from the base transversals differs from injective_homs"
            )
        plain = [images for images, (error, _) in plain_self_maps(name, F) if error is None]
        fresh = FusionSystem(S, F.p, F.maps)
        found = [m.images for m in fusion_automorphisms(fresh)]
        assert found == [images for images in plain if len(set(images)) == S.order], (
            f"{name}: fusion automorphisms differ from the plain filter"
        )
        autos += len(found)
        if name == "inner-c3c3c3":
            continue
        found = [m.images for m in fusion_endomorphisms(fresh)]
        assert found == plain, (
            f"{name}: fusion endomorphisms differ from the plain filter"
        )
        endos += len(found)
    return (
        f"{autos} automorphisms and {endos} endomorphisms of {len(systems)} "
        f"catalog, unsaturated and affine systems match the plain search over "
        f"{len(compared)} tables"
    )


FACTOR_CHECKS = [
    ("dichotomy", check_dichotomy),
    ("sum-criterion", check_sum_criterion),
    ("normal-end-properties", check_normal_end_properties),
    ("normal-monoid", check_normal_monoid),
    ("projections-normal", check_projections_normal),
    ("normality-converse-fails", check_normality_converse_fails),
    ("fitting-factorize", check_fitting_factorize),
    ("surjective-criterion", check_surjective_criterion),
    ("surjective-on-generators", check_surjective_on_generators),
    ("normal-automorphisms", check_normal_automorphisms),
    ("factorizations-are-products", check_factorizations_are_products),
    ("self-map-search", check_self_map_search),
]


# ---------------------------------------------------------------------------
# krs suite


def check_krs_end_to_end() -> str:
    count = 0
    for name in catalog.MULTI_FACTOR:
        F = _fusion(name)
        facts = factorize_all(F)
        expected = catalog.FACTORIZATION_COUNTS[name]
        assert len(facts) == expected, (
            f"{name}: {len(facts)} factorizations, expected {expected}"
        )
        nauts = {a.images for a in normal_automorphisms(F)}
        step = max(1, len(facts) // 3)
        pairs = [(0, j) for j in range(step, len(facts), step)][:4]
        pairs += list(itertools.combinations(range(min(len(facts), 3)), 2))
        for i, j in sorted(set(pairs)):
            cert = krs_certificate(F, facts[i], facts[j])
            assert len(cert.sigma) == len(facts[i].parts)
            assert cert.alpha.images in nauts, f"{name}: alpha not normal"
            assert transports_plain(cert.alpha.images, facts[i], facts[j], cert.sigma), (
                f"{name}: no transport"
            )
            count += 1
        start = factorize(F)
        cert = krs_certificate(F, start, facts[-1])
        assert cert.alpha.images in nauts, f"{name}: alpha not normal"
        assert transports_plain(cert.alpha.images, start, facts[-1], cert.sigma), (
            f"{name}: no transport"
        )
        count += 1
    return f"{count} certificates constructed, membership- and transport-checked"


def check_krs_rigid() -> str:
    for name in catalog.RIGID:
        F = _fusion(name)
        z = center_of(F).order
        foc = focal_of(F).order
        assert z == 1 or foc == F.base.order, f"{name} not rigid"
        facts = factorize_all(F)
        assert len(facts) == 1, f"{name}: {len(facts)} factorizations"
        nauts = normal_automorphisms(F)
        assert len(nauts) == 1, f"{name}: normal automorphisms {len(nauts)}"
        cert = krs_certificate(F, facts[0], facts[0])
        assert cert.alpha.images == tuple(range(F.base.order))
    return f"{len(catalog.RIGID)} rigid systems have unique factorizations"


def check_krs_equivariant() -> str:
    (F8, omega), (FA, omega_a) = equivariant_contexts()[:2]
    plain = factorize_all(F8)
    fixed = factorize_all(F8, omega)
    assert len(plain) == 28 and len(fixed) == 1
    assert sorted(len(b) for b in fixed[0].bases) == [2, 4]
    cert = krs_certificate(F8, fixed[0], fixed[0], omega)
    assert cert.alpha.images == tuple(range(8))

    facts = factorize_all(FA, omega_a)
    assert len(facts) == 4
    cert = krs_certificate(FA, facts[0], facts[2], omega_a)
    assert omega_a.commutes_with(cert.alpha.images)
    return "rotation and inversion contexts verified"


def check_orbit_is_every_factorization() -> str:
    """``factorize_all``, the orbit of one factorization under Aut(S,F)
    (under its maps that commute with Omega), lists what the recursive
    split search ``factorize_all_plain`` lists, in the same order: on
    every catalog system, SL(2,3), the equivariant contexts and
    inner-c3c3c3 under the swap of its first two 3-cycle blocks.  The
    paper proves the orbit claim without Omega; under Omega it rests on
    the argument for groups with operators, which only this check
    guards."""
    cases = [(name, _fusion(name), None) for name in catalog.names()]
    cases.append(("SL(2,3)", sl23_fusion(), None))
    contexts = equivariant_contexts()
    contexts.append(relabelling(_fusion("inner-c3c3c3"), (3, 4, 5, 0, 1, 2, 6, 7, 8)))
    cases += [(f"equivariant {F.base.order}", F, omega) for F, omega in contexts]
    count = restricted = 0
    for label, F, omega in cases:
        orbit = [f.key() for f in factorize_all(F, omega)]
        plain = [f.key() for f in factorize_all_plain(F, omega)]
        assert orbit == plain, (
            f"{label}: the orbit gives {len(orbit)} factorizations, "
            f"the split search {len(plain)}"
        )
        count += len(orbit)
        if omega is not None:
            restricted += restricted_generators_plain(F, omega)
    return (
        f"{len(cases)} systems: the orbits give the {count} factorizations of "
        f"the split search; {restricted} restricted Omega generators are morphisms"
    )


def restricted_generators_plain(F: FusionSystem, omega: OmegaContext) -> int:
    """Every generator of Omega restricted to a part of a proven split,
    at every depth, re-accepted by ``check_morphism_plain``, which
    ``OmegaContext.restrict_to`` does not call; the number of them."""
    count = 0
    for split in _proven_splits(F, omega):
        for sub, og in split:
            for w in og.generators:
                check_morphism_plain(sub.system, sub.system, w.images)
                count += 1
            count += restricted_generators_plain(sub.system, og)
    return count


def transports_plain(alpha: MapTuple, fact1: Factorization, fact2: Factorization, sigma) -> bool:
    """``sigma`` permutes the parts, and ``alpha`` carries the graphs
    {(x, phi(x))} of the maps of part i of ``fact1`` onto those of part
    sigma(i) of ``fact2``."""

    def graphs(part, a) -> set[frozenset]:
        return {frozenset((a[x], a[y]) for x, y in zip(*mp)) for mp in part.translated_maps()}

    return sorted(sigma) == list(range(len(fact2.parts))) and all(
        graphs(p, alpha) == graphs(fact2.parts[j], range(len(alpha)))
        for p, j in zip(fact1.parts, sigma)
    )


def krs_certificate_plain(F: FusionSystem, fact1: Factorization, fact2: Factorization, omega=None):
    """The slow twin of ``krs_certificate``: (alpha, sigma) for the first
    normal (Omega-equivariant) automorphism of the plain filter that
    transports the parts of ``fact1`` onto those of ``fact2``, or None."""
    bases2 = {p.base.members: j for j, p in enumerate(fact2.parts)}
    for a in (m.images for m in normal_automorphisms_plain(F, omega)):
        mapped = [tuple(sorted(a[x] for x in p.base.members)) for p in fact1.parts]
        sigma = tuple(bases2.get(m, -1) for m in mapped)
        if transports_plain(a, fact1, fact2, sigma):
            return a, sigma
    return None


def check_krs_certificate_twin() -> str:
    """The projection-swap certificate against its exhaustive twin, on the
    multi-factor systems below order 27 and in the equivariant contexts:
    the twin finds an alpha; the certificate's alpha and swap maps are
    normal (equivariant) automorphisms, its complement is the one
    ``normal_complement`` forces, and alpha transports the parts."""
    cases = [(_fusion(n), None) for n in catalog.MULTI_FACTOR if n != "inner-c3c3c3"]
    count = 0
    for F, omega in cases + equivariant_contexts():
        facts = factorize_all(F, omega)
        nauts = {m.images for m in normal_automorphisms_plain(F, omega)}
        for f1, f2 in [(facts[0], f) for f in facts] + list(itertools.combinations(facts[1:4], 2)):
            label = f"order {F.base.order}, {f1.bases} -> {f2.bases}"
            cert = krs_certificate(F, f1, f2, omega)
            assert krs_certificate_plain(F, f1, f2, omega), f"{label}: no normal automorphism"
            assert cert.alpha.images in nauts, f"{label}: alpha is not a normal automorphism"
            forced = normal_complement(F, check_morphism(F, F, cert.alpha.images))
            assert cert.alpha.complement.images == forced.complement.images, (
                f"{label}: complement is not the forced one"
            )
            assert {h.images for h in cert.construction_log} <= nauts, f"{label}: swap map"
            assert transports_plain(cert.alpha.images, f1, f2, cert.sigma), f"{label}: no transport"
            count += 1
    return f"{count} certificates agree with the exhaustive twin"


def checked_aut_structure(F: FusionSystem, fact: Factorization):
    """``aut_structure(F, fact)`` with its fields asserted against Aut(S,F):
    gamma is the set of realized part permutations, the counts factor, and
    the section is a homomorphism realizing each permutation."""
    st, bases = aut_structure(F, fact), [p.base.member_set for p in fact.parts]

    def perm_of(a: MapTuple) -> tuple[int, ...]:
        return tuple(
            next((j for j, b in enumerate(bases) if {a[x] for x in t} == b), -1) for t in bases
        )

    autos = {m.images for m in fusion_automorphisms(F)}
    perms = Counter(perm_of(a) for a in autos)
    parts = tuple(len(fusion_automorphisms(p.system)) for p in fact.parts)
    assert sorted(perms) == list(st.gamma), "realized part permutations differ"
    assert st.aut_order == len(autos) == st.aut0_order * len(st.gamma), "count does not factor"
    assert st.part_aut_orders == parts and st.aut0_order == perms[tuple(range(len(bases)))] == (
        math.prod(parts)
    ), "stabilizer does not match the part product"
    for s1 in st.gamma:
        assert st.section[s1] in autos and perm_of(st.section[s1]) == s1, (
            "section does not realize its permutation"
        )
        for s2 in st.gamma:
            composed = tuple(st.section[s1][v] for v in st.section[s2])
            assert composed == st.section[tuple(s1[j] for j in s2)], "section is not a homomorphism"
    return st


def check_aut_structure() -> str:
    big, F1, F2 = product_oracle_pair("sigma3", "sigma3")
    st = checked_aut_structure(big, factorize(big))
    assert st.aut0_order == 4 and len(st.gamma) == 2 and st.aut_order == 8

    big2, _, _ = product_oracle_pair("sigma3", "dihedral18")
    st2 = checked_aut_structure(big2, factorize(big2))
    assert len(st2.gamma) == 1, "non-isomorphic parts must not permute"

    F24 = _fusion("sym4")
    st3 = checked_aut_structure(F24, factorize(F24))
    assert st3.gamma == ((0,),)
    return (
        f"orders (aut, stabilizer, parts) = "
        f"({st.aut_order},{st.aut0_order},{len(st.gamma)})"
    )


def check_goldschmidt() -> str:
    details = []
    for name in catalog.GOLDSCHMIDT:
        b = catalog.built(name)
        F = b.fusion
        fact = factorize(F)
        assert len(fact.parts) >= 2, f"{name}: fusion should be decomposable"
        closures = goldschmidt_factor(b.group, fact)
        details.append(f"{name}:{sorted(h.order for h in closures)}")
    assert len(details) >= 2
    return "; ".join(details)


def check_weakened_sum() -> str:
    hits = 0
    for name in ["inner-c2c4", "inner-c2c2"]:
        F = _fusion(name)
        endos = catalog_normal_endos(name)
        for ne1 in endos[:10]:
            for ne2 in endos[:10]:
                result = sum_if_composite_central(F, ne1, ne2)
                if result is not None:
                    hits += 1
    assert hits > 0
    return f"{hits} central-composite sums verified normal"


KRS_CHECKS = [
    ("krs-end-to-end", check_krs_end_to_end),
    ("krs-rigid-unique", check_krs_rigid),
    ("krs-equivariant", check_krs_equivariant),
    ("certificate-twin", check_krs_certificate_twin),
    ("orbit-is-every-factorization", check_orbit_is_every_factorization),
    ("aut-structure", check_aut_structure),
    ("goldschmidt-transfer", check_goldschmidt),
    ("weakened-sum-flag", check_weakened_sum),
]


SUITES: dict[str, list] = {
    "group-core": GROUP_CORE_CHECKS,
    "fusion-core": FUSION_CORE_CHECKS,
    "morphisms": MORPHISM_CHECKS,
    "factor": FACTOR_CHECKS,
    "krs": KRS_CHECKS,
}
SUITES["all"] = [c for suite in SUITES.values() for c in suite]


def run_suite(name: str) -> list[CheckResult]:
    if name not in SUITES:
        raise SuiteUnknown(
            f"unknown suite {name!r}; choose from {sorted(SUITES)}"
        )
    return [_run(check_name, fn) for check_name, fn in SUITES[name]]
