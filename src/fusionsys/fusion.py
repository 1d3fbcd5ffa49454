"""Fusion systems over finite p-groups.

A fusion system is stored as the full set of morphisms into the base
group: for each subgroup ``P`` the sorted list of injective homomorphisms
``P -> S`` in the system.  The morphism set ``Hom(P, Q)`` is the slice of
those maps whose image lies in ``Q``; keeping only the maps into ``S``
avoids duplicating every morphism over all valid codomains while staying
equivalent to the per-pair table (any fusion system is closed under
corestriction and extension of the codomain).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

from .errors import (
    GuardrailExceeded,
    NotPGroup,
    NotSaturated,
    NotSubgroup,
    NotSylow,
)
from . import guardrails
from .groups import (
    FiniteGroup,
    GroupHom,
    MapTuple,
    Subgroup,
    SubgroupLattice,
    composer,
    conjugation_cosets,
    group_prime,
    lattice_of,
    mask_of,
    members_of,
    p_part,
    quotient,
    sylow,
    transporters,
)
from .records import Record

if TYPE_CHECKING:
    from .morphisms import FusionMorphism


# ---------------------------------------------------------------------------
# FusionSystem


class FusionSystem:
    """A fusion system over a finite p-group.

    The table must be closed: it holds the conjugation maps of the base,
    only injective maps, and is closed under restriction, composition
    and inverses.  Every internal constructor closes its table, and
    ``serialize.fusion_from_json`` runs ``validate_table`` and
    ``validate_closure`` on a table read from outside.  The generator
    tests of the morphism layer (``class_generators``) are exact only on
    closed tables."""

    def __init__(
        self,
        base: FiniteGroup,
        p: int,
        maps_by_dom: Sequence[Iterable[MapTuple]],
    ):
        self.base = base
        self.p = p
        if p_part(base.order, p) != base.order:
            raise NotPGroup(f"base group order {base.order} is not a power of {p}")
        self.lattice = lattice_of(base)
        if len(maps_by_dom) != len(self.lattice.subs):
            raise NotSubgroup("morphism table does not match the subgroup list")
        self.maps = tuple(tuple(sorted(set(ms))) for ms in maps_by_dom)
        self.map_sets = [frozenset(ms) for ms in self.maps]
        # Iso(P_i, P_j) for every j, filled by one scan of maps[i]
        self._iso_cache: dict[int, dict[int, tuple[MapTuple, ...]]] = {}
        # restrict_full(self, T), keyed by the members of T
        self._restrictions: dict[tuple[int, ...], FusionSystem] = {}
        self._element_classes: Optional[tuple[tuple[int, ...], ...]] = None
        self._subgroup_classes: Optional[tuple[tuple[int, ...], ...]] = None
        # the position of each element's and each subgroup's class in
        # the tuples above, and each element class as a mask
        self._element_class_index: Optional[list[int]] = None
        self._element_class_masks: Optional[list[int]] = None
        self._subgroup_class_index: Optional[list[int]] = None
        self._class_generators: Optional[tuple[tuple[int, MapTuple], ...]] = None
        self._saturation = None
        # set by fusion_of_group: S is a Sylow p-subgroup of a group G
        # and the table is F_S(G), which is saturated
        self._sylow_provenance = False
        self._center: Optional[Subgroup] = None
        self._focal: Optional[Subgroup] = None
        self._focal_generators: Optional[tuple[int, ...]] = None
        # the indices of the F-centric and of the F-radical subgroups
        self._centric_radical: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None
        # self-maps, and Aut(S,F) as (base, stabiliser chain levels), filled by factor
        self._endomorphisms: Optional[list[FusionMorphism]] = None
        self._automorphisms: Optional[list[FusionMorphism]] = None
        self._automorphism_chain: Optional[tuple[tuple[int, ...], list[list[MapTuple]]]] = None

    # -- invariants ---------------------------------------------------------

    def validate_table(self) -> None:
        """Check a table read from outside: it holds every inner
        conjugation map and only injective maps.  Every internal
        constructor builds the inner maps itself."""
        full = self.lattice.full_index
        inner = {tuple(row) for row in self.lattice.conj_table()}
        if not inner <= set(self.maps[full]):
            raise NotSubgroup("table does not contain all inner conjugation maps")
        for i, ms in enumerate(self.maps):
            size = len(self.lattice.subs[i].members)
            for m in ms:
                if len(set(m)) != size:
                    raise NotSubgroup("table contains a non-injective map")

    def validate_closure(self) -> None:
        """Full divisibility/composition/inversion closure check."""
        lat = self.lattice
        for i, ms in enumerate(self.maps):
            members = lat.subs[i].members
            pos = lat.pos[i]
            for m in ms:
                image = tuple(sorted(m))
                j = lat.index_of(image)
                inv = _invert_map(m, members, image)
                if inv not in self.map_sets[j]:
                    raise NotSubgroup("table not closed under inverse isomorphisms")
                for e in lat.maximal_of[i]:
                    sub = tuple(m[pos[x]] for x in lat.subs[e].members)
                    if sub not in self.map_sets[e]:
                        raise NotSubgroup("table not closed under restriction")
                for (d2, t2) in self._maps_into(i):
                    comp = tuple(m[pos[v]] for v in t2)
                    if comp not in self.map_sets[d2]:
                        raise NotSubgroup("table not closed under composition")

    def _maps_into(self, i: int):
        lat = self.lattice
        target = lat.member_sets[i]
        for d2, ms in enumerate(self.maps):
            for t2 in ms:
                if set(t2) <= target:
                    yield d2, t2

    # -- queries -------------------------------------------------------------

    def subgroup(self, i: int) -> Subgroup:
        return self.lattice.subs[i]

    def index_of(self, members: Iterable[int]) -> int:
        return self.lattice.index_of(members)

    def hom_maps(self, i: int, j: int) -> tuple[MapTuple, ...]:
        """Morphism maps P_i -> P_j (image constrained to P_j)."""
        target = self.lattice.member_sets[j]
        return tuple(m for m in self.maps[i] if set(m) <= target)

    def iso_maps(self, i: int, j: int) -> tuple[MapTuple, ...]:
        """Isomorphisms P_i -> P_j in table order."""
        return self._iso_buckets(i).get(j, ())

    def _iso_buckets(self, i: int) -> dict[Optional[int], tuple[MapTuple, ...]]:
        """The maps of P_i by the index of their image.  The first call on
        P_i finds the image of each of its maps once and files every
        Iso(P_i, P_j) at the same time."""
        by_image = self._iso_cache.get(i)
        if by_image is None:
            image_index = self.lattice.image_index
            buckets: dict[Optional[int], list[MapTuple]] = {}
            for m in self.maps[i]:
                buckets.setdefault(image_index(m), []).append(m)
            by_image = self._iso_cache[i] = {
                j: tuple(ms) for j, ms in buckets.items()
            }
        return by_image

    def aut_maps(self, i: int) -> tuple[MapTuple, ...]:
        return self.iso_maps(i, i)

    def morphism_count(self) -> int:
        return sum(len(ms) for ms in self.maps)

    def has_map(self, i: int, m: MapTuple) -> bool:
        return m in self.map_sets[i]

    # -- conjugacy -----------------------------------------------------------

    def element_classes(self) -> tuple[tuple[int, ...], ...]:
        """The F-classes of elements.  Every table the engine builds or
        loads is closed under restriction, so phi(x) for phi on any P
        containing x is also the image of x under phi restricted to <x>:
        each x is joined only with its images under the maps on <x>
        (``verify.element_classes_plain`` joins along every map)."""
        if self._element_classes is None:
            lat = self.lattice
            joins = (
                (x, m[lat.pos[i][x]])
                for i, xs in lat.cyclic_generators() for m in self.maps[i] for x in xs
            )
            classes, self._element_class_index = _classes(self.base.order, joins)
            self._element_classes = classes
            self._element_class_masks = [mask_of(cls) for cls in classes]
        return self._element_classes

    def element_class_of(self, x: int) -> tuple[int, ...]:
        classes = self.element_classes()
        return classes[self._element_class_index[x]]

    def subgroup_classes(self) -> tuple[tuple[int, ...], ...]:
        """The F-classes of subgroups, by index: P_i is joined with the
        image of each of its maps."""
        if self._subgroup_classes is None:
            k = len(self.lattice.subs)
            joins = ((i, j) for i in range(k) for j in self._iso_buckets(i))
            self._subgroup_classes, self._subgroup_class_index = _classes(k, joins)
        return self._subgroup_classes

    def subgroup_class_of(self, i: int) -> tuple[int, ...]:
        classes = self.subgroup_classes()
        return classes[self._subgroup_class_index[i]]

    def __eq__(self, other) -> bool:
        if not isinstance(other, FusionSystem):
            return NotImplemented
        return fusion_equal(self, other)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"FusionSystem(|S|={self.base.order}, p={self.p}, "
            f"subgroups={len(self.lattice.subs)}, morphisms={self.morphism_count()})"
        )


def _classes(
    n: int, joins: Iterable[tuple[int, int]]
) -> tuple[tuple[tuple[int, ...], ...], list[int]]:
    """The classes of 0..n-1 under the equivalence that the pairs
    ``joins`` generate, each ascending, in the order of their least
    members, and the position of the class of each of 0..n-1 (a
    union-find that keeps the least member as the root)."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in joins:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
    roots = [find(x) for x in range(n)]
    buckets: dict[int, list[int]] = {}
    for x, r in enumerate(roots):
        buckets.setdefault(r, []).append(x)
    # each root is the least member of its class, so the buckets are
    # filed in the order of their least members
    position = {r: c for c, r in enumerate(buckets)}
    return tuple(map(tuple, buckets.values())), [position[r] for r in roots]


def _invert_map(m: MapTuple, members: tuple[int, ...], image: tuple[int, ...]) -> MapTuple:
    back = {v: members[t] for t, v in enumerate(m)}
    return tuple(back[y] for y in image)


def fusion_equal(F1: FusionSystem, F2: FusionSystem) -> bool:
    """Entrywise equality: same base table, same subgroups, same morphisms."""
    if F1 is F2:
        return True
    G1, G2 = F1.base, F2.base
    if G1.order != G2.order or F1.p != F2.p:
        return False
    if G1 is not G2:
        for a in range(G1.order):
            for b in range(G1.order):
                if G1.mul(a, b) != G2.mul(a, b):
                    return False
    if [s.members for s in F1.lattice.subs] != [s.members for s in F2.lattice.subs]:
        return False
    return F1.maps == F2.maps


# ---------------------------------------------------------------------------
# construction from a finite group


def fusion_of_group(G: FiniteGroup, p: int, S: Optional[Subgroup] = None) -> FusionSystem:
    """The conjugation fusion system of ``G`` on a Sylow p-subgroup.

    Conjugation by g is a homomorphism, so its row on S is fixed by the
    images of the generators of S: one row is kept per distinct image,
    that is per coset of C_G(S), with None for a conjugate outside S.
    For each P the rows that send P into S are those that send its
    generators into S, and rows that agree on the generators of P agree
    on P, so they give one map per coset of C_G(P) among them, read off
    the transporters of the rows (``trans[x][y]``, the rows sending x to
    y) by ``groups.conjugation_cosets``, the walk of
    ``SubgroupLattice.coset_rows``.  ``verify.fusion_table_plain``
    conjugates by every element.  The system is marked saturated by
    provenance (``saturation_report``)."""
    if S is None:
        S = sylow(G, p)
    else:
        if S.parent is not G:
            raise NotSylow("supplied subgroup belongs to a different group")
        if S.order != p_part(G.order, p):
            raise NotSylow(
                f"subgroup of order {S.order} is not Sylow at p={p} in a group of order {G.order}"
            )
    SG, to_parent = S.as_group()
    from_parent = {pid: i for i, pid in enumerate(to_parent)}
    lat = lattice_of(SG)
    gens = [to_parent[x] for x in SG.generators]
    seen: set[tuple[int, ...]] = set()
    rows: list[list[Optional[int]]] = []
    for g in range(G.order):
        key = tuple(G.conj_row(g, gens))
        if key not in seen:
            seen.add(key)
            rows.append(list(map(from_parent.get, G.conj_row(g, to_parent))))
    trans = transporters(rows)
    every = (1 << len(rows)) - 1
    maps: list[list[MapTuple]] = []
    for members, sub_gens in zip(lat.shape.members, lat.shape.gens):
        todo = every
        for x in sub_gens:
            todo &= every ^ trans[x].get(None, 0)
        maps.append(conjugation_cosets(rows, trans, todo, members, sub_gens)[0])
    F = FusionSystem(SG, p, maps)
    F._sylow_provenance = True
    return F


def inner_fusion(S: FiniteGroup) -> FusionSystem:
    """The fusion system of a p-group on itself (conjugation only)."""
    p = group_prime(S)
    return fusion_of_group(S, p, S.full_subgroup())


def class_generators(F: FusionSystem) -> tuple[tuple[int, MapTuple], ...]:
    """Morphisms (domain index, map) that generate ``F`` together with the
    conjugation maps of S: for each F-class of subgroups with root R,
    the automorphisms of R outside Aut_S(R) and one isomorphism from R
    onto each other member.  ``F`` is closed under composition and
    inverses, so Iso_F(P, Q) = tau_Q Aut_F(R) tau_P^-1 for these
    isomorphisms tau.  Aut_S(R) <= Aut_F(R) has |N_S(R)|/|C_S(R)|
    maps, so Aut_S(R) is listed only when Aut_F(R) has more.  Built once
    per system."""
    if F._class_generators is None:
        lat = F.lattice
        gens = []
        for cls in F.subgroup_classes():
            r = cls[0]
            auts = F.aut_maps(r)
            if len(auts) * lat.centralizer_mask(r).bit_count() > lat.normalizer_mask(r).bit_count():
                inner = lat.aut_s(r)
                gens += [(r, a) for a in auts if a not in inner]
            for q in cls[1:]:
                isos = F.iso_maps(r, q)
                if not isos:
                    raise NotSubgroup("table not closed under composition")
                gens.append((r, isos[0]))
        F._class_generators = tuple(gens)
    return F._class_generators


# ---------------------------------------------------------------------------
# closure engine and generated fusion systems


class _ClassClosure:
    """The isomorphisms of a morphism table, held class by class.

    Subgroups joined by isomorphisms form a class with a root P_r.  Each
    member P_k keeps a transporter ``tau[k]``: P_r -> P_k and its inverse
    ``sigma[k]``, and the root keeps its vertex group A_r <= Aut(P_r), so
    that Iso(P, Q) = tau[Q] o A_r o sigma[P].  ``total`` is the size of
    that table, the sum of |C|^2 |A_r| over the classes C.  Every product
    is read by ``composer`` of its right factor, built once per vertex
    group generator, transporter or sigma[k] that meets many maps.
    """

    def __init__(self, lat: SubgroupLattice, limit: int):
        n = len(lat.subs)
        self.lat = lat
        self.limit = limit
        self.root = list(range(n))
        self.members = [[k] for k in range(n)]
        self.tau = [s.members for s in lat.subs]
        self.sigma = list(self.tau)
        # None stands for the trivial vertex group
        self.group: list[Optional[set[MapTuple]]] = [None] * n
        self.gens: list[list[MapTuple]] = [[] for _ in range(n)]
        # x -> x o g for each generator g, beside ``gens``
        self.then: list[list[Callable[[MapTuple], MapTuple]]] = [[] for _ in range(n)]
        self.total = 0
        self._grow(n, "starting the table")

    def _grow(self, count: int, step: str) -> None:
        self.total += count
        if self.total > self.limit:
            raise GuardrailExceeded(
                f"fusion closure exceeded {self.limit} morphisms while {step}"
            )

    def _weight(self, r: int) -> int:
        """|C|^2 |A_r|: the maps of the class rooted at P_r."""
        group = self.group[r]
        return len(self.members[r]) ** 2 * (1 if group is None else len(group))

    def join(self, d: int, m: MapTuple) -> bool:
        """Add the isomorphism ``m``: P_d -> P_j.  True when it merged two
        classes or grew a vertex group, so that its restrictions are new
        generators too."""
        lat = self.lat
        j = lat.image_index(m)
        r, s = self.root[d], self.root[j]
        # a = sigma[j] o m o tau[d]: P_r -> P_s; a root's tau and sigma
        # are the identity
        a = m if d == r else composer(self.tau[d], lat.pos[d])(m)
        if j != s:
            a = composer(a, lat.pos[j])(self.sigma[j])
        if r != s:
            if len(self.members[r]) < len(self.members[s]):
                r, s, a = s, r, _invert_map(a, lat.subs[r].members, lat.subs[s].members)
            self._merge(r, s, a)
            return True
        return self._extend(r, [a], "growing a vertex group")

    def _merge(self, r: int, s: int, a: MapTuple) -> None:
        """Re-root the class of P_s under P_r along ``a``: P_r -> P_s, and
        conjugate the generators of A_s into A_r."""
        lat = self.lat
        pos_s = lat.pos[s]
        a_inv = _invert_map(a, lat.subs[r].members, lat.subs[s].members)
        then_a = composer(a, pos_s)
        for k in self.members[s]:
            self.tau[k] = then_a(self.tau[k])
            self.sigma[k] = composer(self.sigma[k], pos_s)(a_inv)
            self.root[k] = r
        before = self._weight(r) + self._weight(s)
        self.members[r] += self.members[s]
        self._grow(self._weight(r) - before, "merging two classes")
        moved = [composer(then_a(g), pos_s)(a_inv) for g in self.gens[s]]
        self.members[s], self.group[s], self.gens[s], self.then[s] = [], None, [], []
        self._extend(r, moved, "merging two classes")

    def _extend(self, r: int, candidates: list[MapTuple], step: str) -> bool:
        """Close A_r with each candidate that is not in it yet: old
        elements times the new generator, then new elements times every
        generator."""
        group = self.group[r]
        if group is None:
            group = {self.lat.subs[r].members}
        pos = self.lat.pos[r]
        gens, then = self.gens[r], self.then[r]
        weight = len(self.members[r]) ** 2
        grew = False
        for g in candidates:
            if g in group:
                continue
            grew = True
            gens.append(g)
            then.append(composer(g, pos))
            new: list[MapTuple] = []
            for y in list(map(then[-1], group)):
                if y not in group:
                    group.add(y)
                    new.append(y)
                    self._grow(weight, step)
            for y in new:
                for get in then:
                    z = get(y)
                    if z not in group:
                        group.add(z)
                        new.append(z)
                        self._grow(weight, step)
        if grew:
            self.group[r] = group
        return grew

    def table(self) -> list[set[MapTuple]]:
        """Iso(P, Q) = tau[Q] o A_r o sigma[P], stored by domain."""
        lat = self.lat
        store: list[set[MapTuple]] = [set() for _ in lat.subs]
        for r, cls in enumerate(self.members):
            if self.root[r] != r:
                continue
            if len(cls) == 1 and self.group[r] is None:
                store[r].add(lat.subs[r].members)
                continue
            pos_r = lat.pos[r]
            group = self.group[r] or {lat.subs[r].members}
            # tau[Q] o a for every Q and a, as maps on P_r
            then = [composer(a, pos_r) for a in group]
            onto = [get(self.tau[k]) for k in cls for get in then]
            for k in cls:
                store[k].update(map(composer(self.sigma[k], pos_r), onto))
        return store


def close_maps(
    base: FiniteGroup,
    seeds: Iterable[tuple[int, MapTuple]],
) -> list[set[MapTuple]]:
    """Least morphism table containing the seeds and the inner maps,
    closed under restriction, composition and inversion of isomorphisms
    onto images.  Corestriction and codomain extension are implicit in
    the maps-into-S representation.

    The isomorphisms form a groupoid, held class by class in a
    ``_ClassClosure``.  A map that merges two classes or grows a vertex
    group is a generator, and only generators push their restrictions
    to the maximal subgroups: the restriction of a product of generators
    is a product of their restrictions, so every map of the groupoid
    restricts into it.  Composition needs no step of its own, since m o t
    = m|im(t) o t.  The table is the least fixed point that
    ``FusionSystem.validate_closure`` checks; ``verify.close_maps_plain``,
    the elementwise worklist, is its twin.  The guardrail counts the
    table's size as it grows, so it trips exactly when the finished
    table would exceed ``table_limit``."""
    lat = lattice_of(base)
    classes = _ClassClosure(lat, guardrails.active().table_limit)
    queue: deque[tuple[int, MapTuple]] = deque(
        (lat.full_index, tuple(row)) for row in lat.conj_table()
    )
    queue.extend(seeds)
    seen: set[tuple[int, MapTuple]] = set()
    # the restriction to each maximal subgroup of P_d, as x -> x o incl
    restrict: dict[int, list[tuple[int, Callable[[MapTuple], MapTuple]]]] = {}
    while queue:
        item = queue.popleft()
        d, m = item
        if item in seen or m == lat.subs[d].members:
            continue
        seen.add(item)
        if classes.join(d, m):
            if d not in restrict:
                restrict[d] = [
                    (e, composer(lat.subs[e].members, lat.pos[d])) for e in lat.maximal_of[d]
                ]
            queue.extend((e, get(m)) for e, get in restrict[d])
    return classes.table()


def generated_fusion(
    S: FiniteGroup,
    gens: Sequence[GroupHom],
    *,
    p: Optional[int] = None,
) -> FusionSystem:
    """Smallest fusion system over ``S`` containing the inner maps and the
    given injective homomorphisms between subgroups of ``S``."""
    p = p or group_prime(S)
    lat = lattice_of(S)
    seeds = []
    for h in gens:
        if h.domain.parent is not S or h.codomain.parent is not S:
            raise NotSubgroup("generators must connect subgroups of the base group")
        if not h.is_injective:
            raise NotSubgroup("generators must be injective")
        seeds.append((lat.index_of(h.domain.members), h.images))
    store = close_maps(S, seeds)
    return FusionSystem(S, p, store)


# ---------------------------------------------------------------------------
# saturation


class SaturationFailure(Record):
    __slots__ = ("class_rep", "axiom", "phi", "n_phi")

    def __init__(
        self, class_rep: int, axiom: str, phi: Optional[GroupHom], n_phi: Optional[Subgroup]
    ) -> None:
        self.class_rep = class_rep
        self.axiom = axiom
        self.phi = phi
        self.n_phi = n_phi


class ClassReport(Record):
    __slots__ = ("members", "witness", "failure")

    def __init__(
        self, members: tuple[int, ...], witness: Optional[int], failure: Optional[SaturationFailure]
    ) -> None:
        self.members = members
        self.witness = witness
        self.failure = failure


class SaturationReport(Record):
    __slots__ = ("verdict", "per_class", "continuity")

    def __init__(
        self,
        verdict: bool,
        per_class: tuple[ClassReport, ...],
        continuity: str = "vacuous for a finite base group",
    ) -> None:
        self.verdict = verdict
        self.per_class = per_class
        self.continuity = continuity


def is_fully_automized(F: FusionSystem, i: int) -> bool:
    """|Aut_F(P_i) : Aut_S(P_i)| is prime to p.  That Aut_S(P_i) lies in
    Aut_F(P_i), so that the index is whole, holds on every closed table
    and is checked over the orbit battery by ``fusion-core/automizers``."""
    return (len(F.aut_maps(i)) // len(F.lattice.aut_s(i))) % F.p != 0


def control_subgroup(F: FusionSystem, q_idx: int, phi: MapTuple, p_idx: int) -> Subgroup:
    """N_phi: the elements g of N_S(Q) whose conjugation transports
    through phi into Aut_S(P).  The test reads c_g on Q only, so it runs
    once per coset of C_S(Q) in N_S(Q) (``SubgroupLattice.coset_rows``),
    and the cosets that pass are joined as masks."""
    lat = F.lattice
    pos_q = lat.pos[q_idx]
    aut_s_p = lat.aut_s(p_idx)
    back = {v: t for t, v in enumerate(phi)}
    # positions in Q of the preimages of the members of P
    preimages = [back[y] for y in lat.subs[p_idx].members]
    mask = 0
    for row, coset in lat.coset_rows(q_idx):
        if tuple(phi[pos_q[row[t]]] for t in preimages) in aut_s_p:
            mask |= coset
    # every subgroup is in the lattice, so this lookup is the closure check
    n_idx = lat.shape.mask_index.get(mask)
    if n_idx is None:
        raise NotSubgroup(f"{members_of(mask)} is not a subgroup of the base group")
    return lat.subs[n_idx]


def is_receptive(
    F: FusionSystem, i: int
) -> tuple[bool, Optional[MapTuple], Optional[int], Optional[Subgroup]]:
    """Check receptivity of subgroup ``i``; on failure also return the
    failing isomorphism (as a map from the failing class member) and its
    control subgroup.  Every isomorphism Q -> P_i from the class is
    tested in table order except the S-conjugations
    (``SubgroupLattice.is_conjugation``), which always extend: for
    phi = c_g with g in S, N_phi = N_S(Q), and c_g on N_S(Q) is in F.  So
    the first failing phi is the one a test of every phi finds
    (``verify.is_receptive_plain``).  A map psi on N_phi extends phi when
    it agrees with phi on the generators of Q: psi restricted to Q and
    phi are homomorphisms."""
    lat = F.lattice
    for q_idx in F.subgroup_class_of(i):
        gens = lat.shape.gens[q_idx]
        pos_q = lat.pos[q_idx]
        for phi in F.iso_maps(q_idx, i):
            if lat.is_conjugation(q_idx, phi):
                continue
            n_phi = control_subgroup(F, q_idx, phi, i)
            n_idx = n_phi.canonical_index
            pos_n = lat.pos[n_idx]
            at = [(pos_n[x], phi[pos_q[x]]) for x in gens]
            if not any(all(psi[t] == y for t, y in at) for psi in F.maps[n_idx]):
                return False, phi, q_idx, n_phi
    return True, None, None, None


def saturation_report(F: FusionSystem) -> SaturationReport:
    """Scan every conjugacy class for a fully automized receptive member.

    F_S(G) with S a Sylow p-subgroup of G is saturated (Puig; Broto, Levi
    and Oliver 2003), and in a saturated system P is fully automized and
    receptive exactly when P is fully normalized (Aschbacher, Kessar and
    Oliver 2011, Part I, section 2).  So on a system that
    ``fusion_of_group`` built no test runs: each class's witness is the
    member the scan stops at, its first of largest |N_S(P)|
    (``fully_normalized``).  Every other system is scanned;
    ``fusion-core/saturation-by-provenance`` compares the two on every
    group system of the suites."""
    if F._saturation is None:
        if F._sylow_provenance:
            F._saturation = SaturationReport(True, tuple(
                ClassReport(cls, fully_normalized(F, cls), None)
                for cls in F.subgroup_classes()
            ))
        else:
            F._saturation = saturation_scan(F, is_receptive)
    return F._saturation


def fully_normalized(F: FusionSystem, cls: tuple[int, ...]) -> int:
    """The first member of the subgroup class ``cls`` of largest N_S(P)."""
    sizes = [F.lattice.normalizer_mask(i).bit_count() for i in cls]
    return cls[sizes.index(max(sizes))]


def saturation_scan(
    F: FusionSystem,
    receptive: Callable[
        [FusionSystem, int],
        tuple[bool, Optional[MapTuple], Optional[int], Optional[Subgroup]],
    ],
) -> SaturationReport:
    """The report of ``saturation_report``, with ``receptive`` as the
    receptivity test (``verify`` passes its plain twin)."""
    reports = []
    verdict = True
    for cls in F.subgroup_classes():
        witness = None
        for i in cls:
            if is_fully_automized(F, i):
                ok, _, _, _ = receptive(F, i)
                if ok:
                    witness = i
                    break
        failure = None
        if witness is None:
            rep = cls[0]
            if not is_fully_automized(F, rep):
                failure = SaturationFailure(rep, "fully_automized", None, None)
            else:
                _, phi, q_idx, n_phi = receptive(F, rep)
                hom = None
                if phi is not None:
                    hom = GroupHom(
                        F.lattice.subs[q_idx],
                        F.base.full_subgroup(),
                        phi,
                        _checked=True,
                    )
                failure = SaturationFailure(rep, "receptive", hom, n_phi)
            verdict = False
        reports.append(ClassReport(cls, witness, failure))
    return SaturationReport(verdict, tuple(reports))


def is_saturated(F: FusionSystem) -> bool:
    return saturation_report(F).verdict


# ---------------------------------------------------------------------------
# structural invariants


class ConjugacyData(Record):
    __slots__ = ("subgroup_classes", "element_classes")

    def __init__(
        self,
        subgroup_classes: tuple[tuple[int, ...], ...],
        element_classes: tuple[tuple[int, ...], ...],
    ) -> None:
        self.subgroup_classes = subgroup_classes
        self.element_classes = element_classes


def conjugacy(F: FusionSystem) -> ConjugacyData:
    return ConjugacyData(F.subgroup_classes(), F.element_classes())


def is_central_subgroup(F: FusionSystem, i: int) -> bool:
    """Extension test: every morphism phi on Q extends over QP by the
    identity on the candidate P.  QP is read off the product rows and
    found by mask, and each phi is looked up among the restrictions to Q
    of the maps on QP that fix P pointwise."""
    lat = F.lattice
    G = F.base
    P = lat.subs[i]
    if not P.member_set <= set(G.center_members()):
        return False
    for q_idx, ms in enumerate(F.maps):
        Q = lat.subs[q_idx]
        d_idx = lat.shape.mask_index[mask_of(G.products(Q.members, P.members))]
        pos_d = lat.pos[d_idx]
        pos_q = [pos_d[x] for x in Q.members]
        pos_p = [pos_d[z] for z in P.members]
        extended = {
            tuple(psi[t] for t in pos_q)
            for psi in F.maps[d_idx]
            if all(psi[t] == z for t, z in zip(pos_p, P.members))
        }
        if not extended.issuperset(ms):
            return False
    return True


def _known_saturated(F: FusionSystem) -> bool:
    """True when ``F`` is saturated by provenance (``fusion_of_group``)
    or a saturation report of ``F`` is cached with a True verdict; no
    test is run."""
    return F._sylow_provenance or (F._saturation is not None and F._saturation.verdict)


def center_of(F: FusionSystem) -> Subgroup:
    """Subgroup generated by all central subgroups.

    Every central subgroup lies in the set Fix of elements of Z(S) whose
    F-class is a single element: a morphism defined at z in a central Z
    extends over Z by the identity there, so it fixes z.  So when <Fix>
    is itself central it is the answer; otherwise the central subgroups
    inside Fix are joined one by one.

    For a saturated F, <Fix> is central, so on a system that
    ``fusion_of_group`` built, or once a True saturation verdict is
    cached, no extension test runs.  Let Z = <Fix> <= Z(S) and let
    phi: P -> S be in F.  Take P* in the F-class of P that is receptive,
    an isomorphism alpha: P -> P* in F, and beta := alpha o phi^-1, an
    isomorphism phi(P) -> P* in F.  Z centralizes P, so Z lies in
    N_alpha and alpha extends to an alpha' on PZ; alpha' sends each z in
    Fix into its F-class {z}, so alpha' is the identity on Z.  Likewise
    beta extends to beta' on phi(P)Z, the identity on Z, an isomorphism
    onto P*Z.  Then beta'^-1 o alpha' restricts to
    beta^-1 o alpha = phi on P and to the identity on Z, so it extends
    phi over PZ by the identity on Z.
    """
    if F._center is not None:
        return F._center
    G = F.base
    z_s = set(G.center_members())
    fixed = {cls[0] for cls in F.element_classes() if len(cls) == 1} & z_s
    hull = G.generated_subgroup(fixed)
    if (
        hull.order == 1
        or _known_saturated(F)
        or is_central_subgroup(F, F.lattice.idx[hull.members])
    ):
        F._center = hull
        return hull
    members: set[int] = {0}
    for i, sub in enumerate(F.lattice.subs):
        if sub.member_set <= fixed and is_central_subgroup(F, i):
            members |= sub.member_set
    F._center = G.generated_subgroup(members)
    return F._center


def focal_of(F: FusionSystem) -> Subgroup:
    """Subgroup generated by x * y^-1 over all fused pairs."""
    if F._focal is not None:
        return F._focal
    G = F.base
    gens: set[int] = set()
    for cls in F.element_classes():
        for x in cls:
            for y in cls:
                gens.add(G.mul(x, G.inv(y)))
    focal = G.generated_subgroup(gens)
    F._focal = focal
    return focal


def focal_generators(F: FusionSystem) -> tuple[int, ...]:
    """An irredundant generating sequence of foc(F), found once per
    system: a homomorphism fixes foc(F) exactly when it fixes these."""
    if F._focal_generators is None:
        F._focal_generators = focal_of(F).generating_sequence()
    return F._focal_generators


class SubgroupClassification(Record):
    __slots__ = ("strongly_closed", "centric", "radical")

    def __init__(self, strongly_closed: bool, centric: bool, radical: bool) -> None:
        self.strongly_closed = strongly_closed
        self.centric = centric
        self.radical = radical


def is_strongly_closed(F: FusionSystem, i: int) -> bool:
    """Every F-class meeting P_i lies in P_i, tested on class masks."""
    F.element_classes()
    index, class_masks = F._element_class_index, F._element_class_masks
    mask = F.lattice.shape.masks[i]
    return all(class_masks[index[x]] | mask == mask for x in F.lattice.subs[i].members)


def is_centric(F: FusionSystem, i: int) -> bool:
    lat = F.lattice
    masks = lat.shape.masks
    return all(
        lat.centralizer_mask(j) | masks[j] == masks[j] for j in F.subgroup_class_of(i)
    )


def aut_table(F: FusionSystem, i: int) -> tuple[list[MapTuple], list[list[int]]]:
    """Aut_F(P_i) in map order with the identity first (id 0), and its
    Cayley table: row a, column b holds the id of a o b.  Each column is
    read by one ``composer`` of b, then the columns are transposed;
    ``verify.aut_table_plain`` composes every product elementwise."""
    members = F.lattice.subs[i].members
    pos = F.lattice.pos[i]
    elems = [members] + [a for a in sorted(F.aut_maps(i)) if a != members]
    idx = {m: t for t, m in enumerate(elems)}
    cols = [list(map(idx.__getitem__, map(composer(b, pos), elems))) for b in elems]
    return elems, list(map(list, zip(*cols)))


def outer_automorphism_group(F: FusionSystem, i: int) -> tuple[FiniteGroup, list[int]]:
    """Out_F(P) as a finite group plus the label of each Aut_F(P) map."""
    members = F.lattice.subs[i].members
    elems, rows = aut_table(F, i)
    idx = {m: t for t, m in enumerate(elems)}
    conj = F.lattice.conj_table()
    inner = sorted({idx[tuple(conj[x][y] for y in members)] for x in members})
    aut_group = FiniteGroup.from_cayley(rows)
    inner_sub = Subgroup(aut_group, inner, _checked=True)
    quo, label = quotient(aut_group, inner_sub)
    return quo, label


def out_order(F: FusionSystem, i: int) -> int:
    """|Out_F(P_i)| = |Aut_F(P_i)| / |P_i : Z(P_i)|."""
    lat = F.lattice
    center = lat.shape.masks[i] & lat.centralizer_mask(i)
    return len(F.aut_maps(i)) * center.bit_count() // len(lat.subs[i].members)


def is_radical(F: FusionSystem, i: int) -> bool:
    """O_p(Out_F(P_i)) = 1.  When |Out_F(P_i)| is prime to p the group
    has no nontrivial p-subgroup, and when it is a nontrivial power of p
    the group is its own O_p; only the other orders build Out_F(P_i)."""
    order = out_order(F, i)
    share = p_part(order, F.p)
    if share == 1:
        return True
    if share == order:
        return False
    return op_is_trivial(outer_automorphism_group(F, i)[0], F.p)


def op_is_trivial(quo: FiniteGroup, p: int) -> bool:
    """O_p(quo) = 1: the intersection of the conjugates of a Sylow
    p-subgroup is trivial."""
    if quo.order == 1:
        return True
    syl = sylow(quo, p)
    if syl.order == 1:
        return True
    core = set(syl.members)
    for g in range(quo.order):
        core &= {quo.conj(g, x) for x in syl.members}
        if core == {0}:
            return True
    return len(core) == 1


def centric_radical(F: FusionSystem) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The indices of the F-centric and of the F-radical subgroups,
    found once per system and kept on ``F``: ``fusion_invariants``
    reports both and ``alperin_generators`` takes the subgroups in both,
    and a radical test may build Out_F(P) as a group.

    Both are tested on one member of each F-class and hold for the whole
    class: ``is_centric`` tests every member, and an isomorphism
    phi: P -> Q in F carries Aut_F(P) onto Aut_F(Q) and Inn(P) onto
    Inn(Q), so Out_F(P) and Out_F(Q) are isomorphic.
    ``fusion-core/radical-by-order`` compares the lists with the tests of
    every subgroup."""
    if F._centric_radical is None:
        centric: list[int] = []
        radical: list[int] = []
        for cls in F.subgroup_classes():
            if is_centric(F, cls[0]):
                centric += cls
            if is_radical(F, cls[0]):
                radical += cls
        F._centric_radical = (tuple(sorted(centric)), tuple(sorted(radical)))
    return F._centric_radical


def classify_subgroup(F: FusionSystem, P: Subgroup) -> SubgroupClassification:
    i = F.index_of(P.members)
    return SubgroupClassification(
        strongly_closed=is_strongly_closed(F, i),
        centric=is_centric(F, i),
        radical=is_radical(F, i),
    )


class FusionInvariants(Record):
    __slots__ = ("center", "focal", "strongly_closed", "centric", "radical")

    def __init__(
        self,
        center: Subgroup,
        focal: Subgroup,
        strongly_closed: tuple[Subgroup, ...],
        centric: tuple[int, ...],
        radical: tuple[int, ...],
    ) -> None:
        self.center = center
        self.focal = focal
        self.strongly_closed = strongly_closed
        self.centric = centric
        self.radical = radical


def fusion_invariants(F: FusionSystem) -> FusionInvariants:
    strongly = tuple(
        F.lattice.subs[i]
        for i in range(len(F.lattice.subs))
        if is_strongly_closed(F, i)
    )
    centric, radical = centric_radical(F)
    return FusionInvariants(center_of(F), focal_of(F), strongly, centric, radical)


# ---------------------------------------------------------------------------
# full restriction


def restrict_full(F: FusionSystem, T: Subgroup) -> FusionSystem:
    """The full subsystem on the subgroups of ``T``, built once per ``T``
    and kept on ``F``."""
    if T.parent is not F.base:
        raise NotSubgroup("restriction subgroup lives in a different group")
    if T.order == F.base.order:
        return F
    cached = F._restrictions.get(T.members)
    if cached is None:
        cached = F._restrictions[T.members] = _restricted_table(F, T)
    return cached


def _restricted_table(F: FusionSystem, T: Subgroup) -> FusionSystem:
    TG, to_parent = T.as_group()
    from_parent = {pid: t for t, pid in enumerate(to_parent)}
    lat_t = lattice_of(TG)
    t_set = T.member_set
    maps: list[set[MapTuple]] = [set() for _ in lat_t.subs]
    lat = F.lattice
    for i, ms in enumerate(F.maps):
        members = lat.subs[i].members
        if not lat.member_sets[i] <= t_set:
            continue
        local_dom = lat_t.index_of(tuple(from_parent[x] for x in members))
        for m in ms:
            if set(m) <= t_set:
                maps[local_dom].add(tuple(from_parent[v] for v in m))
    return FusionSystem(TG, F.p, maps)


# ---------------------------------------------------------------------------
# Alperin-style generation


def alperin_generators(F: FusionSystem) -> list[tuple[Subgroup, list[GroupHom]]]:
    """Centric-radical subgroups with their automorphisms, which generate
    a saturated ``F`` by Alperin's fusion theorem.  The theorem is not
    re-checked here: ``verify.regenerate_from_alperin`` closes the
    generators again and raises ``GenerationMismatch`` when the table
    differs."""
    if not is_saturated(F):
        raise NotSaturated("generation check requires a saturated system")
    full = F.base.full_subgroup()
    centric, radical = centric_radical(F)
    radical_set = set(radical)
    subs = F.lattice.subs
    return [
        (subs[i], [GroupHom(subs[i], full, m, _checked=True) for m in F.aut_maps(i)])
        for i in centric
        if i in radical_set
    ]
