"""Exact arithmetic for small finite groups.

Groups are given by permutation generators or a Cayley table and carry a
dense element table over ids ``0..n-1`` with id 0 the identity.  All
operations are deterministic: permutation input is closed by BFS over the
generators in input order, subgroups are ordered by (order, member tuple)
and every search breaks ties by least id.
"""

from __future__ import annotations

from functools import cached_property
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence

from .errors import (
    ClosureTooLarge,
    GroupTooLarge,
    GuardrailExceeded,
    NotAbelian,
    NotBijection,
    NotPGroup,
    NotSubgroup,
    UsageError,
)
from . import guardrails
from .records import Record

Perm = tuple[int, ...]
# a map on a subgroup P: the image of each member of P, in member order
MapTuple = tuple[int, ...]

# Dense n*n multiplication tables are kept up to this order; larger
# permutation groups multiply by composing tuples through a lookup dict.
_DENSE_MUL_LIMIT = 1500


# ---------------------------------------------------------------------------
# permutation helpers


def perm_compose(a: Perm, b: Perm) -> Perm:
    """Right-to-left composition: apply ``b`` first, then ``a``."""
    return tuple(a[b[i]] for i in range(len(a)))


def perm_inverse(a: Perm) -> Perm:
    out = [0] * len(a)
    for i, v in enumerate(a):
        out[v] = i
    return tuple(out)


def cycles_to_perm(cycles: Sequence[Sequence[int]], points: int) -> Perm:
    """Build a 0-based image tuple from 1-based cycle lists."""
    images = list(range(points))
    for cycle in cycles:
        if not cycle:
            continue
        for pt in cycle:
            if not (1 <= pt <= points):
                raise NotBijection(f"cycle point {pt} outside 1..{points}")
        for i, pt in enumerate(cycle):
            src = pt - 1
            dst = cycle[(i + 1) % len(cycle)] - 1
            if images[src] != src:
                raise NotBijection(f"point {pt} appears in two cycles")
            images[src] = dst
    seen = set(images)
    if len(seen) != points:
        raise NotBijection("cycle data does not define a bijection")
    return tuple(images)


def perm_to_cycles(perm: Perm) -> list[list[int]]:
    """1-based cycle lists, fixed points omitted, least point first."""
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cycle = []
        pt = start
        while not seen[pt]:
            seen[pt] = True
            cycle.append(pt + 1)
            pt = perm[pt]
        cycles.append(cycle)
    return cycles


def perm_word(perm: Perm) -> str:
    cycles = perm_to_cycles(perm)
    if not cycles:
        return "()"
    return "".join("(" + " ".join(str(p) for p in c) + ")" for c in cycles)


# ---------------------------------------------------------------------------
# FiniteGroup


class FiniteGroup:
    """A finite group with elements 0..n-1 and id 0 the identity."""

    def __init__(
        self,
        mul_rows: Optional[list[list[int]]],
        generators: Sequence[int],
        *,
        degree: int = 0,
        perms: Optional[Sequence[Perm]] = None,
        prime_hint: Optional[int] = None,
        order: Optional[int] = None,
    ):
        if mul_rows is None and perms is None:
            raise ValueError("need a multiplication table or permutations")
        self._mul = mul_rows
        self.perms = tuple(perms) if perms is not None else None
        self.order = order if order is not None else (
            len(mul_rows) if mul_rows is not None else len(self.perms)
        )
        self.generators = tuple(generators)
        self.degree = degree
        self.prime_hint = prime_hint
        self._perm_index = (
            {p: i for i, p in enumerate(self.perms)} if self.perms is not None else None
        )
        self._inv: Optional[list[int]] = None
        self._orders: Optional[list[int]] = None
        self._abelian: Optional[bool] = None
        self._subgroups: Optional[list["Subgroup"]] = None
        self._shape: Optional[LatticeShape] = None
        self._lattice: Optional[SubgroupLattice] = None
        # Subgroup.as_group() results, keyed by member tuple, so equal
        # subgroups share one standalone group (and its lattice).
        self._as_groups: dict[tuple[int, ...], tuple[FiniteGroup, tuple[int, ...]]] = {}
        self._center: Optional[tuple[int, ...]] = None
        self._conj_classes: Optional[tuple[tuple[int, ...], ...]] = None

    # -- basic arithmetic -------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        if self._mul is not None:
            return self._mul[a][b]
        return self._perm_index[perm_compose(self.perms[a], self.perms[b])]

    def inv(self, a: int) -> int:
        if self._inv is None:
            self._build_inverses()
        return self._inv[a]

    def conj(self, g: int, x: int) -> int:
        """g x g^-1."""
        return self.mul(self.mul(g, x), self.inv(g))

    def conj_row(self, g: int, xs: Iterable[int]) -> list[int]:
        """[g x g^-1 for x in xs], read off the dense rows when there are."""
        rows = self._mul
        if rows is None:
            return [self.conj(g, x) for x in xs]
        g_inv = self.inv(g)
        row = rows[g]
        return [rows[row[x]][g_inv] for x in xs]

    def products(self, xs: Sequence[int], ys: Sequence[int]) -> list[int]:
        """[x y for x in xs for y in ys], read off the dense rows when
        there are."""
        rows = self._mul
        if rows is None:
            return [self.mul(x, y) for x in xs for y in ys]
        return [rows[x][y] for x in xs for y in ys]

    def power(self, x: int, n: int) -> int:
        out, base = 0, x
        n = n % max(self.element_order(x), 1) if n < 0 else n
        while n:
            if n & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            n >>= 1
        return out

    def element_order(self, x: int) -> int:
        if self._orders is None:
            self._orders = [0] * self.order
        if self._orders[x]:
            return self._orders[x]
        n, y = 1, x
        while y != 0:
            y = self.mul(y, x)
            n += 1
        self._orders[x] = n
        return n

    def _build_inverses(self) -> None:
        inv = [0] * self.order
        if self.perms is not None and self._mul is None:
            for i, p in enumerate(self.perms):
                inv[i] = self._perm_index[perm_inverse(p)]
        else:
            for a in range(self.order):
                row = self._mul[a]
                for b in range(self.order):
                    if row[b] == 0:
                        inv[a] = b
                        break
        self._inv = inv

    @property
    def is_abelian(self) -> bool:
        if self._abelian is None:
            self._abelian = all(
                self.mul(a, b) == self.mul(b, a)
                for a in range(self.order)
                for b in range(a + 1, self.order)
            )
        return self._abelian

    def element_repr(self, x: int) -> str:
        if self.perms is not None:
            return perm_word(self.perms[x])
        return f"g{x}"

    # -- construction -----------------------------------------------------

    @classmethod
    def from_permutations(
        cls,
        gens: Sequence[Perm],
        *,
        points: Optional[int] = None,
        prime_hint: Optional[int] = None,
    ) -> "FiniteGroup":
        """Close permutation generators by BFS in input order."""
        limit = guardrails.active().closure_limit
        if not gens:
            raise NotBijection("generator list is empty")
        k = points if points is not None else len(gens[0])
        norm = []
        for g in gens:
            g = tuple(g)
            if len(g) != k or sorted(g) != list(range(k)):
                raise NotBijection(f"not a bijection on {k} points: {g}")
            norm.append(g)
        identity = tuple(range(k))
        elements: list[Perm] = [identity]
        index = {identity: 0}
        # the BFS tree: elements[t] = elements[parent[t]] o norm[via[t]],
        # and right[v][x] is the id of elements[x] o norm[v]
        parent, via = [0], [0]
        right: list[list[int]] = [[] for _ in norm]
        queue = [0]
        while queue:
            nxt = []
            for x in queue:
                p = elements[x]
                for v, g in enumerate(norm):
                    q = perm_compose(p, g)
                    t = index.get(q)
                    if t is None:
                        t = index[q] = len(elements)
                        elements.append(q)
                        parent.append(x)
                        via.append(v)
                        nxt.append(t)
                        if len(elements) > limit:
                            raise ClosureTooLarge(f"closure exceeds guardrail {limit}")
                    right[v].append(t)
            queue = nxt
        n = len(elements)
        mul_rows = None
        if n <= _DENSE_MUL_LIMIT:
            mul_rows = _table_from_tree(parent, via, right)
        gen_ids = []
        for g in norm:
            gid = index[g]
            if gid != 0 and gid not in gen_ids:
                gen_ids.append(gid)
        if not gen_ids and n == 1:
            gen_ids = []
        return cls(
            mul_rows,
            gen_ids,
            degree=k,
            perms=elements,
            prime_hint=prime_hint,
            order=n,
        )

    @classmethod
    def from_cayley(
        cls,
        table: Sequence[Sequence[int]],
        *,
        generators: Optional[Sequence[int]] = None,
        prime_hint: Optional[int] = None,
    ) -> "FiniteGroup":
        """Build from a row-major Cayley table; id 0 must be the identity."""
        n = len(table)
        rows = [list(r) for r in table]
        for r in rows:
            if len(r) != n or any(not (0 <= v < n) for v in r):
                raise NotSubgroup("malformed Cayley table")
        for x in range(n):
            if rows[0][x] != x or rows[x][0] != x:
                raise NotSubgroup("id 0 is not a two-sided identity")
        for x in range(n):
            if 0 not in rows[x]:
                raise NotSubgroup(f"element {x} has no inverse")
        group = cls(rows, generators or [], prime_hint=prime_hint)
        if generators is None:
            group = cls(rows, group._greedy_generators(), prime_hint=prime_hint)
        elif len(_closure_ids(group, group.generators)) != n:
            raise NotSubgroup("declared generators do not generate")
        # Light's associativity test over the generating set.
        for g in group.generators or range(n):
            rg = rows[g]
            for x in range(n):
                xg = rows[x][g]
                rx = rows[x]
                for y in range(n):
                    if rows[xg][y] != rx[rg[y]]:
                        raise NotSubgroup("multiplication table is not associative")
        return group

    def _greedy_generators(self) -> list[int]:
        gens: list[int] = []
        have = {0}
        while len(have) < self.order:
            x = min(i for i in range(self.order) if i not in have)
            gens.append(x)
            have = set(_closure_ids(self, gens))
        return gens

    # -- subgroups ----------------------------------------------------------

    def full_subgroup(self) -> "Subgroup":
        return Subgroup(self, range(self.order), _checked=True)

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup(self, (0,))

    def generated_subgroup(self, seed: Iterable[int]) -> "Subgroup":
        return Subgroup(self, _closure_ids(self, seed), _checked=True)

    def center_members(self) -> tuple[int, ...]:
        if self._center is None:
            self._center = tuple(
                x
                for x in range(self.order)
                if all(self.mul(x, y) == self.mul(y, x) for y in range(self.order))
            )
        return self._center

    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        if self._conj_classes is None:
            seen = [False] * self.order
            classes = []
            for x in range(self.order):
                if seen[x]:
                    continue
                orbit = sorted({self.conj(g, x) for g in range(self.order)})
                for y in orbit:
                    seen[y] = True
                classes.append(tuple(orbit))
            self._conj_classes = tuple(classes)
        return self._conj_classes

    def verify_axioms(self) -> None:
        """Exhaustive associativity/identity/inverse check (small groups)."""
        n = self.order
        for x in range(n):
            if self.mul(0, x) != x or self.mul(x, 0) != x:
                raise NotSubgroup("identity law fails")
            ix = self.inv(x)
            if self.mul(x, ix) != 0 or self.mul(ix, x) != 0:
                raise NotSubgroup("inverse law fails")
        for a in range(n):
            for b in range(n):
                ab = self.mul(a, b)
                for c in range(n):
                    if self.mul(ab, c) != self.mul(a, self.mul(b, c)):
                        raise NotSubgroup("associativity fails")

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order}, degree={self.degree})"


def _table_from_tree(
    parent: Sequence[int], via: Sequence[int], right: Sequence[Sequence[int]]
) -> list[list[int]]:
    """Dense multiplication rows from a BFS tree of the elements.

    Element t is element parent[t] times generator via[t], and
    ``right[v][x]`` is the id of x times generator v.  Associativity gives
    g*t = (g*parent[t])*g', which fills the row of each generator, and
    a*t = parent[a]*(g*t) for g = via[a], which reads every other row off
    its parent's row and a generator's row.  No permutation is composed.
    """
    n = len(parent)
    gen_rows = []
    for r in right:
        row = [r[0]] * n
        for t in range(1, n):
            row[t] = right[via[t]][row[parent[t]]]
        gen_rows.append(row)
    rows = [list(range(n))]
    for a in range(1, n):
        rows.append(list(map(rows[parent[a]].__getitem__, gen_rows[via[a]])))
    return rows


def _closure_ids(G: FiniteGroup, seed: Iterable[int]) -> tuple[int, ...]:
    members = {0}
    queue = [0]
    gens = [g for g in seed if g != 0]
    for g in gens:
        if g not in members:
            members.add(g)
            queue.append(g)
    while queue:
        x = queue.pop()
        for g in gens:
            y = G.mul(x, g)
            if y not in members:
                members.add(y)
                queue.append(y)
            z = G.mul(g, x)
            if z not in members:
                members.add(z)
                queue.append(z)
    return tuple(sorted(members))


# ---------------------------------------------------------------------------
# Subgroup


class Subgroup:
    """A subgroup of a FiniteGroup, stored as a sorted member tuple."""

    def __init__(self, parent: FiniteGroup, members: Iterable[int], *, _checked: bool = False):
        self.parent = parent
        self.members = tuple(sorted(set(members)))
        self.member_set = frozenset(self.members)
        if 0 not in self.member_set:
            raise NotSubgroup("subgroup must contain the identity")
        if not _checked:
            for x in self.members:
                if parent.inv(x) not in self.member_set:
                    raise NotSubgroup(f"not closed under inversion at {x}")
                for y in self.members:
                    if parent.mul(x, y) not in self.member_set:
                        raise NotSubgroup(f"not closed under product at ({x},{y})")
        self._pos: Optional[dict[int, int]] = None
        self._canonical_index: Optional[int] = None

    @property
    def order(self) -> int:
        return len(self.members)

    def key(self) -> tuple[int, tuple[int, ...]]:
        return (len(self.members), self.members)

    @property
    def canonical_index(self) -> int:
        """Position in the parent's canonical subgroup ordering."""
        if self._canonical_index is None:
            subgroups(self.parent)
            self._canonical_index = self.parent._shape.idx[self.members]
        return self._canonical_index

    def pos(self, x: int) -> int:
        if self._pos is None:
            self._pos = {m: i for i, m in enumerate(self.members)}
        return self._pos[x]

    def __contains__(self, x: int) -> bool:
        return x in self.member_set

    def issubset(self, other: "Subgroup") -> bool:
        return self.member_set <= other.member_set

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subgroup)
            and self.parent is other.parent
            and self.members == other.members
        )

    def __hash__(self) -> int:
        return hash((id(self.parent), self.members))

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order}, members={self.members})"

    # -- structure ---------------------------------------------------------

    def as_group(self) -> tuple[FiniteGroup, tuple[int, ...]]:
        """Standalone FiniteGroup plus the member map new-id -> parent-id.

        New ids follow the sorted member order, so nested conversions are
        consistent with each other.  The result is kept on the parent, so
        equal subgroups return the same group object.
        """
        cached = self.parent._as_groups.get(self.members)
        if cached is None:
            to_parent = self.members
            pos = {m: i for i, m in enumerate(to_parent)}
            rows = [
                [pos[self.parent.mul(a, b)] for b in to_parent] for a in to_parent
            ]
            perms = None
            degree = 0
            if self.parent.perms is not None:
                perms = tuple(self.parent.perms[m] for m in to_parent)
                degree = self.parent.degree
            gens = [pos[g] for g in _greedy_generating_sequence(self.parent, self.members)]
            grp = FiniteGroup(
                rows,
                gens,
                degree=degree,
                perms=perms,
                prime_hint=self.parent.prime_hint,
            )
            cached = self.parent._as_groups[self.members] = (grp, to_parent)
        return cached

    def generating_sequence(self) -> tuple[int, ...]:
        """Greedy irredundant generating sequence (parent ids)."""
        return _greedy_generating_sequence(self.parent, self.members)

    def centralizer_in(self, ambient: Optional["Subgroup"] = None) -> "Subgroup":
        G = self.parent
        pool = ambient.members if ambient is not None else range(G.order)
        members = [
            g
            for g in pool
            if all(G.mul(g, x) == G.mul(x, g) for x in self.members)
        ]
        return Subgroup(G, members, _checked=True)

    def normalizer_in(self, ambient: Optional["Subgroup"] = None) -> "Subgroup":
        G = self.parent
        pool = ambient.members if ambient is not None else range(G.order)
        members = [
            g
            for g in pool
            if all(G.conj(g, x) in self.member_set for x in self.members)
        ]
        return Subgroup(G, members, _checked=True)

    def is_normal(self) -> bool:
        G = self.parent
        return all(
            G.conj(g, x) in self.member_set
            for g in G.generators or range(G.order)
            for x in self.members
        )

    def intersection(self, other: "Subgroup") -> "Subgroup":
        return Subgroup(self.parent, self.member_set & other.member_set, _checked=True)


def _greedy_generating_sequence(G: FiniteGroup, members: Sequence[int]) -> tuple[int, ...]:
    member_set = set(members)
    seq: list[int] = []
    have = {0}
    while have != member_set:
        x = min(m for m in members if m not in have)
        seq.append(x)
        have = set(_closure_ids(G, seq))
    # drop redundant generators; for p-groups this makes the set minimal
    changed = True
    while changed and len(seq) > 1:
        changed = False
        for i in range(len(seq)):
            trial = seq[:i] + seq[i + 1 :]
            if set(_closure_ids(G, trial)) == member_set:
                seq = trial
                changed = True
                break
    return tuple(seq)


# ---------------------------------------------------------------------------
# GroupHom


class GroupHom:
    """A homomorphism between subgroups, possibly of different groups.

    ``images[i]`` is the image (an id in the codomain's parent group) of
    ``domain.members[i]``.
    """

    __slots__ = ("domain", "codomain", "images")

    def __init__(
        self,
        domain: Subgroup,
        codomain: Subgroup,
        images: Sequence[int],
        *,
        _checked: bool = False,
    ):
        self.domain = domain
        self.codomain = codomain
        self.images = tuple(images)
        if not _checked:
            self.validate()

    def validate(self) -> None:
        if len(self.images) != self.domain.order:
            raise NotSubgroup("image tuple length mismatch")
        cod_set = self.codomain.member_set
        if any(v not in cod_set for v in self.images):
            raise NotSubgroup("image leaves the codomain")
        A, B = self.domain.parent, self.codomain.parent
        mem = self.domain.members
        for i, x in enumerate(mem):
            for j, y in enumerate(mem):
                xy = A.mul(x, y)
                if self.images[self.domain.pos(xy)] != B.mul(self.images[i], self.images[j]):
                    raise NotSubgroup(f"not a homomorphism at ({x},{y})")

    def map(self, x: int) -> int:
        return self.images[self.domain.pos(x)]

    @property
    def is_injective(self) -> bool:
        return len(set(self.images)) == len(self.images)

    def compose(self, inner: "GroupHom") -> "GroupHom":
        """self o inner (apply ``inner`` first)."""
        if not frozenset(inner.images) <= self.domain.member_set:
            raise NotSubgroup("morphisms are not composable")
        return GroupHom(
            inner.domain,
            self.codomain,
            tuple(self.map(v) for v in inner.images),
            _checked=True,
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupHom)
            and self.domain == other.domain
            and self.codomain == other.codomain
            and self.images == other.images
        )

    def __hash__(self) -> int:
        return hash((self.domain.members, self.codomain.members, self.images))

    def __repr__(self) -> str:
        return f"GroupHom({self.domain.members} -> {self.images})"


# ---------------------------------------------------------------------------
# subgroup enumeration


def mask_of(members: Iterable[int]) -> int:
    """The bitmask of a set of element ids: bit x for member x."""
    return sum(1 << x for x in set(members))


def members_of(mask: int) -> tuple[int, ...]:
    """The element ids of a bitmask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


class LatticeShape:
    """The canonical subgroup lattice of one multiplication table.

    ``members`` lists the member tuples in (order, member tuple) order,
    ``masks`` the same sets as bitmasks and ``gens`` a generating sequence
    of each, the one the enumerator reached it by; ``idx`` and
    ``mask_index`` find a subgroup by its members or its mask.  The
    member positions and the maximal subgroups are built on first use.
    ``conj`` (the rows ``conj[g][x] = g x g^-1``) and ``trans``
    (``transporters(conj)``) come from ``conjugation_tables``, kept by the
    enumerator of a dense p-group, which needs them, or else filled on
    first use by the group's ``SubgroupLattice``, and written nowhere
    else.  All of it
    depends only on the table, so one shape serves every equal table.
    """

    def __init__(
        self,
        lattice: dict[tuple[int, ...], tuple[int, ...]],
        conj: Optional[list[list[int]]] = None,
        trans: Optional[list[dict[int, int]]] = None,
    ):
        self.members = list(lattice)
        self.gens = list(lattice.values())
        self.idx = {m: i for i, m in enumerate(self.members)}
        self.masks = [mask_of(m) for m in self.members]
        self.mask_index = {m: i for i, m in enumerate(self.masks)}
        self._pos: Optional[list[dict[int, int]]] = None
        self._maximal: Optional[list[tuple[int, ...]]] = None
        self.conj = conj
        self.trans = trans

    def positions(self) -> list[dict[int, int]]:
        """The position of each member in each member tuple, by index."""
        if self._pos is None:
            self._pos = [{m: t for t, m in enumerate(ms)} for ms in self.members]
        return self._pos

    def maximal_of(self) -> list[tuple[int, ...]]:
        """The maximal subgroups of each subgroup, by index, each list in
        ascending index order.

        In a p-group the maximal subgroups of K are exactly the subgroups
        of index p that lie in K (``_maximal_of_index_p``);
        ``verify.containment_plain`` compares every pair instead.  In any
        other group that misses some (Sym3 has maximal subgroups of index
        2 and 3), so there this raises ``NotPGroup``.  The bases of fusion
        systems, their subgroups and products are p-groups."""
        if self._maximal is None:
            order = len(self.members[-1])
            p = _least_prime(order)
            if not _is_p_power(order, p):
                raise NotPGroup(
                    f"maximal subgroups are read off index {p} only in a p-group, "
                    f"not in a group of order {order}"
                )
            self._maximal = _maximal_of_index_p(self.members, self.gens, p)
        return self._maximal


def _maximal_of_index_p(
    members: list[tuple[int, ...]], gens: list[tuple[int, ...]], p: int
) -> list[tuple[int, ...]]:
    """Maximal subgroups in a p-group: the subgroups of order |K|/p in K,
    in ascending index order.

    K contains H exactly when it contains each generator of H.  So for
    each order, every element x gets the mask (over the subgroups of that
    order) of those holding x, and the subgroups of order p|H| above H
    are the AND of those masks over the generators of H."""
    block: dict[int, list[int]] = {}
    for j, m in enumerate(members):
        block.setdefault(len(m), []).append(j)
    maximal: list[list[int]] = [[] for _ in members]
    for order, above in block.items():
        below = block.get(order // p) if order > 1 else None
        if not below:
            continue
        holding = [0] * len(members[-1])
        for bit, k in enumerate(above):
            for x in members[k]:
                holding[x] |= 1 << bit
        every = (1 << len(above)) - 1
        for h in below:
            tops = every
            for x in gens[h]:
                tops &= holding[x]
            while tops:
                low = tops & -tops
                maximal[above[low.bit_length() - 1]].append(h)
                tops ^= low
    return [tuple(hs) for hs in maximal]


def _least_prime(n: int) -> int:
    """The least prime dividing n (2 for n = 1)."""
    p = 2
    while n > 1 and n % p:
        p += 1
    return p


# Canonical lattices for the life of the process, keyed by multiplication
# table.  The exhaustive factor searches build the same few tables over
# and over, as standalone subgroups and as direct products with no parent.
_LATTICES: dict[tuple[tuple[int, ...], ...], LatticeShape] = {}


def subgroups(G: FiniteGroup) -> list[Subgroup]:
    """All subgroups of ``G`` in canonical (order, member tuple) order."""
    if G._subgroups is None:
        limit = guardrails.active().subgroup_limit
        if G.order > limit:
            raise GroupTooLarge(
                f"subgroup enumeration limited to order {limit}, got {G.order}"
            )
        if G._mul is None:
            shape = enumerate_subgroups(G)
        else:
            key = tuple(map(tuple, G._mul))
            shape = _LATTICES.get(key)
            if shape is None:
                shape = _LATTICES[key] = enumerate_subgroups(G)
        subs = [Subgroup(G, m, _checked=True) for m in shape.members]
        for i, s in enumerate(subs):
            s._canonical_index = i
        G._shape = shape
        G._subgroups = subs
    return G._subgroups


def enumerate_subgroups(G: FiniteGroup) -> LatticeShape:
    """The shape of the lattice of ``G``: the member tuples of all its
    subgroups in canonical order, each with the generating sequence it
    was reached by.

    A p-group with a dense table, the trivial group included, is
    extended normally by index p (``_extend_normally``), and the shape
    keeps the conjugation rows and transporters that needs; any other
    group closes each subgroup extended by one element of each coset
    (``_extend_by_cosets``).  ``subgroups`` runs this once per
    multiplication table; ``verify.enumerate_subgroups_plain`` (one
    closure per element) is its twin.
    """
    p = _least_prime(G.order)
    conj = trans = None
    if _is_p_power(G.order, p) and G._mul is not None:
        conj, trans = conjugation_tables(G)
        found = list(_extend_normally(G, p, trans).values())
    else:
        found = list(_extend_by_cosets(G).items())
    return LatticeShape(dict(sorted(found, key=lambda mg: (len(mg[0]), mg[0]))), conj, trans)


def conjugation_tables(G: FiniteGroup) -> tuple[list[list[int]], list[dict[int, int]]]:
    """The rows ``conj[g][x] = g x g^-1`` over all of ``G`` and their
    ``transporters``, the two tables a ``LatticeShape`` keeps."""
    every = range(G.order)
    conj = [G.conj_row(g, every) for g in every]
    return conj, transporters(conj)


def transporters(conj: Sequence[Sequence[Optional[int]]]) -> list[dict[Optional[int], int]]:
    """``trans[x][y]``: the mask of the rows g with ``conj[g][x] = y``,
    for every column x and every y in it.  On the rows
    ``conj[g][x] = g x g^-1`` of a group that is the mask of the g with
    g x g^-1 = y; the rows may also be fewer than the columns, and hold
    None (``fusion_of_group`` marks a conjugate outside S so)."""
    trans: list[dict[Optional[int], int]] = [{} for _ in conj[0]]
    for g, row in enumerate(conj):
        bit = 1 << g
        for t, y in zip(trans, row):
            t[y] = t.get(y, 0) | bit
    return trans


def conjugation_cosets(
    rows: Sequence[Sequence[Optional[int]]],
    trans: list[dict[Optional[int], int]],
    todo: int,
    members: Sequence[int],
    gens: Sequence[int],
) -> tuple[list[MapTuple], list[int]]:
    """The distinct maps on P (these members and generators) of the rows
    in the mask ``todo``, and beside them the mask of the rows giving each.

    Conjugation rows are homomorphisms, so two agree on P exactly when
    they agree on its generators: the rows that agree with row g, a coset
    g C(P), are the AND over the generators x of P of
    ``trans[x][row_g[x]]`` (``transporters`` of the rows), and one row is
    read per coset.  The rows in ``todo`` send no generator to None."""
    # the trivial subgroup has the one map (0,), which itemgetter of one
    # item would return as 0
    take = itemgetter(*members) if len(members) > 1 else lambda row: (row[0],)
    maps, cosets = [], []
    while todo:
        row = rows[(todo & -todo).bit_length() - 1]
        coset = todo
        for x in gens:
            coset &= trans[x][row[x]]
        todo &= ~coset
        maps.append(take(row))
        cosets.append(coset)
    return maps, cosets


def normalizer_mask(trans: list[dict[int, int]], gens: Sequence[int], mask: int) -> int:
    """N(H) as a mask, for H generated by ``gens`` with member ``mask``:
    the g that conjugate each generator into H, an AND over the
    generators of the transporters into H."""
    out = (1 << len(trans)) - 1
    for x in gens:
        out &= sum(m for y, m in trans[x].items() if mask >> y & 1)
    return out


def _extend_normally(
    G: FiniteGroup, p: int, trans: list[dict[int, int]]
) -> dict[int, tuple[tuple[int, ...], tuple[int, ...]]]:
    """The subgroups of a p-group, by mask, each with its members and
    generating sequence.

    Every maximal subgroup H of a p-group K is normal of index p, so
    K = H<x> = H u xH u ... u x^(p-1)H for any x in K outside H, and that
    x normalizes H and has x^p in H.  So each H is extended only by the
    x in N(H) with x^p in H (N(H) read off the generators of H and the
    transporters ``trans`` of G), K is read off the table rows with no
    closure, and all of K outside H, which gives the same K, is marked
    done at once.
    """
    rows = G._mul
    found = {1: ((0,), ())}
    frontier = [1]
    while frontier:
        nxt = []
        for mask in frontier:
            members, gens = found[mask]
            todo = normalizer_mask(trans, gens, mask) & ~mask
            while todo:
                x = (todo & -todo).bit_length() - 1
                powers = [x]
                for _ in range(p - 2):
                    powers.append(rows[powers[-1]][x])
                if not mask >> rows[powers[-1]][x] & 1:
                    todo &= todo - 1
                    continue
                extension = [z for y in powers for z in map(rows[y].__getitem__, members)]
                k = mask | mask_of(extension)
                todo &= ~k
                if k not in found:
                    found[k] = (tuple(sorted(members + tuple(extension))), gens + (x,))
                    nxt.append(k)
        frontier = nxt
    return found


def _extend_by_cosets(G: FiniteGroup) -> dict[tuple[int, ...], tuple[int, ...]]:
    """The subgroups of any group, each with its generating sequence,
    found by closing each subgroup H extended by one element of each
    coset Hx.

    <H, hx> = <H, x> for h in H, so one closure per coset is enough, and
    every subgroup K is reached: K = <M, x> for a maximal subgroup M < K
    and any x in K outside M.
    """
    trivial = (0,)
    found: dict[tuple[int, ...], tuple[int, ...]] = {trivial: ()}
    frontier = [(trivial, ())]
    while frontier:
        nxt = []
        for members, gens in frontier:
            done = set(members)
            for x in range(1, G.order):
                if x in done:
                    continue
                new_gens = gens + (x,)
                closed = _closure_ids(G, new_gens)
                if closed not in found:
                    found[closed] = new_gens
                    nxt.append((closed, new_gens))
                done.update(_right_coset(G, members, x))
        frontier = nxt
    return found


def _right_coset(G: FiniteGroup, members: Sequence[int], x: int) -> list[int]:
    """The coset {h x : h in H} of the subgroup with these members."""
    return [G.mul(h, x) for h in members]


# ---------------------------------------------------------------------------
# subgroup lattice


class SubgroupLattice:
    """Containment and conjugation data for all subgroups of a group.

    The index tables, member masks and generating sequences come from the
    group's memoized ``LatticeShape``, so groups with equal multiplication
    tables share them.  The conjugation action of the group on its
    subgroups is read off one table of ``g x g^-1`` and one transporter
    table ``trans[x][y]`` (the mask of the g with g x g^-1 = y), both
    kept on the shape: the enumerator of a dense p-group leaves them
    there, and for any other group this class fills them on first use
    (``conjugation_tables``).  ``lattice_of`` keeps one per group.  Every
    per-subgroup set is a bitmask (bit x for element x) read off the
    transporter table as an AND over the generators x of the subgroup P:
    N_S(P) of the transporters of x into P, C_S(P) of ``trans[x][x]``,
    and the coset g C_S(P) of ``trans[x][g x g^-1]``.
    ``coset_rows`` keeps, for each subgroup P, one row of the conjugation
    table restricted to P per coset of C_S(P) in N_S(P), with the coset
    as a mask; Aut_S(P) is the set of those rows.  Member tuples are made
    only at the edge (``normalizer``, ``centralizer``), for callers
    outside the kernels.
    """

    def __init__(self, G: FiniteGroup):
        self.group = G
        self.subs = subgroups(G)
        shape = self.shape = G._shape
        self.idx = shape.idx
        self.member_sets = [s.member_set for s in self.subs]
        self.pos = shape.positions()
        self.full_index = self.idx[self.subs[-1].members]
        self.trivial_index = self.idx[(0,)]
        self._bits = [1 << x for x in range(G.order)]
        self._normalizers: Optional[list[int]] = None
        self._centralizers: Optional[list[int]] = None
        self._coset_rows: dict[int, tuple[tuple[MapTuple, int], ...]] = {}
        self._aut_s: dict[int, frozenset[MapTuple]] = {}
        self._cyclic: Optional[tuple[tuple[int, tuple[int, ...]], ...]] = None

    @cached_property
    def maximal_of(self) -> list[tuple[int, ...]]:
        """The maximal subgroups of each subgroup, by index
        (``LatticeShape.maximal_of``).  Read on a group that is not a
        p-group it raises ``NotPGroup``; the rest of the lattice serves
        any group."""
        return self.shape.maximal_of()

    def index_of(self, members: Iterable[int]) -> int:
        key = tuple(sorted(members))
        if key not in self.idx:
            raise NotSubgroup(f"{key} is not a subgroup of the base group")
        return self.idx[key]

    def image_index(self, m: MapTuple) -> Optional[int]:
        """The index of the subgroup whose members ``m`` lists in some
        order without repeats, found by mask; None when there is none."""
        mask = sum(map(self._bits.__getitem__, m))
        # a repeated entry carries, which leaves fewer bits than entries
        if mask.bit_count() != len(m):
            return None
        return self.shape.mask_index.get(mask)

    def conj_table(self) -> list[list[int]]:
        """``conj[g][x] = g x g^-1`` over the whole group."""
        self.transporter_table()
        return self.shape.conj

    def transporter_table(self) -> list[dict[int, int]]:
        """``trans[x][y]``: the mask of the g with g x g^-1 = y, for every
        x and every conjugate y of x (``transporters``)."""
        shape = self.shape
        if shape.trans is None:
            shape.conj, shape.trans = conjugation_tables(self.group)
        return shape.trans

    def normalizer_mask(self, i: int) -> int:
        """N_S(P_i) as a mask: the g that conjugate each generator of P_i
        into P_i."""
        if self._normalizers is None:
            self._normalizers = _normalizer_masks(self.transporter_table(), self.shape)
        return self._normalizers[i]

    def centralizer_mask(self, i: int) -> int:
        """C_S(P_i) as a mask: the AND of ``trans[x][x]`` = C_S(x) over
        the generators x of P_i."""
        if self._centralizers is None:
            trans = self.transporter_table()
            every = (1 << len(trans)) - 1
            centralizers = []
            for gens in self.shape.gens:
                mask = every
                for x in gens:
                    mask &= trans[x][x]
                centralizers.append(mask)
            self._centralizers = centralizers
        return self._centralizers[i]

    def transporter_mask(self, q: int, p: int) -> int:
        """T_S(P_q, P_p) as a mask: the g with g P_q g^-1 <= P_p, an AND
        over the generators of P_q of the transporters into P_p; it is
        not 0 exactly when P_q is S-conjugate into P_p."""
        return normalizer_mask(self.transporter_table(), self.shape.gens[q], self.shape.masks[p])

    def is_conjugation(self, q: int, phi: MapTuple) -> bool:
        """Whether the map ``phi`` on P_q is c_g for some g in S: both
        are homomorphisms, so they agree on P_q when they agree on its
        generators, and the g that do form an AND of transporters."""
        trans, pos = self.transporter_table(), self.pos[q]
        mask = (1 << len(trans)) - 1
        for x in self.shape.gens[q]:
            mask &= trans[x].get(phi[pos[x]], 0)
            if not mask:
                return False
        return True

    def normalizer(self, i: int) -> tuple[int, ...]:
        """Members of N_S(P_i)."""
        return members_of(self.normalizer_mask(i))

    def centralizer(self, i: int) -> tuple[int, ...]:
        """Members of C_S(P_i)."""
        return members_of(self.centralizer_mask(i))

    def coset_rows(self, i: int) -> tuple[tuple[MapTuple, int], ...]:
        """The distinct conjugation maps of N_S(P_i) on P_i, each with the
        mask of the elements giving it, a coset of C_S(P_i)
        (``conjugation_cosets``: a row per element of N_S(P_i) costs three
        to four times as much on ``p2-lattice``).
        ``verify.coset_rows_plain`` multiplies each coset out and sorts it."""
        if i not in self._coset_rows:
            self._coset_rows[i] = tuple(zip(*conjugation_cosets(
                self.conj_table(), self.transporter_table(), self.normalizer_mask(i),
                self.subs[i].members, self.shape.gens[i],
            )))
        return self._coset_rows[i]

    def aut_s(self, i: int) -> frozenset[MapTuple]:
        """Aut_S(P_i): the conjugation maps of N_S(P_i) on P_i."""
        if i not in self._aut_s:
            self._aut_s[i] = frozenset(row for row, _ in self.coset_rows(i))
        return self._aut_s[i]

    def cyclic_generators(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """Each cyclic subgroup's index with the elements x that generate
        it, ascending by index: the powers of x, as a mask, find <x>."""
        if self._cyclic is None:
            G, bits = self.group, self._bits
            by_index: dict[int, list[int]] = {}
            for x in range(G.order):
                mask, y = 1, x
                while y:
                    mask |= bits[y]
                    y = G.mul(y, x)
                by_index.setdefault(self.shape.mask_index[mask], []).append(x)
            self._cyclic = tuple((i, tuple(xs)) for i, xs in sorted(by_index.items()))
        return self._cyclic


def _normalizer_masks(trans: list[dict[int, int]], shape: LatticeShape) -> list[int]:
    """N(P) as a mask for every subgroup P of the shape: the AND over the
    generators x of P of the transporters of x into P."""
    return [normalizer_mask(trans, gens, mask) for gens, mask in zip(shape.gens, shape.masks)]


def lattice_of(G: FiniteGroup) -> SubgroupLattice:
    """The subgroup lattice of ``G``, built once per group."""
    if G._lattice is None:
        G._lattice = SubgroupLattice(G)
    return G._lattice


# ---------------------------------------------------------------------------
# characteristic subgroups


class CharacteristicSubgroups(Record):
    __slots__ = ("center", "derived", "o_p_prime", "o_upper_p_prime")

    def __init__(
        self, center: Subgroup, derived: Subgroup, o_p_prime: Subgroup, o_upper_p_prime: Subgroup
    ) -> None:
        self.center = center
        self.derived = derived
        self.o_p_prime = o_p_prime
        self.o_upper_p_prime = o_upper_p_prime


def characteristic_subgroups(G: FiniteGroup, p: int) -> CharacteristicSubgroups:
    """Center, derived subgroup and the two p-local cores of ``G``.

    O_p'(G) is generated by the closures <C> of the conjugacy classes C
    for which |<C>| is prime to p, found in one pass over the classes:
    each <C> is normal; every normal p'-subgroup N is generated by the
    <C> with C in N, and all of those are p'; and a product of normal
    p'-subgroups is p'.  A class inside the closures joined so far adds
    nothing and is skipped.  ``verify.o_p_prime_plain`` (the largest
    normal p'-member of ``subgroups(G)``) is its twin.

    G' is the normal closure of the commutators of the generators (modulo
    it the generators commute), generated by their conjugacy classes;
    ``verify.derived_plain`` (every commutator) is its twin.
    """
    center = Subgroup(G, G.center_members(), _checked=True)
    gens = G.generators or range(G.order)
    commutators = {G.mul(G.mul(x, y), G.inv(G.mul(y, x))) for x in gens for y in gens}
    derived = G.generated_subgroup(
        x for cls in G.conjugacy_classes() if not commutators.isdisjoint(cls) for x in cls
    )

    coprime = {0}
    for cls in G.conjugacy_classes():
        if cls[0] not in coprime:
            closed = _closure_ids(G, cls)
            if len(closed) % p:
                coprime.update(closed)
    o_p_prime = G.generated_subgroup(coprime)

    p_elements = [x for x in range(G.order) if _is_p_power(G.element_order(x), p)]
    o_upper = G.generated_subgroup(p_elements)
    return CharacteristicSubgroups(center, derived, o_p_prime, o_upper)


def _is_p_power(n: int, p: int) -> bool:
    return p_part(n, p) == n


# Miller-Rabin to these bases has no false positive below 3.3 * 10^24
# (Sorenson and Webster, 2015)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Whether ``n`` is a prime, in a few modular powers however large
    it is (trial division up to its square root takes minutes at 2^61):
    exact below 3.3 * 10^24, and a strong probable prime to twelve
    bases above."""
    if n < 2:
        return False
    for a in _PRIME_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def p_part(n: int, p: int) -> int:
    """The largest power of ``p`` dividing ``n``; a ``p`` below 2 is a
    usage error, since dividing out 1 never ends."""
    if p < 2:
        raise UsageError(f"{p} is not a prime")
    out = 1
    while n % p == 0:
        n //= p
        out *= p
    return out


# ---------------------------------------------------------------------------
# normal closure, Sylow subgroups


def normal_closure(G: FiniteGroup, X: Subgroup) -> Subgroup:
    """Smallest normal subgroup of ``G`` containing ``X``."""
    if X.parent is not G:
        raise NotSubgroup("subgroup belongs to a different group")
    members = set(X.members)  # a subgroup at every step
    while True:
        conjugates = {
            G.conj(g, x) for g in (G.generators or range(G.order)) for x in members
        }
        if conjugates <= members:
            return Subgroup(G, members, _checked=True)
        members = set(_closure_ids(G, members | conjugates))


def sylow(G: FiniteGroup, p: int) -> Subgroup:
    """A deterministic Sylow p-subgroup (least member tuple among all).

    A p-subgroup H = <gens> grows by the least p-element outside it that
    normalizes it, tested on ``gens``; then the least conjugate is found
    by masks: of two sets of one size, the one holding the least element
    of their symmetric difference has the smaller member tuple.  The
    conjugates come one per coset of N_G(S) (``conjugate_masks``: 9
    conjugations on Sym4 x Sym4 at p = 2, where one per element made
    576); ``verify.sylow_plain`` conjugates by every element."""
    target = p_part(G.order, p)
    if target == 1:
        return G.trivial_subgroup()
    gens: list[int] = []
    members: tuple[int, ...] = (0,)
    while len(members) < target:
        mask = mask_of(members)
        extension = next(
            (
                x
                for x in range(1, G.order)
                if not mask >> x & 1
                and _is_p_power(G.element_order(x), p)
                and all(mask >> y & 1 for y in G.conj_row(x, gens))
            ),
            None,
        )
        if extension is None:
            break
        gens.append(extension)
        members = _closure_ids(G, gens)
    if len(members) != target:
        raise NotSubgroup("maximal p-subgroup is not of full p-part order")
    best = mask_of(members)
    for cand in conjugate_masks(G, members, gens):
        diff = cand ^ best
        if cand & diff & -diff:
            best = cand
    return Subgroup(G, members_of(best), _checked=True)


def conjugate_masks(G: FiniteGroup, members: Sequence[int], gens: Sequence[int]) -> list[int]:
    """The distinct conjugates g H g^-1 of the subgroup H with these
    members and generators, as masks, in the order of the least g giving
    each.  g H g^-1 depends only on the coset g N_G(H), and N_G(H) is the
    g that conjugate the generators of H into H, so one g per coset is
    conjugated and the rest of its coset is skipped."""
    mask = mask_of(members)
    every = range(G.order)
    normalizer = [g for g in every if all(mask >> y & 1 for y in G.conj_row(g, gens))]
    seen = bytearray(G.order)
    out = []
    for g in every:
        if not seen[g]:
            for x in G.products([g], normalizer):
                seen[x] = 1
            out.append(mask_of(G.conj_row(g, members)))
    return out


# ---------------------------------------------------------------------------
# homomorphism enumeration


def _search_space(
    P: Subgroup, Q: Subgroup, injective: bool
) -> tuple[tuple[int, ...], list[list[int]]]:
    """The generating sequence of ``P`` and the image candidates of each
    generator in ``Q``: same order when ``injective``, dividing order
    otherwise.  Raises GuardrailExceeded when the candidate space is over
    ``hom_search_limit``."""
    limit = guardrails.active().hom_search_limit
    A, B = P.parent, Q.parent
    gens = _greedy_generating_sequence(A, P.members)
    candidates: list[list[int]] = []
    space = 1
    for g in gens:
        og = A.element_order(g)
        if injective:
            opts = [q for q in Q.members if B.element_order(q) == og]
        else:
            opts = [q for q in Q.members if og % B.element_order(q) == 0]
        candidates.append(opts)
        space *= max(len(opts), 1)
        if space > limit:
            raise GuardrailExceeded(f"hom search space {space} exceeds {limit}")
    return gens, candidates


def _spread(
    A: FiniteGroup,
    B: FiniteGroup,
    assigned: dict[int, int],
    keys: Sequence[int],
    labels: Optional[Sequence[int]],
) -> Optional[dict[int, int]]:
    """Close a partial map over the subgroup generated by ``keys``.

    ``assigned`` holds the images of ``keys`` and may hold a closed map on
    a subgroup they generate.  Checking ``f(x g) = f(x) f(g)`` for every
    reached x and every key g makes the result a homomorphism.  None on
    any inconsistency, and, given class ``labels``, at the first element
    whose image breaks the class map (a fusion-preserving map sends each
    F-class into one F-class, since f(phi(x)) = f_*(phi)(f(x))).
    """
    known = dict(assigned)
    known[0] = 0
    class_map: dict[int, int] = {}
    if labels is not None:
        for x, v in known.items():
            if class_map.setdefault(labels[x], labels[v]) != labels[v]:
                return None
    queue = list(known)
    while queue:
        x = queue.pop()
        for g in keys:
            y = A.mul(x, g)
            img = B.mul(known[x], known[g])
            if y in known:
                if known[y] != img:
                    return None
            else:
                if labels is not None and (
                    class_map.setdefault(labels[y], labels[img]) != labels[img]
                ):
                    return None
                known[y] = img
                queue.append(y)
    return known


def _leaves(
    A: FiniteGroup,
    B: FiniteGroup,
    gens: Sequence[int],
    candidates: Sequence[Sequence[int]],
    assigned: dict[int, int],
    step: int,
    injective: bool,
    labels: Optional[Sequence[int]],
):
    """Extend a closed map on ``gens[:step]`` by each candidate image of
    the next generator, depth first; yields every closed leaf."""
    if step == len(gens):
        yield assigned
        return
    g = gens[step]
    for q in candidates[step]:
        trial = dict(assigned)
        trial[g] = q
        closed = _spread(A, B, trial, gens[: step + 1], labels)
        if closed is None:
            continue
        if injective and len(set(closed.values())) != len(closed):
            continue
        yield from _leaves(A, B, gens, candidates, closed, step + 1, injective, labels)


def _homs(
    P: Subgroup, Q: Subgroup, injective: bool, labels: Optional[Sequence[int]] = None
) -> list[GroupHom]:
    """Homomorphisms P -> Q (only the injective ones when ``injective``)
    by backtracking on generators.

    ``labels`` (for self-maps of a fusion system's base group) gives each
    element its F-class; branches that split a class are cut.  Results
    come in lexicographic order of the image tuple over ``P.members``.
    """
    if injective and P.order > Q.order:
        return []
    gens, candidates = _search_space(P, Q, injective)
    if not gens:
        return [GroupHom(P, Q, (0,), _checked=True)]
    results = {
        tuple(leaf[m] for m in P.members)
        for leaf in _leaves(
            P.parent, Q.parent, gens, candidates, {}, 0, injective, labels
        )
    }
    return [GroupHom(P, Q, images, _checked=True) for images in sorted(results)]


def injective_homs(P: Subgroup, Q: Subgroup) -> list[GroupHom]:
    """All injective homomorphisms P -> Q, in image-tuple order."""
    return _homs(P, Q, True)


def all_homs(P: Subgroup, Q: Subgroup) -> list[GroupHom]:
    """All homomorphisms P -> Q, in image-tuple order."""
    return _homs(P, Q, False)


def _transversal(
    G: FiniteGroup, gens: Sequence[int], candidates: list[list[int]], i: int, labels, keep
) -> list[Perm]:
    """One automorphism per image of ``gens[i]`` among those that fix
    ``gens[:i]``: the first leaf of its search that passes ``keep``."""
    fixed = _spread(G, G, {g: g for g in gens[:i]}, gens[:i], None)
    level = []
    for q in candidates[i]:
        pinned = candidates[:i] + [[q]] + candidates[i + 1 :]
        for leaf in _leaves(G, G, gens, pinned, fixed, i, True, labels):
            u = tuple(leaf[x] for x in range(G.order))
            if keep is None or keep(u):
                level.append(u)
                break
    return level


def automorphism_chain(
    G: FiniteGroup,
    labels: Optional[Sequence[int]] = None,
    keep: Optional[Callable[[Perm], bool]] = None,
) -> tuple[tuple[int, ...], list[list[Perm]]]:
    """A base of ``G`` and the levels of a stabiliser chain of a subgroup
    H of Aut(G): all of it, or the maps that send each class of
    ``labels`` into one class and pass ``keep`` (e.g. Aut(S,F)).

    The generating sequence b_1..b_k is the base: level i holds one map
    u of H fixing b_1..b_{i-1} for each image of b_i.  H lies inside the
    class-respecting maps, and the labelled search cuts only branches
    that split a class, so the first leaf that passes ``keep`` under a
    pinned prefix is a transversal element of H.  Every map of H is
    u_1 o ... o u_k in exactly one way, because the b_i generate G, so
    |H| is the product of the level sizes, found by a few first-leaf
    searches, not one leaf per map; ``walk_chain`` lists H."""
    full = G.full_subgroup()
    gens, candidates = _search_space(full, full, True)
    return gens, [_transversal(G, gens, candidates, i, labels, keep) for i in range(len(gens))]


def walk_chain(G: FiniteGroup, chain: tuple, commuting: Sequence[Perm] = ()) -> list[Perm]:
    """Every u_1 o ... o u_k with u_i in level i of ``chain`` (a base
    b_1..b_k of G and levels, level i fixing b_1..b_{i-1}) that commutes
    with each automorphism w in ``commuting``, once, in image-tuple order.
    Top down, a partial product p meets each u of the next level as
    p o u = itemgetter(*u)(p), in C.  A pair (w, b) of ``commuting`` and
    the base is tested, p(w(b)) = w(p(b)), at the first level whose
    prefix <b_1..b_i> holds b and w(b), and a failing branch is cut.
    That is exact: later levels fix the prefix pointwise, and the last
    prefix is G, so every kept product commutes with each w on
    generators."""
    base, levels = chain
    pending = [(w, b) for w in commuting for b in base]
    prods: list[Perm] = [tuple(range(G.order))]
    for i, level in enumerate(levels):
        getters = [itemgetter(*u) for u in level]
        prods = [get(p) for p in prods for get in getters]
        if pending:
            prefix = set(_closure_ids(G, base[: i + 1]))
            due = [(w, b) for w, b in pending if b in prefix and w[b] in prefix]
            pending = [pair for pair in pending if pair not in due]
            prods = [p for p in prods if all(p[w[b]] == w[p[b]] for w, b in due)]
    return sorted(prods)


def automorphisms(G: FiniteGroup) -> list[GroupHom]:
    """Aut(G) in image-tuple order, from ``automorphism_chain``.
    ``injective_homs`` is the exhaustive twin."""
    full = G.full_subgroup()
    return [
        GroupHom(full, full, images, _checked=True)
        for images in walk_chain(G, automorphism_chain(G))
    ]


# ---------------------------------------------------------------------------
# quotients and the Omega-central series


def quotient(G: FiniteGroup, N: Subgroup) -> tuple[FiniteGroup, list[int]]:
    """Quotient by a normal subgroup; returns (G/N, projection id map).

    Cosets are labelled in order of their least member, so the identity
    coset gets id 0.
    """
    if not N.is_normal():
        raise NotSubgroup("quotient by a non-normal subgroup")
    label = [-1] * G.order
    reps: list[int] = []
    for x in range(G.order):
        if label[x] >= 0:
            continue
        rep_id = len(reps)
        reps.append(x)
        for n in N.members:
            label[G.mul(x, n)] = rep_id
    rows = [[label[G.mul(a, b)] for b in reps] for a in reps]
    gens = []
    for g in G.generators:
        q = label[g]
        if q != 0 and q not in gens:
            gens.append(q)
    quo = FiniteGroup(rows, gens, prime_hint=G.prime_hint)
    if not gens and quo.order > 1:
        quo = FiniteGroup(rows, quo._greedy_generators(), prime_hint=G.prime_hint)
    return quo, label


class OmegaSeries(Record):
    __slots__ = ("terms",)

    def __init__(self, terms: tuple[Subgroup, ...]) -> None:
        self.terms = terms


def group_prime(G: FiniteGroup) -> int:
    """The prime p for a p-group; raises otherwise."""
    if G.order == 1:
        return G.prime_hint or 2
    p = _least_prime(G.order)
    if not _is_p_power(G.order, p):
        raise NotPGroup(f"order {G.order} is not a prime power")
    return p


def omega_central_series(S: FiniteGroup) -> OmegaSeries:
    """Ascending series: each quotient is the exponent-p part of the
    quotient's center.  Terminates at S for a finite p-group."""
    p = group_prime(S)
    terms = [S.trivial_subgroup()]
    current = terms[0]
    while current.order < S.order:
        quo, label = quotient(S, current)
        zq = set(quo.center_members())
        omega1 = {q for q in zq if quo.power(q, p) == 0}
        lifted = [x for x in range(S.order) if label[x] in omega1]
        nxt = Subgroup(S, lifted, _checked=True)
        if nxt.order == current.order:
            raise NotPGroup("series stalled; input is not a p-group")
        terms.append(nxt)
        current = nxt
    return OmegaSeries(tuple(terms))


# ---------------------------------------------------------------------------
# Fitting-style splitting for abelian groups


def stable_image_kernel(
    G: FiniteGroup, images: Sequence[int]
) -> tuple[frozenset[int], frozenset[int], int]:
    """Image and kernel of f^n, and n, for the least n >= 1 with
    f^n(G) = f^(n+1)(G): the images shrink until then and stay, and
    |f^n(G)| |ker f^n| = |G|, so the kernels stay too."""
    current = list(images)
    n = 1
    while True:
        nxt = [images[v] for v in current]
        if frozenset(nxt) == frozenset(current):
            break
        current = nxt
        n += 1
    kernel = frozenset(x for x in range(G.order) if current[x] == 0)
    return frozenset(current), kernel, n


def fitting_split(A: FiniteGroup, f: GroupHom) -> tuple[Subgroup, Subgroup]:
    """Split an abelian group under ``f`` into (stable image, nil kernel);
    ``group-core/fitting-split`` asserts that they split it, uniquely."""
    if not A.is_abelian:
        raise NotAbelian("fitting_split requires an abelian group")
    if f.domain.parent is not A or f.codomain.parent is not A:
        raise NotSubgroup("endomorphism must live on the given group")
    if f.domain.order != A.order:
        raise NotSubgroup("endomorphism must be defined on the whole group")
    image, kernel, _ = stable_image_kernel(A, f.images)
    return Subgroup(A, image, _checked=True), Subgroup(A, kernel, _checked=True)


# ---------------------------------------------------------------------------
# direct products


class DirectProduct(Record):
    __slots__ = ("product", "embed1", "embed2", "proj1", "proj2")

    def __init__(
        self,
        product: FiniteGroup,
        embed1: GroupHom,
        embed2: GroupHom,
        proj1: GroupHom,
        proj2: GroupHom,
    ) -> None:
        self.product = product
        self.embed1 = embed1
        self.embed2 = embed2
        self.proj1 = proj1
        self.proj2 = proj2


def direct_product(G1: FiniteGroup, G2: FiniteGroup) -> DirectProduct:
    """External direct product with ids ``(a, b) -> a*|G2| + b``."""
    limit = guardrails.active().closure_limit
    n1, n2 = G1.order, G2.order
    if n1 * n2 > limit:
        raise GroupTooLarge(f"product order {n1 * n2} exceeds {limit}")
    n = n1 * n2

    def enc(a: int, b: int) -> int:
        return a * n2 + b

    rows = []
    for x in range(n):
        a1, b1 = divmod(x, n2)
        row = [0] * n
        for y in range(n):
            a2, b2 = divmod(y, n2)
            row[y] = enc(G1.mul(a1, a2), G2.mul(b1, b2))
        rows.append(row)
    perms = None
    degree = 0
    if G1.perms is not None and G2.perms is not None:
        k1, k2 = G1.degree, G2.degree
        degree = k1 + k2
        perms = []
        for x in range(n):
            a, b = divmod(x, n2)
            pa, pb = G1.perms[a], G2.perms[b]
            perms.append(tuple(pa) + tuple(v + k1 for v in pb))
    gens = [enc(g, 0) for g in G1.generators] + [enc(0, h) for h in G2.generators]
    prod = FiniteGroup(rows, gens, degree=degree, perms=perms, prime_hint=G1.prime_hint)

    full1, full2, fullp = G1.full_subgroup(), G2.full_subgroup(), prod.full_subgroup()
    embed1 = GroupHom(full1, fullp, tuple(enc(a, 0) for a in range(n1)), _checked=True)
    embed2 = GroupHom(full2, fullp, tuple(enc(0, b) for b in range(n2)), _checked=True)
    proj1 = GroupHom(fullp, full1, tuple(x // n2 for x in range(n)), _checked=True)
    proj2 = GroupHom(fullp, full2, tuple(x % n2 for x in range(n)), _checked=True)
    return DirectProduct(prod, embed1, embed2, proj1, proj2)
