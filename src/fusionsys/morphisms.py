"""Morphisms between fusion systems, products, commuting subsystems, sums.

A morphism is a group homomorphism between the base groups that pushes
every source morphism to a target morphism; the induced functor is
determined by the underlying map.

Checks made in the call, each on generators (a failure reruns the full
scan, so witnesses are unchanged): the homomorphism law and the push
test ``_pushes_class_generators`` in ``check_morphism`` (the push test
alone in ``FusionMorphism.inverse``); parts that are not kept
restrictions, and the tuples of one class generator and identities, in
``commute_check`` and ``sum_morphisms``.  Composites, kernels, inner
systems, sums and the maps of ``ProductSystem`` are built without a
test; ``fusionsys.verify`` guards each (``morphisms/product-universal``,
``kernel-strongly-closed``, ``restriction-is-subsystem``,
``sum-bookkeeping``).
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional, Sequence

from .errors import (
    InternalInconsistency,
    NotCommuting,
    NotFusionPreserving,
    NotSubgroup,
    NotSubsystem,
    NotSummable,
)
from .groups import (
    FiniteGroup,
    GroupHom,
    MapTuple,
    Subgroup,
    direct_product,
    lattice_of,
    perm_inverse,
)
from .fusion import FusionSystem, class_generators, close_maps, restrict_full
from .records import Record


class FusionMorphism:
    """A fusion-preserving homomorphism between base groups."""

    __slots__ = ("source", "target", "images")

    def __init__(self, source: FusionSystem, target: FusionSystem, images: MapTuple):
        self.source = source
        self.target = target
        self.images = tuple(images)

    def map(self, x: int) -> int:
        return self.images[x]

    @property
    def is_injective(self) -> bool:
        return len(set(self.images)) == len(self.images)

    @property
    def is_surjective(self) -> bool:
        return len(set(self.images)) == self.target.base.order

    @property
    def is_zero(self) -> bool:
        return all(v == 0 for v in self.images)

    def push_map(self, dom_idx: int, m: MapTuple) -> tuple[int, MapTuple]:
        """Image of a source morphism under the induced functor."""
        members = self.source.lattice.subs[dom_idx].members
        out: dict[int, int] = {}
        for t, x in enumerate(members):
            y = self.images[x]
            v = self.images[m[t]]
            if out.setdefault(y, v) != v:
                raise InternalInconsistency("functor image is not well defined")
        new_members = tuple(sorted(out))
        new_idx = self.target.index_of(new_members)
        return (new_idx, tuple(out[y] for y in new_members))

    def image_subgroup(self) -> Subgroup:
        return Subgroup(self.target.base, set(self.images), _checked=True)

    def compose(self, inner: "FusionMorphism") -> "FusionMorphism":
        """self o inner, a morphism since both are."""
        if inner.target is not self.source:
            raise NotSubgroup("morphisms are not composable")
        return FusionMorphism(
            inner.source, self.target, tuple(self.images[v] for v in inner.images)
        )

    def inverse(self) -> "FusionMorphism":
        # a bijection onto a larger system is not invertible as a morphism
        if not (self.is_injective and self.is_surjective):
            raise NotSubgroup("morphism is not invertible")
        m = FusionMorphism(self.target, self.source, perm_inverse(self.images))
        if not _pushes_class_generators(m):
            _push_every_map(m)
        return m

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FusionMorphism)
            and self.source is other.source
            and self.target is other.target
            and self.images == other.images
        )

    def __hash__(self) -> int:
        return hash((id(self.source), id(self.target), self.images))

    def __repr__(self) -> str:
        kind = "iso" if self.is_injective and self.is_surjective else "map"
        return f"FusionMorphism({kind}, |T|={self.source.base.order} -> |S|={self.target.base.order})"


def _coerce_images(E: FusionSystem, F: FusionSystem, f) -> MapTuple:
    if isinstance(f, GroupHom):
        if f.domain.order != E.base.order:
            raise NotSubgroup("morphism must be defined on the whole source group")
        return f.images
    images = tuple(f)
    if len(images) != E.base.order:
        raise NotSubgroup("image tuple does not cover the source group")
    if min(images) < 0 or max(images) >= F.base.order:
        raise NotSubgroup(f"image ids must lie in 0..{F.base.order - 1}")
    return images


def hom_law_on_generators(A: FiniteGroup, B: FiniteGroup, images: MapTuple) -> bool:
    """f(x g) = f(x) f(g) for every x in A and every g in ``A.generators``
    (every g of A when it has none), which makes f a homomorphism.

    x = 1 gives f(1) = 1.  For a positive word w in the generators, and
    one more generator g, f(x w g) = f(x w) f(g) = f(x) f(w) f(g) =
    f(x) f(w g) by induction on the length of w; in a finite group every
    element is a positive word.  So n |gens| products replace n^2.
    ``verify.hom_law_plain`` tests every pair."""
    xs = range(A.order)
    gens = A.generators or xs
    left = A.products(xs, gens)
    right = B.products(images, [images[g] for g in gens])
    return all(images[xg] == v for xg, v in zip(left, right))


def check_morphism(E: FusionSystem, F: FusionSystem, f) -> FusionMorphism:
    """Validate that ``f`` is a homomorphism that pushes every source
    morphism into the target.

    ``f`` must pass ``hom_law_on_generators``; a rejected map goes
    through the scan of every pair, so NotSubgroup names the first
    failing pair (x, y).  Then ``_pushes_class_generators`` decides the
    push, and a map that fails goes through ``_push_every_map``, which
    raises NotFusionPreserving with the first failing source morphism
    (domains scanned largest-first so global obstructions surface
    early); ``verify.check_morphism_plain`` runs that scan alone.
    """
    images = _coerce_images(E, F, f)
    A, B = E.base, F.base
    if not hom_law_on_generators(A, B, images):
        for x in range(A.order):
            for y in range(A.order):
                if images[A.mul(x, y)] != B.mul(images[x], images[y]):
                    raise NotSubgroup(f"not a group homomorphism at ({x},{y})")
    m = FusionMorphism(E, F, images)
    if not _pushes_class_generators(m):
        _push_every_map(m)
    return m


def _pushes_class_generators(m: FusionMorphism) -> bool:
    """For a homomorphism ``m``: the push of every map in
    ``class_generators`` of the source lies in the target.

    This is exact for closed tables: the maps whose push is defined and
    lies in the target are closed under restriction and composition;
    under inverses too, since a pushed map in the target is injective,
    so the push of an inverse is the inverse of the push; and a
    conjugation map c_g pushes to c_m(g).  Those operations build every
    map of the source from its class generators and the conjugation
    maps of its base.  The verify check ``morphisms/push-on-generators``
    compares it with ``verify.check_morphism_plain``."""
    try:
        return all(
            m.target.has_map(*m.push_map(d, phi)) for d, phi in class_generators(m.source)
        )
    except InternalInconsistency:
        return False


def _push_every_map(m: FusionMorphism) -> None:
    """Push every source morphism, largest domains first, and raise
    NotFusionPreserving at the first one whose push is not defined or
    not in the target."""
    E, F = m.source, m.target
    order = sorted(
        range(len(E.lattice.subs)),
        key=lambda i: -len(E.lattice.subs[i].members),
    )
    for dom_idx in order:
        for phi in E.maps[dom_idx]:
            try:
                new_idx, pushed = m.push_map(dom_idx, phi)
            except InternalInconsistency:
                raise NotFusionPreserving(
                    "source morphism has no well-defined image",
                    witness={"domain": E.lattice.subs[dom_idx].members, "map": phi},
                )
            if not F.has_map(new_idx, pushed):
                raise NotFusionPreserving(
                    "pushed morphism is missing from the target",
                    witness={"domain": E.lattice.subs[dom_idx].members, "map": phi},
                )


def identity_morphism(F: FusionSystem) -> FusionMorphism:
    return FusionMorphism(F, F, tuple(range(F.base.order)))


def zero_morphism(E: FusionSystem, F: FusionSystem) -> FusionMorphism:
    return FusionMorphism(E, F, tuple([0] * E.base.order))


# ---------------------------------------------------------------------------
# kernel and image


def kernel(m: FusionMorphism) -> Subgroup:
    """Kernel of the underlying homomorphism, strongly closed in the
    source (the verify check ``morphisms/kernel-strongly-closed``
    asserts it)."""
    return Subgroup(m.source.base, (x for x, y in enumerate(m.images) if y == 0), _checked=True)


def image(m: FusionMorphism) -> FusionSystem:
    """Smallest subsystem of the target containing the functor image,
    returned as a fusion system over the image group."""
    seeds = [
        m.push_map(dom_idx, phi)
        for dom_idx, ms in enumerate(m.source.maps)
        for phi in ms
    ]
    return _inner_from_seeds(m.target, m.image_subgroup(), seeds)


# ---------------------------------------------------------------------------
# subsystem bookkeeping


class Subsystem(Record):
    """A fusion system living on a subgroup of an ambient base group."""

    __slots__ = ("base", "system")

    def __init__(self, base: Subgroup, system: FusionSystem) -> None:
        self.base = base
        self.system = system

    def translated_maps(self) -> list[tuple[tuple[int, ...], MapTuple]]:
        """Morphisms as (domain members, images) in ambient ids."""
        return self._translated((d, mp) for d, ms in enumerate(self.system.maps) for mp in ms)

    def translated_generators(self) -> list[tuple[tuple[int, ...], MapTuple]]:
        """``class_generators`` of the system, in ambient ids."""
        return self._translated(class_generators(self.system))

    def _translated(self, maps: Iterable[tuple[int, MapTuple]]) -> list:
        to_parent, subs = self.base.members, self.system.lattice.subs
        return [
            (tuple(to_parent[x] for x in subs[d].members), tuple(to_parent[v] for v in mp))
            for d, mp in maps
        ]


def _assert_subsystem(F: FusionSystem, T: Subgroup, E: FusionSystem) -> None:
    """``E`` over ``T`` is a subsystem of ``F``.  The system that
    ``restrict_full(F, T)`` keeps (F itself when T = S) is one by
    construction, so it is accepted by identity (the verify check
    ``morphisms/restriction-is-subsystem`` scans every kept one); any
    other ``E`` goes through ``_subsystem_scan``."""
    if T.parent is F.base and E is (
        F if T.order == F.base.order else F._restrictions.get(T.members)
    ):
        return
    _subsystem_scan(F, T, E)


def _subsystem_scan(F: FusionSystem, T: Subgroup, E: FusionSystem) -> None:
    """NotSubsystem unless ``E`` has the induced table of ``T`` and every
    morphism of ``E`` (over ``T``) already belongs to ``F``."""
    if E.base.order != T.order:
        raise NotSubsystem("subsystem base does not match its subgroup")
    if not T.member_set <= set(range(F.base.order)):
        raise NotSubsystem("subsystem subgroup does not live in the base group")
    to_parent = T.members
    local = range(E.base.order)
    if list(map(to_parent.__getitem__, E.base.products(local, local))) != F.base.products(
        to_parent, to_parent
    ):
        raise NotSubsystem("subsystem base is not the induced subgroup table")
    for members, mp in Subsystem(T, E).translated_maps():
        if not F.has_map(F.index_of(members), mp):
            raise NotSubsystem(
                f"subsystem morphism {members} -> {mp} is missing from the ambient system"
            )


def subsystem_of(F: FusionSystem, T: Subgroup) -> Subsystem:
    return Subsystem(T, restrict_full(F, T))


# ---------------------------------------------------------------------------
# products


class ProductSystem:
    """Direct product of fusion systems with embeddings and projections."""

    def __init__(self, factors: Sequence[FusionSystem]):
        if not factors:
            raise NotSubgroup("product needs at least one factor")
        self.factors = list(factors)
        p = factors[0].p
        if any(f.p != p for f in factors):
            raise NotSubgroup("product factors must share the prime")
        if len(factors) == 1:
            F = factors[0]
            self.product = F
            self.components = [tuple(range(F.base.order))]
            self.encode = {
                (x,): x for x in range(F.base.order)
            }
            ident = identity_morphism(F)
            self.embeddings = [ident]
            self.projections = [ident]
            return

        group = factors[0].base
        components = [list(range(group.order))]
        for nxt in (f.base for f in factors[1:]):
            dp = direct_product(group, nxt)
            n2 = nxt.order
            new_components = []
            for comp in components:
                new_components.append([comp[x // n2] for x in range(dp.product.order)])
            new_components.append([x % n2 for x in range(dp.product.order)])
            components = new_components
            group = dp.product
        self.components = [tuple(c) for c in components]
        self.encode = {
            tuple(c[x] for c in self.components): x for x in range(group.order)
        }

        lat = lattice_of(group)
        maps: list[set[MapTuple]] = [set() for _ in lat.subs]
        k = len(factors)
        for w_idx, W in enumerate(lat.subs):
            proj_members = []
            proj_idx = []
            for i, Fi in enumerate(factors):
                mem = tuple(sorted({self.components[i][x] for x in W.members}))
                proj_members.append(mem)
                proj_idx.append(Fi.index_of(mem))
            pos = [
                {m: t for t, m in enumerate(proj_members[i])} for i in range(k)
            ]
            options = [factors[i].maps[proj_idx[i]] for i in range(k)]
            for combo in itertools.product(*options):
                imgs = []
                for x in W.members:
                    parts = tuple(
                        combo[i][pos[i][self.components[i][x]]] for i in range(k)
                    )
                    imgs.append(self.encode[parts])
                maps[w_idx].add(tuple(imgs))
        self.product = FusionSystem(group, p, maps)

        self.embeddings = []
        self.projections = []
        for i, Fi in enumerate(factors):
            emb = []
            for b in range(Fi.base.order):
                key = tuple(b if j == i else 0 for j in range(k))
                emb.append(self.encode[key])
            self.embeddings.append(FusionMorphism(Fi, self.product, tuple(emb)))
            self.projections.append(FusionMorphism(self.product, Fi, self.components[i]))


def product(factors: Sequence[FusionSystem]) -> ProductSystem:
    return ProductSystem(factors)


# ---------------------------------------------------------------------------
# commuting subsystems


class CommuteResult(Record, hidden=("_inner",)):
    """The verdict of ``commute_check``.  The inner product subsystem is
    built from the extension seeds on first use: sums and normal
    complements need only the verdict."""

    __slots__ = ("ambient", "inner_base", "seeds", "_inner")
    __hash__ = None  # type: ignore[assignment]

    def __init__(
        self, ambient: FusionSystem, inner_base: Subgroup, seeds: frozenset[tuple[int, MapTuple]]
    ) -> None:
        self.ambient = ambient
        self.inner_base = inner_base
        self.seeds = seeds
        self._inner: Optional[FusionSystem] = None

    @property
    def inner(self) -> FusionSystem:
        if self._inner is None:
            self._inner = _inner_from_seeds(self.ambient, self.inner_base, self.seeds)
        return self._inner


def commute_check(F: FusionSystem, subsystems: Sequence[Subsystem]) -> CommuteResult:
    """Decide whether subsystems commute in ``F`` (``_commute_seeds``); the
    inner product on the product of the bases is closed when read."""
    seeds = _commute_seeds(F, subsystems)
    bases = [sub.base.members for sub in subsystems]
    return CommuteResult(F, _product_base(F.base, bases), frozenset(seeds))


def _commute_seeds(F: FusionSystem, subsystems: Sequence[Subsystem]) -> set[tuple[int, MapTuple]]:
    """The extension seeds of subsystems that commute in ``F``.

    Uses the morphism-tuple criterion: the base subgroups must commute
    pairwise and every tuple of subsystem morphisms must extend to a
    single morphism of ``F`` on the product of the domains.  It is
    decided on the tuples that hold one class generator of one part and
    the identity on every other base (``_generator_seeds``).  Tuples of
    conjugation maps extend to conjugation maps, and the tuples that
    extend are closed under composition, inverses and restriction, so
    every tuple extends once these do: a tuple is the composite of its
    one-part tuples, and each part's maps come from its class generators
    and conjugation maps (tables must be closed).  The seeds are those
    extensions; they close to the same inner product as the extensions
    of every tuple.  A family that fails goes through ``_commute_scan``,
    every tuple in order, which raises NotCommuting with the first tuple
    that does not extend.  The verify check
    ``morphisms/commuting-criteria-agree`` compares both with the scan
    alone and with the morphism out of the external product.
    """
    if not subsystems:
        raise NotSubgroup("need at least one subsystem")
    for sub in subsystems:
        _assert_subsystem(F, sub.base, sub.system)
    bases = [sub.base.members for sub in subsystems]
    _commute_elementwise(F.base, bases)
    seeds = _generator_seeds(F, bases, [sub.translated_generators() for sub in subsystems])
    return _commute_scan(F, subsystems) if seeds is None else seeds


def _commute_elementwise(G: FiniteGroup, bases: Sequence[tuple[int, ...]]) -> None:
    """NotCommuting names the first pair of elements, from two of the
    bases, that do not commute."""
    for (a, xs), (b, ys) in itertools.combinations(enumerate(bases), 2):
        pair = _noncommuting_pair(G, xs, ys)
        if pair is not None:
            raise NotCommuting(
                "base subgroups do not commute elementwise",
                witness={"pair": (a, b), "elements": pair},
            )


def _noncommuting_pair(
    G: FiniteGroup, xs: Sequence[int], ys: Sequence[int]
) -> Optional[tuple[int, int]]:
    """The first (x, y) of xs x ys, in order, with x y != y x."""
    # x y for every (x, y) in order, against y x in the same order
    yx = G.products(ys, xs)
    for t, xy in enumerate(G.products(xs, ys)):
        i, j = divmod(t, len(ys))
        if xy != yx[j * len(xs) + i]:
            return xs[i], ys[j]
    return None


def _product_base(G: FiniteGroup, bases: Sequence[tuple[int, ...]]) -> Subgroup:
    members = {0}
    for base in bases:
        members = {G.mul(u, x) for u in members for x in base}
    return Subgroup(G, members, _checked=True)


def _generator_seeds(
    F: FusionSystem,
    bases: Sequence[tuple[int, ...]],
    generators: Sequence[Sequence[tuple[tuple[int, ...], MapTuple]]],
) -> Optional[set[tuple[int, MapTuple]]]:
    """The extension in ``F`` of each tuple that holds one generator
    (domain members, map) of part a and the identity on every other
    base, or None when one of them has no extension."""
    seeds: set[tuple[int, MapTuple]] = set()
    for a, gens in enumerate(generators):
        before, after = sum(bases[:a], ()), sum(bases[a + 1 :], ())
        filed = None
        for members, mp in gens:
            if members != filed:
                filed = members
                d_idx, by_restriction = _extensions_by_restriction(
                    F, (*bases[:a], members, *bases[a + 1 :])
                )
            found = by_restriction.get(before + mp + after)
            if found is None:
                return None
            seeds.add((d_idx, found))
    return seeds


def _commute_scan(
    F: FusionSystem, subsystems: Sequence[Subsystem]
) -> set[tuple[int, MapTuple]]:
    """The extension of every tuple of part morphisms, in
    ``itertools.product`` order; NotCommuting names the first tuple
    that has none.  The bases must already commute."""
    # a found extension restricted to the product of the domains is the
    # image of the tuple under the induced functor, so collecting one per
    # tuple seeds the inner product subsystem exactly
    extension_seeds: set[tuple[int, MapTuple]] = set()
    morphism_lists = [sub.translated_maps() for sub in subsystems]
    # the domains generate their product D, so a morphism on D is fixed
    # by its values on them: the maps on D are filed by those values for
    # each run of tuples with the same domains, and each tuple looks its
    # extension up
    filed: Optional[tuple[tuple[int, ...], ...]] = None
    for tup in itertools.product(*morphism_lists):
        domains = tuple(members for members, _ in tup)
        if domains != filed:
            filed = domains
            d_idx, by_restriction = _extensions_by_restriction(F, domains)
        found = by_restriction.get(sum((mp for _, mp in tup), ()))
        if found is None:
            raise NotCommuting(
                "morphism tuple does not extend",
                witness={
                    "tuple": [
                        {
                            "domain_index": F.index_of(members),
                            "domain": members,
                            "map": mp,
                        }
                        for members, mp in tup
                    ]
                },
            )
        extension_seeds.add((d_idx, found))
    return extension_seeds


def _extensions_by_restriction(
    F: FusionSystem, domains: tuple[tuple[int, ...], ...]
) -> tuple[int, dict[MapTuple, MapTuple]]:
    """The index of the product D of commuting domains, and the maps of
    ``F`` on D keyed by their values on the domains, one after another."""
    words = domains[0]
    for members in domains[1:]:
        words = F.base.products(words, members)
    d_idx = F.index_of(set(words))
    pos = F.lattice.pos[d_idx]
    at = [pos[x] for members in domains for x in members]
    return d_idx, {tuple(map(psi.__getitem__, at)): psi for psi in F.maps[d_idx]}


def _inner_from_seeds(
    F: FusionSystem, T: Subgroup, seeds: Iterable[tuple[int, MapTuple]]
) -> FusionSystem:
    TG, to_parent = T.as_group()
    from_parent = {pid: t for t, pid in enumerate(to_parent)}
    lat_t = lattice_of(TG)
    local_seeds = []
    for d_idx, psi in seeds:
        members = F.lattice.subs[d_idx].members
        local_dom = lat_t.index_of(tuple(from_parent[x] for x in members))
        local_seeds.append((local_dom, tuple(from_parent[v] for v in psi)))
    # closed from maps of F, so a subsystem of F
    return FusionSystem(TG, F.p, close_maps(TG, local_seeds))


def is_product_decomposition(
    F: FusionSystem, subsystems: Sequence[Subsystem]
) -> bool:
    """True when the commuting subsystems give an internal direct
    factorization of ``F``.

    Every tuple of part morphisms extends in ``F`` (``_commute_seeds``),
    so the product of the parts lies in ``F``.  The components of each
    element are built once: overlapping bases, or fewer than |S|
    products, give False.  Otherwise a morphism phi of F on W lies in
    the product exactly when, for each part a, x -> pi_a(phi(x)) is a
    well-defined function of pi_a(x) and that map on pi_a(W) is a
    morphism of the part's system.  The product is a fusion system and
    holds the conjugation maps of S, since each part holds those of its
    base, so testing ``class_generators(F)`` is enough, and a generator
    that is a conjugation map of S needs no projection.  The twin
    ``verify.product_decomposition_plain`` compares the inner product
    with ``F`` entrywise."""
    _commute_seeds(F, subsystems)
    proj = _projections(F.base, [sub.base.members for sub in subsystems])
    if proj is None:
        return False
    lat = F.lattice
    parts = [
        (pi, {m: t for t, m in enumerate(sub.base.members)}, sub.base.members, sub.system)
        for pi, sub in zip(proj, subsystems)
    ]

    def inside(i: int, m: MapTuple) -> bool:
        members = lat.subs[i].members
        for pi, local, to_parent, E in parts:
            image: dict[int, int] = {}
            for x, y in zip(members, m):
                px, py = pi[x], pi[y]
                if image.setdefault(px, py) != py:
                    return False
            dom = tuple(sorted(local[px] for px in image))
            pushed = tuple(local[image[to_parent[t]]] for t in dom)
            if pushed not in E.map_sets[E.lattice.idx[dom]]:
                return False
        return True

    return all(lat.is_conjugation(i, m) or inside(i, m) for i, m in class_generators(F))


def projections(G: FiniteGroup, bases: Sequence[tuple[int, ...]]) -> list[MapTuple]:
    """The projection x -> pi_a(x) onto each base of an internal direct
    product, as a tuple over the group."""
    proj = _projections(G, bases)
    if proj is None:
        raise InternalInconsistency("bases do not factor the group")
    return proj


def _projections(G: FiniteGroup, bases: Sequence[tuple[int, ...]]) -> Optional[list[MapTuple]]:
    """``projections``, or None unless the commuting bases factor ``G``
    as an internal direct product: two products coincide, or they do not
    cover ``G``."""
    decomp: dict[int, tuple[int, ...]] = {0: ()}
    for members in bases:
        new = {}
        for x, comps in decomp.items():
            for t in members:
                y = G.mul(x, t)
                if y in new:
                    return None
                new[y] = comps + (t,)
        decomp = new
    if len(decomp) != G.order:
        return None
    return [tuple(decomp[x][a] for x in range(G.order)) for a in range(len(bases))]


# ---------------------------------------------------------------------------
# sums of morphisms


def sum_morphisms(morphisms: Sequence[FusionMorphism]) -> FusionMorphism:
    """Pointwise product of morphisms with commuting images
    (``_check_summable``)."""
    if not morphisms:
        raise NotSubgroup("empty sum")
    E = morphisms[0].source
    F = morphisms[0].target
    for m in morphisms[1:]:
        if m.source is not E or m.target is not F:
            raise NotSubgroup("summands must share source and target")
    if len(morphisms) == 1:
        return morphisms[0]
    _check_summable(morphisms)
    G = F.base
    summed = []
    for x in range(E.base.order):
        acc = 0
        for m in morphisms:
            acc = G.mul(acc, m.images[x])
        summed.append(acc)
    # commuting images make the sum a fusion-preserving homomorphism;
    # ``verify.check_sum_bookkeeping`` re-accepts sums with
    # ``verify.check_morphism_plain``
    return FusionMorphism(E, F, tuple(summed))


def _check_summable(morphisms: Sequence[FusionMorphism]) -> None:
    """NotSummable unless the images of morphisms with a common source
    and target commute.

    The image of a summand m is the subsystem generated by the pushes of
    every map of the source, which the pushes of ``class_generators``
    and the conjugation maps of m(S) generate already (pushing respects
    composition, inverses and restriction).  So the images commute when
    their bases commute elementwise and the tuples of one pushed class
    generator and identities extend (``_generator_seeds``, exact as in
    ``commute_check``).  Only a failure builds the images, through
    ``image``, and scans every tuple (``_commute_scan``) for the
    NotSummable witness; ``verify.sum_morphisms_plain`` always does."""
    E, F = morphisms[0].source, morphisms[0].target
    bases = [m.image_subgroup().members for m in morphisms]
    subs = F.lattice.subs
    generators = [
        [
            (subs[new_idx].members, pushed)
            for new_idx, pushed in (m.push_map(d, phi) for d, phi in class_generators(E))
        ]
        for m in morphisms
    ]
    try:
        _commute_elementwise(F.base, bases)
        if _generator_seeds(F, bases, generators) is None:
            _commute_scan(F, [Subsystem(m.image_subgroup(), image(m)) for m in morphisms])
    except NotCommuting as exc:
        raise NotSummable(
            "images of the summands do not commute", witness=exc.witness
        ) from exc
