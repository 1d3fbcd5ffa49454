"""Normal endomorphisms, factorization and Krull-Remak-Schmidt certificates.

The certificate construction follows the classical projection-swap
argument: given two factorizations, repeatedly replace one factor of the
second factorization by a factor of the first via an invertible normal
endomorphism built from projections, then take the inverse of the
composite.

Checks made in the call, each on generators and exact because the set
it tests is closed under composition, inverses and restriction (a
failure reruns the full scan only where a witness is reported):
- ``_pushes_class_generators``, the push test of ``check_morphism``
  for maps known to be homomorphisms: chain leaves of Aut(S,F),
  End(S,F) candidates and ``find_isomorphism`` candidates;
- ``normal_complement``: the complement's law, its push, and commuting
  images (``_check_summable``), without building the sum;
- ``normal_automorphisms``: the center/focal criterion on the chain
  maps of Aut(S,F), and on every map only when one fails;
- Aut(S,F) is kept as a stabiliser chain, one level per base element,
  from the F-class-labelled transversal search; the listings walk it,
  and under Omega cut a branch at the first level that fixes enough of
  S to test a pair (w, b) exactly;
- ``_split_works``: the generator tuples of each admissible pair
  (``_generator_seeds``) alone;
- equivariance on the generators of S (``OmegaContext.commutes_with``).

``factorize_all`` is the orbit of ``factorize`` under Aut(S,F): the
factorization into indecomposables is unique up to a normal automorphism
and a permutation of the parts (the paper's theorem), and any fusion
automorphism carries a factorization to one.  Under Omega the maps that
commute with Omega carry Omega-factorizations to Omega-factorizations.

Theorems are not proved again in a call.  Checks made in
``fusionsys.verify``, each fast path against its slow twin:
``morphisms/hom-law-on-generators`` (``hom_law_plain``, every pair),
``morphisms/push-on-generators`` (``check_morphism_plain``, every map
pushed), ``morphisms/commuting-criteria-agree``
(``commute_check_plain``, every tuple and part scanned),
``morphisms/restriction-is-subsystem`` (every kept restriction scanned),
``factor/factorizations-are-products`` (every split the product of its
parts, entrywise),
``morphisms/product-by-projection`` (the inner product entrywise),
``morphisms/sum-bookkeeping`` (``sum_morphisms_plain``, image closures
and every tuple; sums, f + chi among them, re-accepted by
``check_morphism_plain``), ``factor/surjective-criterion`` (the
criterion against the plain complement test ``verify.is_normal_endo``),
``factor/normal-automorphisms`` (the plain filter of every map),
``commutes_with_plain`` (every element), ``factor/self-map-search``
(Aut(S,F) and the endomorphisms against the filtered backtracker),
``factor/fitting-factorize`` (``stable_image_kernel_plain``, f^|S| on
each element), ``krs/certificate-twin`` (``krs_certificate_plain``,
every normal automorphism; alpha, its complement, the swap maps and the
transport), ``krs/krs-end-to-end`` (alpha and the transport, on
``inner-c3c3c3`` too), ``krs/orbit-is-every-factorization``
(``factorize_all_plain``, the recursive search through every proven
split, which alone guards the Omega case; Omega restricted to each part
re-accepted by ``check_morphism_plain``) and ``krs/aut-structure``.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    HypothesisFailed,
    InternalInconsistency,
    NotFusionPreserving,
    NotNormal,
    NotSaturated,
    NotSubgroup,
    NotSubsystem,
    NotSummable,
    GuardrailExceeded,
)
from . import guardrails
from .groups import (
    FiniteGroup,
    Subgroup,
    _homs,
    automorphism_chain,
    composer,
    injective_homs,
    normal_closure,
    p_part,
    perm_inverse,
    characteristic_subgroups,
    stable_image_kernel,
    sylow,
    walk_chain,
)
from .fusion import (
    FusionSystem,
    MapTuple,
    center_of,
    focal_generators,
    focal_of,
    fusion_equal,
    fusion_of_group,
    is_saturated,
    is_strongly_closed,
    restrict_full,
    saturation_report,
)
from .morphisms import (
    FusionMorphism,
    Subsystem,
    _check_summable,
    _generator_seeds,
    _noncommuting_pair,
    _projections,
    _push_every_map,
    _pushes_class_generators,
    hom_law_on_generators,
    identity_morphism,
    is_product_decomposition,
    projections,
    subsystem_of,
    sum_morphisms,
)
from .records import Record


# ---------------------------------------------------------------------------
# normal endomorphisms


class NormalEndomorphism(Record):
    __slots__ = ("morphism", "complement", "surjective", "invertible")

    def __init__(
        self,
        morphism: FusionMorphism,
        complement: FusionMorphism,
        surjective: bool,
        invertible: bool,
    ) -> None:
        self.morphism = morphism
        self.complement = complement
        self.surjective = surjective
        self.invertible = invertible

    @property
    def images(self) -> MapTuple:
        return self.morphism.images


def _surjective_normal_criterion(F: FusionSystem, images: MapTuple) -> bool:
    """[f,S] inside the center with f fixing the focal subgroup, tested
    on generators.

    With d(x) = x^-1 f(x), d(xy) = y^-1 d(x) f(y) = d(x) d(y) whenever
    d(x) is central, so the center holds every d(x) once it holds d(g)
    for the generators g of S; and f fixes foc(F) once it fixes a
    generating set of it.  ``verify.surjective_criterion_plain`` tests
    every element."""
    G = F.base
    center = center_of(F).member_set
    if any(
        G.mul(G.inv(g), images[g]) not in center
        for g in G.generators or range(G.order)
    ):
        return False
    return all(images[x] == x for x in focal_generators(F))


def normal_complement(F: FusionSystem, f: FusionMorphism) -> NormalEndomorphism:
    """Accept ``f`` as normal by constructing its forced complement.

    The complement candidate sends x to f(x)^-1 x; ``f`` is normal exactly
    when that map is a fusion-preserving homomorphism whose image commutes
    with the image of ``f``.  Each clause is tested on generators:
    ``hom_law_on_generators``, ``_pushes_class_generators`` and the
    commuting test of ``sum_morphisms``; f + chi sends x to
    f(x) f(x)^-1 x = x, so only that test of the sum can fail, and the
    sum itself is not built.  ``verify.is_normal_endo`` is the plain
    twin, which the verify check ``factor/surjective-criterion``
    compares with the center/focal criterion.
    """
    if f.source is not F or f.target is not F:
        raise NotSubgroup("normality is only defined for endomorphisms")
    G = F.base
    chi_images = tuple(G.mul(G.inv(f.images[x]), x) for x in range(G.order))
    if not hom_law_on_generators(G, G, chi_images):
        raise NotNormal("complement is not a homomorphism")
    chi = FusionMorphism(F, F, chi_images)
    try:
        if not _pushes_class_generators(chi):
            _push_every_map(chi)
    except NotFusionPreserving as exc:
        raise NotNormal(
            "complement is not fusion-preserving", witness=exc.witness
        ) from exc
    try:
        _check_summable([f, chi])
    except NotSummable as exc:
        raise NotNormal(
            "images of f and its complement do not commute",
            witness=exc.witness,
        ) from exc
    surjective = len(set(f.images)) == G.order
    # a bijective endomorphism of a finite-based system is an automorphism:
    # the induced functor injects the finite morphism set into itself
    return NormalEndomorphism(f, chi, surjective, surjective)


class OmegaContext(Record, hidden=("_commuting",)):
    """A finite automorphism group of the system, given by generators."""

    __slots__ = ("generators", "closure", "_commuting")

    def __init__(
        self, generators: tuple[FusionMorphism, ...], closure: tuple[MapTuple, ...]
    ) -> None:
        self.generators = generators
        self.closure = closure
        self._commuting: Optional[list[MapTuple]] = None

    @classmethod
    def from_morphisms(cls, F: FusionSystem, gens: Sequence[FusionMorphism]) -> "OmegaContext":
        limit = guardrails.active().omega_limit
        for w in gens:
            if w.source is not F or w.target is not F:
                raise NotSubgroup("context generators must be endomorphisms")
            if not (w.is_injective and w.is_surjective):
                raise NotSubgroup("context generators must be invertible")
        ident = tuple(range(F.base.order))
        closure = {ident}
        frontier = [ident]
        then = [composer(w.images) for w in gens]
        while frontier:
            nxt = []
            for cur in frontier:
                for get in then:
                    comp = get(cur)
                    if comp not in closure:
                        closure.add(comp)
                        nxt.append(comp)
                        if len(closure) > limit:
                            raise GuardrailExceeded(f"automorphism context exceeds {limit}")
            frontier = nxt
        return cls(tuple(gens), tuple(sorted(closure)))

    def commutes_with(self, images: MapTuple) -> bool:
        """w o f = f o w for every generator w, for a homomorphism f of
        the base (``images``).  Both composites are homomorphisms, so
        they are equal once they agree on the generators of the base.
        ``verify.commutes_with_plain`` compares them on every element."""
        for w in self.generators:
            base, on = w.source.base, w.images
            gens = base.generators or range(base.order)
            if any(images[on[g]] != on[images[g]] for g in gens):
                return False
        return True

    def commuting_automorphisms(self, F: FusionSystem) -> list[MapTuple]:
        """The maps of Aut(S,F) that commute with Omega, for the system
        ``F`` of the generators: the kept chain of Aut(S,F) walked once,
        each branch cut at the first level that can tell (``walk_chain``)."""
        if self._commuting is None:
            ws = [w.images for w in self.generators]
            self._commuting = walk_chain(F.base, _automorphism_chain(F), ws)
        return self._commuting

    def fixes_subgroup(self, members: Iterable[int]) -> bool:
        target = set(members)
        return all({w.images[x] for x in target} == target for w in self.generators)

    def restrict_to(self, F: FusionSystem, T: Subgroup, E: FusionSystem) -> "OmegaContext":
        """Omega on the restriction ``E`` of ``F`` to an invariant
        subgroup ``T``, whose generators restrict to fusion
        automorphisms of ``E``."""
        if not self.fixes_subgroup(T.members):
            raise NotSubgroup("context does not preserve the subgroup")
        pos = {m: t for t, m in enumerate(T.members)}
        gens = [
            FusionMorphism(E, E, tuple(pos[w.images[m]] for m in T.members))
            for w in self.generators
        ]
        return OmegaContext.from_morphisms(E, gens)


# ---------------------------------------------------------------------------
# enumeration of endomorphisms and automorphisms


def _automorphism_chain(F: FusionSystem) -> tuple[tuple[int, ...], list[list[MapTuple]]]:
    """Aut(S,F) as a base of S and the levels of its stabiliser chain,
    kept on F: ``automorphism_chain`` with the F-class labels
    (``_class_labels``), each level map accepted by
    ``_pushes_class_generators``."""
    if F._automorphism_chain is None:
        F._automorphism_chain = automorphism_chain(
            F.base, _class_labels(F), lambda u: _preserves(F, u)
        )
    return F._automorphism_chain


def _class_labels(F: FusionSystem) -> Optional[list[int]]:
    """The F-class of each element, as labels for the self-map search,
    or None when every class is a singleton: a singleton class never
    makes the class map disagree (``groups._spread``), so its labels
    would cut nothing and only cost their bookkeeping."""
    if len(F.element_classes()) == F.base.order:
        return None
    return F._element_class_index


def _preserves(F: FusionSystem, a: MapTuple) -> bool:
    return _pushes_class_generators(FusionMorphism(F, F, a))


def fusion_endomorphisms(F: FusionSystem) -> list[FusionMorphism]:
    """All fusion-preserving self-maps, in image-tuple order: the
    homomorphisms S -> S that send each F-class into one F-class
    (``_homs`` with ``_class_labels``), each accepted by
    ``_pushes_class_generators``."""
    if F._endomorphisms is None:
        full = F.base.full_subgroup()
        homs = _homs(full, full, False, _class_labels(F))
        F._endomorphisms = [
            m for m in (FusionMorphism(F, F, h.images) for h in homs) if _pushes_class_generators(m)
        ]
    return F._endomorphisms


def fusion_automorphisms(F: FusionSystem) -> list[FusionMorphism]:
    """All fusion-preserving automorphisms, in image-tuple order."""
    if F._automorphisms is None:
        chain = _automorphism_chain(F)
        F._automorphisms = [FusionMorphism(F, F, a) for a in walk_chain(F.base, chain)]
    return F._automorphisms


def normal_endos(
    F: FusionSystem, omega: Optional[OmegaContext] = None
) -> list[NormalEndomorphism]:
    """All normal (optionally equivariant) endomorphisms of ``F``."""
    out = []
    for m in fusion_endomorphisms(F):
        if omega is not None and not omega.commutes_with(m.images):
            continue
        try:
            out.append(normal_complement(F, m))
        except NotNormal:
            continue
    return out


def normal_automorphisms(
    F: FusionSystem, omega: Optional[OmegaContext] = None
) -> list[FusionMorphism]:
    """All invertible normal (equivariant) endomorphisms, via the
    surjective criterion.

    Under Omega the maps of Aut(S,F) that commute with it are read off
    ``OmegaContext.commuting_automorphisms``.  The automorphisms f with
    [f,S] <= Z(F) and f = id on foc(F) form a subgroup of Aut(S,F): with
    d_f(x) = x^-1 f(x), d_{f o g}(x) = d_g(x) d_f(g(x)), and a composite
    of maps that fix foc(F) fixes it.  So when every map of the chain
    passes the criterion, every automorphism does, and no map is tested.
    ``factor/normal-automorphisms`` compares the result with the plain
    filter of every map."""
    chain = _automorphism_chain(F)
    if omega is None:
        autos = fusion_automorphisms(F)
    else:
        autos = [FusionMorphism(F, F, a) for a in omega.commuting_automorphisms(F)]
    if all(_surjective_normal_criterion(F, u) for level in chain[1] for u in level):
        return list(autos)
    return [m for m in autos if _surjective_normal_criterion(F, m.images)]


# ---------------------------------------------------------------------------
# structure of a single normal endomorphism


class NormalEndReport(Record):
    # the six clauses, in the order normal_end_properties tests them
    __slots__ = (
        "commuting_complement",
        "cross_images_agree",
        "image_strongly_closed",
        "centralizes_base_automorphisms",
        "image_is_full_restriction",
        "image_saturated",
    )

    def __init__(
        self,
        commuting_complement: bool,
        cross_images_agree: bool,
        image_strongly_closed: bool,
        centralizes_base_automorphisms: bool,
        image_is_full_restriction: bool,
        image_saturated: bool,
    ) -> None:
        self.commuting_complement = commuting_complement
        self.cross_images_agree = cross_images_agree
        self.image_strongly_closed = image_strongly_closed
        self.centralizes_base_automorphisms = centralizes_base_automorphisms
        self.image_is_full_restriction = image_is_full_restriction
        self.image_saturated = image_saturated


def normal_end_properties(F: FusionSystem, ne: NormalEndomorphism) -> NormalEndReport:
    """Verify the structural facts about a normal endomorphism of a
    saturated system; any failure is an internal inconsistency."""
    if not is_saturated(F):
        raise NotSaturated("properties are stated for saturated systems")
    G = F.base
    f, chi = ne.morphism.images, ne.complement.images
    t_set = frozenset(f)
    u_set = frozenset(chi)

    commuting = all(f[chi[x]] == chi[f[x]] for x in range(G.order))
    f_of_u = frozenset(f[x] for x in u_set)
    chi_of_t = frozenset(chi[x] for x in t_set)
    overlap = t_set & u_set
    cross = f_of_u == chi_of_t == overlap
    if not overlap <= center_of(F).member_set:
        raise InternalInconsistency("image overlap escapes the center")

    t_idx = F.index_of(sorted(t_set))
    strongly = is_strongly_closed(F, t_idx)

    central = all(
        tuple(f[w[x]] for x in range(G.order)) == tuple(w[f[x]] for x in range(G.order))
        for w in F.aut_maps(F.lattice.full_index)
    )

    T = Subgroup(G, t_set, _checked=True)
    restricted = restrict_full(F, T)
    pushed: set[tuple[tuple[int, ...], MapTuple]] = set()
    for dom_idx, ms in enumerate(F.maps):
        for phi in ms:
            new_idx, new_map = ne.morphism.push_map(dom_idx, phi)
            pushed.add((F.lattice.subs[new_idx].members, new_map))
    image_full = pushed == set(Subsystem(T, restricted).translated_maps())
    image_sat = saturation_report(restricted).verdict

    report = NormalEndReport(
        commuting, cross, strongly, central, image_full, image_sat
    )
    for name in NormalEndReport.__slots__:
        if not getattr(report, name):
            raise InternalInconsistency(f"normal endomorphism clause failed: {name}")
    return report


class FittingSplit(Record):
    __slots__ = ("stable", "nil", "power")

    def __init__(self, stable: Subsystem, nil: Subsystem, power: int) -> None:
        self.stable = stable  # f restricts to a normal automorphism here
        self.nil = nil        # f restricts to a nilpotent normal endomorphism
        self.power = power


def fitting_factorize(F: FusionSystem, ne: NormalEndomorphism) -> FittingSplit:
    """Split ``F`` along the stable image and kernel of a normal
    endomorphism.  ``factor/fitting-factorize`` asserts the theorem: the
    split is the only one (``verify.fitting_candidates``), and f is normal
    on both parts."""
    if not is_saturated(F):
        raise NotSaturated("splitting requires a saturated system")
    t_set, u_set, power = stable_image_kernel(F.base, ne.images)
    T = Subgroup(F.base, t_set, _checked=True)
    U = Subgroup(F.base, u_set, _checked=True)
    return FittingSplit(
        Subsystem(T, restrict_full(F, T)), Subsystem(U, restrict_full(F, U)), power
    )


# ---------------------------------------------------------------------------
# factorization into indecomposable parts


class Factorization(Record, hidden=("system",)):
    """Indecomposable parts of ``system``, proven a direct factorization
    where they were found (``factorization_of`` for bases from outside)."""

    __slots__ = ("parts", "system")

    def __init__(self, parts: tuple[Subsystem, ...], system: FusionSystem) -> None:
        self.parts = parts
        self.system = system

    @property
    def bases(self) -> tuple[tuple[int, ...], ...]:
        return tuple(p.base.members for p in self.parts)

    def key(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(self.bases))


def _admissible_splits(
    F: FusionSystem, omega: Optional[OmegaContext]
) -> Iterator[tuple[int, int]]:
    """Candidate (T, U) index pairs for a direct split of ``F``: strongly
    closed (and Omega-invariant) proper subgroups with i < j, |T||U| = |S|,
    trivial intersection and commuting elements.  They are produced one
    at a time in (i, j) order, so a caller that needs one split tests no
    further pairs;
    ``verify.admissible_splits_plain`` lists them all."""
    G = F.base
    subs = F.lattice.subs
    n = G.order
    eligible = [
        i
        for i in range(len(subs))
        if 1 < subs[i].order < n
        and is_strongly_closed(F, i)
        and (omega is None or omega.fixes_subgroup(subs[i].members))
    ]
    by_order: dict[int, list[int]] = {}
    for i in eligible:
        by_order.setdefault(subs[i].order, []).append(i)
    for i in eligible:
        for j in by_order.get(n // subs[i].order, []):
            if (
                j > i
                and _meet_trivially(subs[i], subs[j])
                and _noncommuting_pair(G, subs[i].members, subs[j].members) is None
            ):
                yield i, j


def _meet_trivially(T: Subgroup, U: Subgroup) -> bool:
    return T.member_set.isdisjoint(U.members[1:])


def _split_works(F: FusionSystem, i: int, j: int) -> Optional[tuple[Subsystem, Subsystem]]:
    """The kept restrictions of an admissible pair when they commute in
    ``F``, else None: a strongly closed commuting split is a direct
    product (``factor/factorizations-are-products``), and the generator
    tuples decide commuting (``_generator_seeds``, checked against every
    tuple by ``morphisms/commuting-criteria-agree``)."""
    parts = (subsystem_of(F, F.lattice.subs[i]), subsystem_of(F, F.lattice.subs[j]))
    bases = [p.base.members for p in parts]
    if _generator_seeds(F, bases, [p.translated_generators() for p in parts]) is None:
        return None
    return parts


def _proven_splits(
    F: FusionSystem, omega: Optional[OmegaContext]
) -> Iterator[tuple[tuple[Subsystem, Optional[OmegaContext]], ...]]:
    """Every direct split of ``F`` into two parts, each proven by
    ``_split_works`` and paired with Omega restricted to it."""
    for i, j in _admissible_splits(F, omega):
        found = _split_works(F, i, j)
        if found is not None:
            yield tuple(
                (sub, omega.restrict_to(F, sub.base, sub.system) if omega is not None else None)
                for sub in found
            )


def _factorization(F: FusionSystem, bases: Sequence[tuple[int, ...]]) -> Factorization:
    """Parts of ``F`` on the given sorted member tuples, ordered by size."""
    ordered = sorted(bases or [tuple(range(F.base.order))], key=lambda m: (len(m), m))
    lat = F.lattice
    return Factorization(
        tuple(subsystem_of(F, lat.subs[lat.idx[m]]) for m in ordered), F
    )


def factorization_of(F: FusionSystem, bases: Sequence[Sequence[int]]) -> Factorization:
    """The factorization of ``F`` on part bases given from outside the
    program; the one place such bases are validated.  Unless S is
    trivial, a factorization has at least one part and no part of order 1
    (``_factorization`` reads no parts as the one part S)."""
    keys = [tuple(sorted(members)) for members in bases]
    for key in keys:
        if key not in F.lattice.idx:
            raise NotSubsystem(f"part base {key} is not a subgroup of the base group")
    if F.base.order > 1 and (not keys or min(map(len, keys)) == 1):
        raise NotSubgroup("input is not a factorization of the system")
    fact = _factorization(F, keys)
    if not is_product_decomposition(F, list(fact.parts)):
        raise NotSubgroup("input is not a factorization of the system")
    return fact


def factorize(F: FusionSystem, omega: Optional[OmegaContext] = None) -> Factorization:
    """Greedy factorization into indecomposable (equivariant) parts."""
    if not is_saturated(F):
        raise NotSaturated("factorization requires a saturated system")
    return _factorization(F, _factor_bases(F, omega))


def _factor_bases(F: FusionSystem, omega: Optional[OmegaContext]) -> list[tuple[int, ...]]:
    for split in _proven_splits(F, omega):
        return [
            tuple(sub.base.members[t] for t in inner)
            for sub, og in split
            for inner in _factor_bases(sub.system, og)
        ]
    return [tuple(range(F.base.order))] if F.base.order > 1 else []


def factorize_all(
    F: FusionSystem, omega: Optional[OmegaContext] = None
) -> list[Factorization]:
    """Every factorization into indecomposable (equivariant) parts, in
    sorted-key order: the orbit of ``factorize(F, omega)`` under
    Aut(S,F), or under its maps that commute with Omega.  Each level of
    the kept chain is applied in turn, innermost first, since every
    automorphism is u_1 o ... o u_k; the keys are deduplicated after
    each level, and each map moves each part base once."""
    start = factorize(F, omega)
    if len(start.parts) < 2:
        return [start]
    if omega is None:
        levels = _automorphism_chain(F)[1][::-1]
    else:
        levels = [omega.commuting_automorphisms(F)]
    keys = {frozenset(start.bases)}
    for level in levels:
        bases = set().union(*keys)
        moves = [{b: tuple(sorted(map(u.__getitem__, b))) for b in bases} for u in level]
        keys = {frozenset(map(move.__getitem__, key)) for key in keys for move in moves}
    return [_factorization(F, key) for key in sorted(tuple(sorted(k)) for k in keys)]


def is_indecomposable(
    F: FusionSystem, omega: Optional[OmegaContext] = None
) -> bool:
    return next(_proven_splits(F, omega), None) is None


# ---------------------------------------------------------------------------
# KRS certificate


class KrsCertificate(Record):
    __slots__ = ("alpha", "sigma", "construction_log", "constructive", "note")

    def __init__(
        self,
        alpha: NormalEndomorphism,
        sigma: tuple[int, ...],
        construction_log: tuple[FusionMorphism, ...],
        # always True and None (one construction); both stay in every krs report
        constructive: bool,
        note: Optional[str] = None,
    ) -> None:
        self.alpha = alpha
        self.sigma = sigma
        self.construction_log = construction_log
        self.constructive = constructive
        self.note = note


def _check_system(F: FusionSystem, fact: Factorization) -> None:
    if not fusion_equal(fact.system, F):
        raise NotSubsystem("factorization belongs to a different system")


def _check_factorization_input(
    F: FusionSystem, fact: Factorization, omega: Optional[OmegaContext]
) -> None:
    _check_system(F, fact)
    for part in fact.parts:
        og = omega.restrict_to(F, part.base, part.system) if omega is not None else None
        if not is_indecomposable(part.system, og):
            raise NotSubgroup("factorization part is decomposable")


def krs_certificate(
    F: FusionSystem,
    fact1: Factorization,
    fact2: Factorization,
    omega: Optional[OmegaContext] = None,
) -> KrsCertificate:
    """Normal automorphism alpha and permutation sigma with
    alpha(part_i of fact1) = part_sigma(i) of fact2, by projection swaps.
    alpha is the inverse of the composed swaps, with complement
    x -> alpha(x)^-1 x; neither it nor the logged swap maps are proved
    again here (``krs/certificate-twin``, against the exhaustive
    ``verify.krs_certificate_plain``, and ``krs/krs-end-to-end`` check
    them).  A swap loop that cannot go on raises InternalInconsistency."""
    if not is_saturated(F):
        raise NotSaturated("certificates require a saturated system")
    _check_factorization_input(F, fact1, omega)
    _check_factorization_input(F, fact2, omega)
    G = F.base
    k = len(fact1.parts)
    m = len(fact2.parts)
    bases1 = [p.base.members for p in fact1.parts]
    projections1 = projections(G, bases1)

    current = [p.base.members for p in fact2.parts]
    total = tuple(range(G.order))
    log: list[FusionMorphism] = []
    assigned: list[int] = []

    for r in range(m):
        t_star = current[r]
        star_set = set(t_star)
        g_proj = projections(G, current)[r]
        chosen = None
        for j in range(k):
            restricted = [g_proj[projections1[j][x]] for x in t_star]
            if set(restricted) == star_set and len(set(restricted)) == len(t_star):
                chosen = j
                break
        if chosen is None:
            raise InternalInconsistency(
                "no projection summand restricts to an automorphism"
            )
        if chosen in assigned:
            raise InternalInconsistency("projection summand chosen twice")
        fj = projections1[chosen]
        # the parts of ``current`` commute, so x's other components
        # multiply to x * g_proj[x]^-1
        h_images = tuple(
            G.mul(fj[g_proj[x]], G.mul(x, G.inv(g_proj[x]))) for x in range(G.order)
        )
        log.append(FusionMorphism(F, F, h_images))
        total = tuple(h_images[v] for v in total)
        current[r] = bases1[chosen]
        assigned.append(chosen)

    if k != m or sorted(assigned) != list(range(k)):
        raise InternalInconsistency("factorization lengths do not match")

    alpha_images = perm_inverse(total)
    chi_images = [G.mul(G.inv(y), x) for x, y in enumerate(alpha_images)]
    alpha = NormalEndomorphism(
        FusionMorphism(F, F, alpha_images), FusionMorphism(F, F, chi_images), True, True
    )
    sigma = [0] * k
    for r, j in enumerate(assigned):
        sigma[j] = r
    return KrsCertificate(alpha, tuple(sigma), tuple(log), True)


# ---------------------------------------------------------------------------
# automorphism structure of a factorized system


class AutStructure(Record):
    __slots__ = ("aut_order", "aut0_order", "gamma", "section", "part_aut_orders")

    def __init__(
        self,
        aut_order: int,
        aut0_order: int,
        gamma: tuple[tuple[int, ...], ...],
        section: dict[tuple[int, ...], MapTuple],
        part_aut_orders: tuple[int, ...],
    ) -> None:
        self.aut_order = aut_order
        self.aut0_order = aut0_order
        self.gamma = gamma
        self.section = section
        self.part_aut_orders = part_aut_orders


def find_isomorphism(E1: FusionSystem, E2: FusionSystem) -> Optional[FusionMorphism]:
    """Least isomorphism of fusion systems, or None."""
    if E1.base.order != E2.base.order or E1.morphism_count() != E2.morphism_count():
        return None
    if sorted(len(ms) for ms in E1.maps) != sorted(len(ms) for ms in E2.maps):
        return None
    full1 = E1.base.full_subgroup()
    full2 = E2.base.full_subgroup()
    for h in injective_homs(full1, full2):
        m = FusionMorphism(E1, E2, h.images)
        # morphism counts match, so a fusion-preserving bijection is onto
        if _pushes_class_generators(m):
            return m
    return None


def aut_structure(F: FusionSystem, fact: Factorization) -> AutStructure:
    """Automorphism group as stabilizer extended by part permutations.
    The stabilizer is counted as the automorphisms that fix every part
    base setwise; ``krs/aut-structure`` asserts the theorem (every
    automorphism permutes the bases, the realized permutations, the
    counts and the section) from the returned fields."""
    z_trivial = center_of(F).order == 1
    foc_full = focal_of(F).order == F.base.order
    if not (z_trivial or foc_full):
        raise HypothesisFailed(
            "requires a trivial center or a full focal subgroup"
        )
    _check_system(F, fact)

    autos = fusion_automorphisms(F)
    k = len(fact.parts)
    base_sets = [p.base.member_set for p in fact.parts]
    aut0_order = sum(
        all({a.images[x] for x in b} == b for b in base_sets) for a in autos
    )

    isos: list[list[Optional[FusionMorphism]]] = [[None] * k for _ in range(k)]
    for i in range(k):
        isos[i][i] = identity_morphism(fact.parts[i].system)
        for j in range(i + 1, k):
            found = find_isomorphism(fact.parts[i].system, fact.parts[j].system)
            isos[i][j] = found
            if found is not None:
                isos[j][i] = found.inverse()

    gamma = sorted(
        sigma
        for sigma in itertools.permutations(range(k))
        if all(isos[i][sigma[i]] is not None for i in range(k))
    )
    part_aut_orders = tuple(len(fusion_automorphisms(p.system)) for p in fact.parts)

    # coherent family: through the least representative of each iso class
    beta: list[list[Optional[FusionMorphism]]] = [[None] * k for _ in range(k)]
    for i in range(k):
        rep = min(j for j in range(k) if isos[j][i] is not None)
        for j in range(k):
            if isos[i][j] is not None:
                beta[i][j] = isos[rep][j].compose(isos[rep][i].inverse())

    section: dict[tuple[int, ...], MapTuple] = {}
    decomp = list(zip(*projections(F.base, [p.base.members for p in fact.parts])))
    local = [{m: t for t, m in enumerate(p.base.members)} for p in fact.parts]
    for sigma in gamma:
        images = [0] * F.base.order
        for x in range(F.base.order):
            acc = 0
            for i, t in enumerate(decomp[x]):
                b = beta[i][sigma[i]]
                mapped_local = b.images[local[i][t]]
                acc = F.base.mul(
                    acc, fact.parts[sigma[i]].base.members[mapped_local]
                )
            images[x] = acc
        section[sigma] = tuple(images)
    return AutStructure(
        len(autos), aut0_order, tuple(gamma), section, part_aut_orders
    )


# ---------------------------------------------------------------------------
# Goldschmidt-style transfer to a realizing group (p = 2)


def goldschmidt_factor(G: FiniteGroup, fact: Factorization) -> list[Subgroup]:
    """Lift the factorization of F_S(G) that the caller built, on the
    Sylow table that ``fusion_of_group(G, 2)`` uses, to a direct
    factorization of G via normal closures of the part bases.  Once the
    closures factor G, ``fact.system`` is F_S(G) exactly when each part's
    fusion is its closure's, since both are the product of the parts'."""
    chars = characteristic_subgroups(G, 2)
    if chars.o_p_prime.order != 1:
        raise HypothesisFailed("group has a nontrivial odd-order core")
    if chars.o_upper_p_prime.order != G.order:
        raise HypothesisFailed("group is not generated by its 2-elements")
    S = sylow(G, 2)
    SG, base = S.as_group()[0], fact.system.base
    if base.order != SG.order or not hom_law_on_generators(base, SG, tuple(range(SG.order))):
        raise NotSubsystem("factorization belongs to a different system")

    part_subgroups_in_g = [
        Subgroup(G, (S.members[t] for t in part.base.members), _checked=True)
        for part in fact.parts
    ]
    closures = [normal_closure(G, T_in_g) for T_in_g in part_subgroups_in_g]
    for H, K in itertools.combinations(closures, 2):
        if _noncommuting_pair(G, H.members, K.members) is not None:
            raise InternalInconsistency("normal closures do not commute pairwise")
    if _projections(G, [H.members for H in closures]) is None:
        raise InternalInconsistency("normal closures do not factor the group")
    # Sylow condition and fusion recovery per part
    for part, T_in_g, H in zip(fact.parts, part_subgroups_in_g, closures):
        if T_in_g.order != p_part(H.order, 2):
            raise InternalInconsistency("part base is not Sylow in its closure")
        HG, h_to_parent = H.as_group()
        h_pos = {pid: t for t, pid in enumerate(h_to_parent)}
        T_local = Subgroup(HG, (h_pos[x] for x in T_in_g.members), _checked=True)
        recovered = fusion_of_group(HG, 2, T_local)
        if not fusion_equal(recovered, part.system):
            raise NotSubsystem("factorization belongs to a different system")
    return closures


# ---------------------------------------------------------------------------
# experimental: weakened summability hypothesis


def sum_if_composite_central(
    F: FusionSystem, ne1: NormalEndomorphism, ne2: NormalEndomorphism
) -> Optional[NormalEndomorphism]:
    """Try to sum two normal endomorphisms whose composite lands in the
    center.  The conclusion is always checked, never assumed; returns the
    verified normal sum or None."""
    G = F.base
    composite_image = {ne1.images[ne2.images[x]] for x in range(G.order)}
    if not composite_image <= center_of(F).member_set:
        return None
    try:
        total = sum_morphisms([ne1.morphism, ne2.morphism])
    except NotSummable:
        return None
    try:
        return normal_complement(F, total)
    except NotNormal:
        return None
