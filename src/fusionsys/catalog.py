"""Built-in catalog of example groups and their fusion systems.

Every entry is a permutation group with a chosen prime.  The expected
records are re-verified whenever an entry is accessed through
``verify_expected``; builds are cached per process.
"""

from __future__ import annotations

from typing import Optional

from .errors import InternalInconsistency, SuiteUnknown
from .groups import FiniteGroup, cycles_to_perm, p_part
from .fusion import (
    FusionSystem,
    center_of,
    focal_of,
    fusion_of_group,
    is_saturated,
)
from .records import Record

Cycles = tuple[tuple[int, ...], ...]


class CatalogEntry(Record):
    __slots__ = ("name", "description", "points", "generators", "prime", "expected")

    def __init__(
        self,
        name: str,
        description: str,
        points: int,
        generators: tuple[Cycles, ...],
        prime: int,
        expected: Optional[dict] = None,
    ) -> None:
        self.name = name
        self.description = description
        self.points = points
        self.generators = generators
        self.prime = prime
        self.expected = expected

    def permutations(self):
        return [cycles_to_perm(g, self.points) for g in self.generators]


def _c(*cycles):
    return tuple(tuple(c) for c in cycles)


ENTRIES: tuple[CatalogEntry, ...] = (
    CatalogEntry(
        "sigma3-cubed-paired",
        "three commuting symmetric-group-3 blocks with paired sign swaps; "
        "order 108 ambient for the pairwise-but-not-triple commuting example",
        9,
        (
            _c([1, 2, 3]),
            _c([4, 5, 6]),
            _c([7, 8, 9]),
            _c([1, 2], [4, 5]),
            _c([1, 2], [7, 8]),
        ),
        3,
        {"order": 108, "sylow_order": 27, "saturated": True, "center": 1, "focal": 27},
    ),
    CatalogEntry(
        "sigma3-cubed-full",
        "full product of three symmetric groups on 3 points (order 216)",
        9,
        (
            _c([1, 2, 3]),
            _c([4, 5, 6]),
            _c([7, 8, 9]),
            _c([1, 2]),
            _c([4, 5]),
            _c([7, 8]),
        ),
        3,
        {"order": 216, "sylow_order": 27, "saturated": True, "center": 1, "focal": 27},
    ),
    CatalogEntry(
        "sigma3",
        "symmetric group on 3 points at p=3",
        3,
        (_c([1, 2, 3]), _c([1, 2])),
        3,
        {"order": 6, "sylow_order": 3, "saturated": True, "center": 1, "focal": 3},
    ),
    CatalogEntry(
        "sigma3-squared",
        "product of two symmetric groups on 3 points at p=3",
        6,
        (_c([1, 2, 3]), _c([1, 2]), _c([4, 5, 6]), _c([4, 5])),
        3,
        {"order": 36, "sylow_order": 9, "saturated": True, "center": 1, "focal": 9},
    ),
    CatalogEntry(
        "dihedral18",
        "dihedral group of order 18 at p=3 (full inversion on a 9-cycle)",
        9,
        (_c([1, 2, 3, 4, 5, 6, 7, 8, 9]), _c([2, 9], [3, 8], [4, 7], [5, 6])),
        3,
        {"order": 18, "sylow_order": 9, "saturated": True, "center": 1, "focal": 9},
    ),
    CatalogEntry(
        "dihedral18-sigma3",
        "product of the order-18 dihedral group and a symmetric group on 3 "
        "points at p=3; indecomposable factors of different base orders",
        12,
        (
            _c([1, 2, 3, 4, 5, 6, 7, 8, 9]),
            _c([2, 9], [3, 8], [4, 7], [5, 6]),
            _c([10, 11, 12]),
            _c([10, 11]),
        ),
        3,
        {"order": 108, "sylow_order": 27, "saturated": True, "center": 1, "focal": 27},
    ),
    CatalogEntry(
        "inner-c2",
        "cyclic group of order 2, inner fusion",
        2,
        (_c([1, 2]),),
        2,
        {"order": 2, "sylow_order": 2, "saturated": True, "center": 2, "focal": 1},
    ),
    CatalogEntry(
        "inner-c2c2",
        "Klein four-group, inner fusion",
        4,
        (_c([1, 2]), _c([3, 4])),
        2,
        {"order": 4, "sylow_order": 4, "saturated": True, "center": 4, "focal": 1},
    ),
    CatalogEntry(
        "inner-c2c2c2",
        "elementary abelian group of order 8, inner fusion",
        6,
        (_c([1, 2]), _c([3, 4]), _c([5, 6])),
        2,
        {"order": 8, "sylow_order": 8, "saturated": True, "center": 8, "focal": 1},
    ),
    CatalogEntry(
        "inner-c3c3",
        "elementary abelian group of order 9, inner fusion",
        6,
        (_c([1, 2, 3]), _c([4, 5, 6])),
        3,
        {"order": 9, "sylow_order": 9, "saturated": True, "center": 9, "focal": 1},
    ),
    CatalogEntry(
        "inner-c3c3c3",
        "elementary abelian group of order 27, inner fusion",
        9,
        (_c([1, 2, 3]), _c([4, 5, 6]), _c([7, 8, 9])),
        3,
        {"order": 27, "sylow_order": 27, "saturated": True, "center": 27, "focal": 1},
    ),
    CatalogEntry(
        "inner-d8",
        "dihedral group of order 8, inner fusion",
        4,
        (_c([1, 2, 3, 4]), _c([1, 3])),
        2,
        {"order": 8, "sylow_order": 8, "saturated": True, "center": 2, "focal": 2},
    ),
    CatalogEntry(
        "inner-c2c4",
        "direct product of cyclic groups of orders 2 and 4, inner fusion",
        6,
        (_c([1, 2]), _c([3, 4, 5, 6])),
        2,
        {"order": 8, "sylow_order": 8, "saturated": True, "center": 8, "focal": 1},
    ),
    CatalogEntry(
        "inner-d8-c2",
        "dihedral group of order 8 times a central involution, inner fusion",
        6,
        (_c([1, 2, 3, 4]), _c([1, 3]), _c([5, 6])),
        2,
        {"order": 16, "sylow_order": 16, "saturated": True, "center": 4, "focal": 2},
    ),
    CatalogEntry(
        "sym4",
        "symmetric group on 4 points at p=2",
        4,
        (_c([1, 2]), _c([1, 2, 3, 4])),
        2,
        {"order": 24, "sylow_order": 8, "saturated": True, "center": 1, "focal": 4},
    ),
    CatalogEntry(
        "alt4",
        "alternating group on 4 points at p=2",
        4,
        (_c([1, 2, 3]), _c([1, 2], [3, 4])),
        2,
        {"order": 12, "sylow_order": 4, "saturated": True, "center": 1, "focal": 4},
    ),
    CatalogEntry(
        "sym4-c2",
        "symmetric group on 4 points times an involution at p=2",
        6,
        (_c([1, 2]), _c([1, 2, 3, 4]), _c([5, 6])),
        2,
        {"order": 48, "sylow_order": 16, "saturated": True, "center": 2, "focal": 4},
    ),
)

_BY_NAME = {e.name: e for e in ENTRIES}


def names() -> list[str]:
    return [e.name for e in ENTRIES]


def entry(name: str) -> CatalogEntry:
    if name not in _BY_NAME:
        raise SuiteUnknown(f"unknown catalog entry {name!r}")
    return _BY_NAME[name]


class CatalogBuild(Record, hidden=("_fusion",)):
    __slots__ = ("entry", "group", "_fusion")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, entry: CatalogEntry, group: FiniteGroup) -> None:
        self.entry = entry
        self.group = group
        self._fusion: Optional[FusionSystem] = None

    @property
    def fusion(self) -> FusionSystem:
        if self._fusion is None:
            self._fusion = fusion_of_group(self.group, self.entry.prime)
        return self._fusion


_BUILDS: dict[str, CatalogBuild] = {}


def built(name: str) -> CatalogBuild:
    if name not in _BUILDS:
        e = entry(name)
        group = FiniteGroup.from_permutations(
            e.permutations(), points=e.points, prime_hint=e.prime
        )
        _BUILDS[name] = CatalogBuild(e, group)
    return _BUILDS[name]


def verify_expected(name: str) -> dict:
    """Recompute the expected record of an entry; mismatches are fatal."""
    b = built(name)
    e = b.entry
    actual = {
        "order": b.group.order,
        "sylow_order": p_part(b.group.order, e.prime),
    }
    if e.expected:
        needs_fusion = any(
            k in e.expected for k in ("saturated", "center", "focal")
        )
        if needs_fusion:
            F = b.fusion
            actual["saturated"] = is_saturated(F)
            actual["center"] = center_of(F).order
            actual["focal"] = focal_of(F).order
        for key, want in e.expected.items():
            if actual.get(key) != want:
                raise InternalInconsistency(
                    f"catalog entry {name}: expected {key}={want}, got {actual.get(key)}"
                )
    return actual


# groupings used by the verification suites

SATURATION_BATTERY = names()

# systems whose endomorphism monoids are enumerated in full; the large
# elementary abelian inner systems are excluded because every self-map is
# trivially normal there and the scan adds minutes without discrimination
ENDO_SUITE = [
    "inner-c2",
    "inner-c2c2",
    "inner-c2c4",
    "inner-c3c3",
    "inner-d8",
    "inner-d8-c2",
    "sigma3",
    "dihedral18",
    "alt4",
    "sym4",
    "sym4-c2",
    "sigma3-cubed-paired",
    "sigma3-cubed-full",
]

# systems with several factorizations into indecomposable parts
MULTI_FACTOR = [
    "inner-c2c2",
    "inner-c2c4",
    "inner-c3c3",
    "inner-c2c2c2",
    "inner-c3c3c3",
]

# frozen factorization counts, cross-checked against the matrix-group
# formula |Aut(S)| / (|stabilizer of one decomposition|) in the tests
FACTORIZATION_COUNTS = {
    "inner-c2c2": 3,
    "inner-c2c4": 4,
    "inner-c3c3": 6,
    "inner-c2c2c2": 28,
    "inner-c3c3c3": 234,
}

# systems with trivial center or full focal subgroup (unique factorization)
RIGID = [
    "sigma3-cubed-paired",
    "sigma3-cubed-full",
    "sigma3",
    "sigma3-squared",
    "dihedral18",
    "dihedral18-sigma3",
    "sym4",
    "alt4",
]

# ambient groups for the p=2 transfer of factorizations
GOLDSCHMIDT = ["inner-c2c2", "inner-d8-c2", "sym4-c2"]

# ordered pairs for the product-compatibility oracle
PRODUCT_PAIRS = [
    ("sigma3", "sigma3"),
    ("sym4", "inner-c2"),
    ("inner-d8", "inner-c2"),
    ("sigma3", "dihedral18"),
]

INDECOMPOSABLE = [
    "sigma3-cubed-paired",
    "sigma3",
    "dihedral18",
    "inner-d8",
    "sym4",
    "alt4",
]
