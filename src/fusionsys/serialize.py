"""JSON schemas for groups, fusion systems, morphisms and certificates.

All dumps are canonical (sorted keys, compact separators) so identical
inputs produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional

from .errors import UsageError
from .groups import FiniteGroup, Subgroup, cycles_to_perm, is_prime, lattice_of, perm_to_cycles
from .fusion import FusionSystem


def canonical_dumps(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def digest(data) -> str:
    return hashlib.sha256(canonical_dumps(data).encode()).hexdigest()


# ---------------------------------------------------------------------------
# groups


def group_to_json(G: FiniteGroup) -> dict:
    if G.perms is not None:
        return {
            "points": G.degree,
            "generators": [perm_to_cycles(G.perms[g]) for g in G.generators],
        }
    return {
        "cayley": [[G.mul(a, b) for b in range(G.order)] for a in range(G.order)],
        "generators": list(G.generators),
    }


def group_from_json(data: dict, *, prime_hint: Optional[int] = None) -> FiniteGroup:
    if isinstance(data, dict) and "generators" in data and "points" in data:
        points = _int_field(data, "points", "group")
        perms = [
            cycles_to_perm(_id_lists(gen, "a generator"), points)
            for gen in _list_field(data, "generators", "group")
        ]
        return FiniteGroup.from_permutations(
            perms, points=points, prime_hint=prime_hint
        )
    if isinstance(data, dict) and "cayley" in data:
        gens = data.get("generators")
        return FiniteGroup.from_cayley(
            _id_lists(data["cayley"], "a cayley table"),
            generators=None if gens is None else _id_list(gens, "cayley generators"),
            prime_hint=prime_hint,
        )
    raise UsageError("group JSON needs either points/generators or a cayley table")


def group_description(G: FiniteGroup) -> dict:
    return {
        "order": G.order,
        "degree": G.degree,
        "abelian": G.is_abelian,
        "generators": [G.element_repr(g) for g in G.generators],
        "center_order": len(G.center_members()),
        "conjugacy_classes": len(G.conjugacy_classes()),
        "element_orders": sorted(
            {G.element_order(x) for x in range(G.order)}
        ),
    }


# ---------------------------------------------------------------------------
# fusion systems


def fusion_to_json(F: FusionSystem) -> dict:
    lat = F.lattice
    k = len(lat.subs)
    table = []
    for i in range(k):
        row = []
        for j in range(k):
            row.append([list(m) for m in F.hom_maps(i, j)])
        table.append(row)
    return {
        "p": F.p,
        "base": group_to_json(F.base),
        "subgroups": [list(s.members) for s in lat.subs],
        "hom_table": table,
    }


def fusion_from_json(data: dict) -> FusionSystem:
    p = _int_field(data, "p", "fusion")
    if not is_prime(p):
        raise UsageError(f"fusion JSON needs a prime under 'p', got {p}")
    base = group_from_json(data.get("base"), prime_hint=p)
    lat = lattice_of(base)
    declared = _id_lists(_list_field(data, "subgroups", "fusion"), "the subgroup list")
    if declared != [s.members for s in lat.subs]:
        raise UsageError("declared subgroup list does not match the base group")
    k = len(lat.subs)
    table = _list_field(data, "hom_table", "fusion")
    if len(table) != k or not all(isinstance(row, list) and len(row) == k for row in table):
        raise UsageError(f"hom table must be a {k} x {k} list of map lists")
    table = [[_id_lists(cell, "a hom table entry") for cell in row] for row in table]
    F = FusionSystem(base, p, [set(row[lat.full_index]) for row in table])
    F.validate_table()
    F.validate_closure()
    # per-pair entries must agree with the slices of the maps into S
    for i in range(k):
        for j in range(k):
            if sorted(table[i][j]) != sorted(F.hom_maps(i, j)):
                raise UsageError(f"hom table entry ({i},{j}) is not consistent")
    return F


def subgroup_to_json(S: Subgroup) -> list[int]:
    return list(S.members)


# ---------------------------------------------------------------------------
# morphisms, factorizations, certificates


def factorization_to_json(fact) -> dict:
    return {
        "parts": [
            {
                "base": list(part.base.members),
                "fusion": fusion_to_json(part.system),
            }
            for part in fact.parts
        ]
    }


def _id_list(value, what: str) -> tuple[int, ...]:
    if not isinstance(value, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in value
    ):
        raise UsageError(f"{what} must be a list of element ids")
    return tuple(value)


def _id_lists(value, what: str) -> list[tuple[int, ...]]:
    if not isinstance(value, list):
        raise UsageError(f"{what} must be a list of lists of element ids")
    return [_id_list(row, f"an entry of {what}") for row in value]


def _list_field(data, key: str, what: str) -> list:
    if not isinstance(data, dict) or not isinstance(data.get(key), list):
        raise UsageError(f"{what} JSON needs a list under {key!r}")
    return data[key]


def _int_field(data, key: str, what: str) -> int:
    value = data.get(key) if isinstance(data, dict) else None
    if not isinstance(value, int) or isinstance(value, bool):
        raise UsageError(f"{what} JSON needs an integer under {key!r}")
    return value


def factorization_bases_from_json(data: dict) -> list[tuple[int, ...]]:
    bases = []
    for part in _list_field(data, "parts", "factorization"):
        if isinstance(part, dict):
            part = part.get("base")
        bases.append(_id_list(part, "a factorization part"))
    return bases


def certificate_to_json(cert) -> dict:
    return {
        "alpha": list(cert.alpha.images),
        "complement": list(cert.alpha.complement.images),
        "sigma": list(cert.sigma),
        "log": [list(h.images) for h in cert.construction_log],
        "constructive": cert.constructive,
        "note": cert.note,
    }


def generator_specs_from_json(
    data: dict, order: int
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The domain members and images of each entry of a generate file's
    ``"generators"``, every id an element of a group of this order."""
    specs = []
    for spec in _list_field(data, "generators", "generate"):
        domain, images = (
            _id_list(_list_field(spec, key, "generator"), f"a generator's {key!r}")
            for key in ("domain", "images")
        )
        if not all(0 <= x < order for x in domain + images):
            raise UsageError(f"a generator names an element outside 0..{order - 1}")
        specs.append((domain, images))
    return specs


def omega_maps_from_json(data: dict) -> list[tuple[int, ...]]:
    return [
        _id_list(row, "an automorphism map")
        for row in _list_field(data, "maps", "automorphism context")
    ]
