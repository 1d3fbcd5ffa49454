"""JSON schemas: round trips, canonical form, malformed input."""

import json

import pytest

from fusionsys import catalog, serialize
from fusionsys.errors import NotBijection, NotSubgroup, UsageError
from fusionsys.groups import FiniteGroup, Subgroup, cycles_to_perm, quotient
from fusionsys.fusion import fusion_equal, inner_fusion


def test_group_round_trip_permutations():
    G = catalog.built("sym4").group
    data = serialize.group_to_json(G)
    rebuilt = serialize.group_from_json(data)
    assert rebuilt.order == 24
    assert rebuilt.perms == G.perms


def test_group_round_trip_cayley():
    d8 = catalog.built("inner-d8").group
    z = Subgroup(d8, d8.center_members(), _checked=True)
    quo, _ = quotient(d8, z)  # Cayley-only group, no permutation data
    data = serialize.group_to_json(quo)
    assert "cayley" in data
    rebuilt = serialize.group_from_json(data)
    assert rebuilt.order == 4
    for a in range(4):
        for b in range(4):
            assert rebuilt.mul(a, b) == quo.mul(a, b)


def test_group_json_rejects_unknown_shape():
    with pytest.raises(UsageError):
        serialize.group_from_json({"nonsense": 1})


def test_group_json_rejects_bad_cycles():
    with pytest.raises(NotBijection):
        serialize.group_from_json(
            {"points": 3, "generators": [[[1, 2], [2, 3]]]}
        )


def test_fusion_round_trip_is_canonical():
    F = catalog.built("inner-c2c4").fusion
    data = serialize.fusion_to_json(F)
    rebuilt = serialize.fusion_from_json(data)
    assert fusion_equal(rebuilt, F)
    assert serialize.canonical_dumps(
        serialize.fusion_to_json(rebuilt)
    ) == serialize.canonical_dumps(data)


# The saved base group keeps only its generators, and closing them again
# numbers these three groups' elements differently, so the saved subgroup
# ids no longer match (open FOUND note in CHANGES.md).
_ROUND_TRIP_RENUMBERS = {"dihedral18", "dihedral18-sigma3", "sym4-c2"}


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(
            name,
            marks=pytest.mark.xfail(
                strict=True,
                raises=UsageError,
                reason="the reloaded base group numbers its elements differently",
            ),
        )
        if name in _ROUND_TRIP_RENUMBERS
        else name
        for name in catalog.names()
    ],
)
def test_fusion_round_trip_of_every_catalog_entry(name):
    F = catalog.built(name).fusion
    text = serialize.canonical_dumps(serialize.fusion_to_json(F))
    assert fusion_equal(serialize.fusion_from_json(json.loads(text)), F)


def test_fusion_json_rejects_inconsistent_table():
    F = catalog.built("inner-c2c2").fusion
    data = serialize.fusion_to_json(F)
    # drop the inclusion of a line into the full subgroup from the
    # per-pair entry while keeping the maps-into-S slice intact
    data = json.loads(json.dumps(data))
    full = len(data["subgroups"]) - 1
    assert data["hom_table"][1][full], "expected a nonempty entry"
    data["hom_table"][1][1] = []
    with pytest.raises(UsageError):
        serialize.fusion_from_json(data)


def test_fusion_json_rejects_missing_inner_maps():
    F = catalog.built("inner-c2c2").fusion
    data = json.loads(json.dumps(serialize.fusion_to_json(F)))
    full = len(data["subgroups"]) - 1
    kept = [m for m in data["hom_table"][full][full] if m == list(range(4))]
    for i in range(len(data["subgroups"])):
        data["hom_table"][i][full] = (
            kept if i == full else data["hom_table"][i][full]
        )
    # removing nothing keeps it valid; removing an inner map breaks it
    serialize.fusion_from_json(data)
    data["hom_table"][full][full] = []
    with pytest.raises((NotSubgroup, UsageError)):
        serialize.fusion_from_json(data)


def test_fusion_json_rejects_non_injective_map():
    F = catalog.built("inner-c2c2").fusion
    data = json.loads(json.dumps(serialize.fusion_to_json(F)))
    line = data["subgroups"].index([0, 1])
    # the collapse of a line onto the identity, consistent in every entry
    for j in range(len(data["subgroups"])):
        data["hom_table"][line][j].append([0, 0])
    with pytest.raises(NotSubgroup, match="non-injective"):
        serialize.fusion_from_json(data)


def test_fusion_json_rejects_table_not_closed():
    F = catalog.built("inner-c2c2").fusion
    data = json.loads(json.dumps(serialize.fusion_to_json(F)))
    full = len(data["subgroups"]) - 1
    # an automorphism of the full group without its restrictions to lines
    data["hom_table"][full][full].append([0, 2, 1, 3])
    with pytest.raises(NotSubgroup, match="not closed under restriction"):
        serialize.fusion_from_json(data)


def test_factorization_bases_accept_both_shapes():
    flat = {"parts": [[0, 1], [0, 2]]}
    rich = {"parts": [{"base": [0, 1], "fusion": {}}, {"base": [0, 2]}]}
    assert serialize.factorization_bases_from_json(flat) == [(0, 1), (0, 2)]
    assert serialize.factorization_bases_from_json(rich) == [(0, 1), (0, 2)]


def test_digest_stability():
    payload = {"b": 1, "a": [3, 2, {"z": True}]}
    assert serialize.digest(payload) == serialize.digest(
        json.loads(serialize.canonical_dumps(payload))
    )
