"""The result records: value semantics of the plain slotted classes, and a
cold start that imports neither ``dataclasses`` nor ``inspect``."""

import subprocess
import sys

import pytest

from fusionsys import catalog, factor, fusion, groups, guardrails, morphisms, verify
from fusionsys.factor import Factorization, factorize
from fusionsys.morphisms import Subsystem, commute_check


def test_cold_start_imports_neither_dataclasses_nor_inspect():
    probe = (
        "import sys; before = set(sys.modules); "
        "import fusionsys, fusionsys.catalog, fusionsys.cli, fusionsys.verify; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"


# class, constructor arguments, positions of the arguments left out of
# equality and repr, hashable
RECORDS = [
    (catalog.CatalogEntry, 6, (), True),
    (catalog.CatalogBuild, 2, (), False),
    (factor.NormalEndomorphism, 4, (), True),
    (factor.OmegaContext, 2, (), True),
    (factor.NormalEndReport, 6, (), True),
    (factor.FittingSplit, 3, (), True),
    (factor.Factorization, 2, (1,), True),
    (factor.KrsCertificate, 5, (), True),
    (factor.AutStructure, 5, (), True),
    (fusion.SaturationFailure, 4, (), True),
    (fusion.ClassReport, 3, (), True),
    (fusion.SaturationReport, 3, (), True),
    (fusion.ConjugacyData, 2, (), True),
    (fusion.SubgroupClassification, 3, (), True),
    (fusion.FusionInvariants, 5, (), True),
    (groups.CharacteristicSubgroups, 4, (), True),
    (groups.OmegaSeries, 1, (), True),
    (groups.DirectProduct, 5, (), True),
    (guardrails.Guardrails, 5, (), True),
    (morphisms.Subsystem, 2, (), True),
    (morphisms.CommuteResult, 3, (), False),
    (verify.CheckResult, 3, (), True),
]


@pytest.mark.parametrize(
    "cls, arity, hidden, hashable", RECORDS, ids=[row[0].__name__ for row in RECORDS]
)
def test_record_semantics(cls, arity, hidden, hashable):
    args = tuple(range(arity))
    a = cls(*args)
    assert a == cls(*args) and not a != cls(*args)
    assert a != args and a.__eq__(args) is NotImplemented
    for i in range(arity):
        other = cls(*args[:i], -1, *args[i + 1:])
        assert (a == other) == (i in hidden)
        assert (repr(a) == repr(other)) == (i in hidden)
        if hashable and i in hidden:
            assert hash(a) == hash(other)
    if hashable:
        assert hash(a) == hash(cls(*args))
    else:
        with pytest.raises(TypeError):
            hash(a)
    assert hasattr(a, "__dict__") == (cls is guardrails.Guardrails)


def test_records_over_fusion_systems():
    build = catalog.built("inner-c2c2")
    F = build.fusion
    fact = factorize(F)
    # FusionSystem is unhashable, so records that hold one are too
    for record in (fact, fact.parts[0]):
        with pytest.raises(TypeError):
            hash(record)
    result = commute_check(F, list(fact.parts))
    with pytest.raises(TypeError):
        hash(result)
    with pytest.raises(TypeError):
        hash(build)
    # the system a factorization belongs to and the lazy caches are not compared
    other_system = catalog.built("inner-c2").fusion
    assert fact == Factorization(fact.parts, other_system)
    assert fact != Factorization(fact.parts[:1], F)
    assert Subsystem(fact.parts[0].base, F) != fact.parts[0]
    unbuilt = commute_check(F, list(fact.parts))
    assert result.inner is result._inner
    assert result == unbuilt and repr(result) == repr(unbuilt)
    assert build._fusion is not None
    assert build == catalog.CatalogBuild(build.entry, build.group)


def test_record_reprs_keep_the_field_text():
    F = catalog.built("inner-c2").fusion
    assert repr(fusion.saturation_report(F)) == (
        "SaturationReport(verdict=True, per_class=(ClassReport(members=(0,), witness=0, "
        "failure=None), ClassReport(members=(1,), witness=1, failure=None)), "
        "continuity='vacuous for a finite base group')"
    )
    F2 = catalog.built("inner-c2c2").fusion
    fact = factorize(F2)
    assert repr(fact) == (
        "Factorization(parts=(Subsystem(base=Subgroup(order=2, members=(0, 1)), "
        "system=FusionSystem(|S|=2, p=2, subgroups=2, morphisms=2)), "
        "Subsystem(base=Subgroup(order=2, members=(0, 2)), "
        "system=FusionSystem(|S|=2, p=2, subgroups=2, morphisms=2))))"
    )
    assert repr(commute_check(F2, list(fact.parts))) == (
        "CommuteResult(ambient=FusionSystem(|S|=4, p=2, subgroups=5, morphisms=5), "
        "inner_base=Subgroup(order=4, members=(0, 1, 2, 3)), seeds=frozenset())"
    )


def test_guardrails_keep_a_dict_of_the_five_limits():
    limits = vars(guardrails.active())
    assert list(limits.items()) == [
        ("closure_limit", 20000),
        ("subgroup_limit", 512),
        ("hom_search_limit", 2_000_000),
        ("table_limit", 500_000),
        ("omega_limit", 10000),
    ]
    assert guardrails.Guardrails() == guardrails.Guardrails()
    assert guardrails.Guardrails().scaled_to(7) == guardrails.Guardrails(7, 7, 2_000_000, 500_000, 7)
