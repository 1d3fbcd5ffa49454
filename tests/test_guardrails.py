"""Size limits and their environment override."""

import pytest

from fusionsys import guardrails
from fusionsys.errors import GuardrailExceeded
from fusionsys.groups import (
    FiniteGroup,
    automorphisms,
    cycles_to_perm,
    injective_homs,
    subgroups,
)
from fusionsys.fusion import generated_fusion


def test_env_override(monkeypatch):
    monkeypatch.setenv("FUSIONSYS_GUARDRAIL", "123")
    limits = guardrails.from_env()
    assert limits.closure_limit == 123
    assert limits.subgroup_limit == 123
    assert limits.omega_limit == 123


def test_env_override_ignores_garbage(monkeypatch):
    monkeypatch.setenv("FUSIONSYS_GUARDRAIL", "not-a-number")
    assert guardrails.from_env() == guardrails.Guardrails()
    monkeypatch.setenv("FUSIONSYS_GUARDRAIL", "-5")
    assert guardrails.from_env() == guardrails.Guardrails()


def test_hom_search_guardrail(monkeypatch):
    e27 = FiniteGroup.from_permutations(
        [
            cycles_to_perm([[1, 2, 3]], 9),
            cycles_to_perm([[4, 5, 6]], 9),
            cycles_to_perm([[7, 8, 9]], 9),
        ]
    )
    full = e27.full_subgroup()
    monkeypatch.setattr(guardrails, "_ACTIVE", guardrails.Guardrails(hom_search_limit=10))
    with pytest.raises(GuardrailExceeded):
        injective_homs(full, full)


def test_automorphism_search_guardrail(monkeypatch):
    e27 = FiniteGroup.from_permutations(
        [
            cycles_to_perm([[1, 2, 3]], 9),
            cycles_to_perm([[4, 5, 6]], 9),
            cycles_to_perm([[7, 8, 9]], 9),
        ]
    )
    monkeypatch.setattr(guardrails, "_ACTIVE", guardrails.Guardrails(hom_search_limit=10))
    with pytest.raises(GuardrailExceeded):
        automorphisms(e27)


def test_table_limit_guardrail(monkeypatch):
    d8 = FiniteGroup.from_permutations(
        [cycles_to_perm([[1, 2, 3, 4]], 4), cycles_to_perm([[1, 3]], 4)]
    )
    monkeypatch.setattr(guardrails, "_ACTIVE", guardrails.Guardrails(table_limit=5))
    with pytest.raises(GuardrailExceeded):
        generated_fusion(d8, [])


def test_table_limit_trips_at_a_class_merge_exactly_over_the_table_size(monkeypatch):
    # fusing the reflection <(1 3)> with <(1 2)(3 4)> grows a 28-map
    # table; its last growth is the merge of two involution classes
    d8 = FiniteGroup.from_permutations(
        [cycles_to_perm([[1, 2, 3, 4]], 4), cycles_to_perm([[1, 3]], 4)]
    )
    lines = {d8.perms[sub.members[1]]: sub for sub in subgroups(d8) if sub.order == 2}
    iso = injective_homs(
        lines[cycles_to_perm([[1, 3]], 4)], lines[cycles_to_perm([[1, 2], [3, 4]], 4)]
    )[0]
    size = generated_fusion(d8, [iso]).morphism_count()
    assert size == 28
    monkeypatch.setattr(guardrails, "_ACTIVE", guardrails.Guardrails(table_limit=size - 1))
    with pytest.raises(GuardrailExceeded, match="while merging two classes"):
        generated_fusion(d8, [iso])
    monkeypatch.setattr(guardrails, "_ACTIVE", guardrails.Guardrails(table_limit=size))
    at_limit = generated_fusion(d8, [iso])
    assert at_limit.morphism_count() == size
