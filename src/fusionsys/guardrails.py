"""Configurable size limits for the exhaustive algorithms.

Every enumeration in the package is exact, so the limits below are what
keep worst cases tractable.  ``FUSIONSYS_GUARDRAIL=<n>`` overrides all of
them with a single value.
"""

from __future__ import annotations

import os

from .records import Record


class Guardrails(
    Record,
    fields=("closure_limit", "subgroup_limit", "hom_search_limit", "table_limit", "omega_limit"),
):
    """The limits in force.  No slots: ``vars()`` gives the five limits in
    this order, and the benchmark records it with every run."""

    def __init__(
        self,
        closure_limit: int = 20000,         # max group order for generator closure
        subgroup_limit: int = 512,          # max group order for subgroup enumeration
        hom_search_limit: int = 2_000_000,  # max backtracking candidates per hom search
        table_limit: int = 500_000,         # max stored fusion-system morphisms
        omega_limit: int = 10000,           # max closure size for automorphism contexts
    ) -> None:
        self.closure_limit = closure_limit
        self.subgroup_limit = subgroup_limit
        self.hom_search_limit = hom_search_limit
        self.table_limit = table_limit
        self.omega_limit = omega_limit

    def scaled_to(self, value: int) -> "Guardrails":
        return Guardrails(
            closure_limit=value,
            subgroup_limit=value,
            hom_search_limit=max(value, self.hom_search_limit),
            table_limit=max(value, self.table_limit),
            omega_limit=value,
        )


def from_env() -> Guardrails:
    raw = os.environ.get("FUSIONSYS_GUARDRAIL")
    base = Guardrails()
    if not raw:
        return base
    try:
        value = int(raw)
    except ValueError:
        return base
    if value <= 0:
        return base
    return base.scaled_to(value)


_ACTIVE = from_env()


def active() -> Guardrails:
    return _ACTIVE
