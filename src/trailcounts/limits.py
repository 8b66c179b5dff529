"""Default resource caps, overridable through environment variables.

All engines are desk-scale by design: the caps exist to turn combinatorial
blow-ups into clean errors instead of runaway memory or CPU use.
"""

from __future__ import annotations

import os

TERM_BUDGET_ENV = "TRAILCOUNTS_TERM_BUDGET"
NODE_BUDGET_ENV = "TRAILCOUNTS_NODE_BUDGET"

# live monomials in the level or matrix product being built, checked while it is built
_DEFAULT_TERM_BUDGET = 10_000_000
# the root and every admitted step of a search; Fock step-table entries and level steps, in index words;
# adjacency-power rows' live entries, in words of each level's largest count
_DEFAULT_NODE_BUDGET = 100_000_000


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def words(bits: int) -> int:
    """The 64-bit words every budget charges for a value `bits` bits wide."""
    return 1 + bits // 64


def term_budget() -> int:
    return _env_int(TERM_BUDGET_ENV, _DEFAULT_TERM_BUDGET)


def node_budget() -> int:
    return _env_int(NODE_BUDGET_ENV, _DEFAULT_NODE_BUDGET)
