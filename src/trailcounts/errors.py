"""Shared exception types."""

from __future__ import annotations


class EdgeListError(ValueError):
    """Malformed edge-list input. Carries the offending 1-based line number."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class CapacityError(RuntimeError):
    """Register.all_pairs, the C(n,2)-slot pair register, would exceed its cap."""

    def __init__(self, required: int, cap: int):
        self.required = required
        self.cap = cap
        super().__init__(f"register needs {required} qubit slots but the cap is {cap}")


class BudgetExceededError(RuntimeError):
    """An enumeration or symbolic expansion exceeded its node/term budget."""

    def __init__(self, what: str, budget: int):
        self.what = what
        self.budget = budget
        super().__init__(f"{what} exceeded its budget of {budget}")
