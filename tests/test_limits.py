import inspect

import pytest

from trailcounts import fock, graphs, limits, nilpotent, oracle, reports, verify


def test_defaults():
    assert limits.term_budget() == 10_000_000
    assert limits.node_budget() == 100_000_000


def test_env_override(monkeypatch):
    monkeypatch.setenv(limits.NODE_BUDGET_ENV, "500")
    assert limits.node_budget() == 500


def test_invalid_values_rejected(monkeypatch):
    monkeypatch.setenv(limits.TERM_BUDGET_ENV, "lots")
    with pytest.raises(ValueError):
        limits.term_budget()
    monkeypatch.setenv(limits.TERM_BUDGET_ENV, "0")
    with pytest.raises(ValueError):
        limits.term_budget()


def _callables(module):
    """Every function, lru-cached function and method defined in module."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            for attr in vars(obj).values():
                attr = getattr(attr, "__func__", attr)  # classmethods and staticmethods
                if inspect.isfunction(attr):
                    yield attr
        elif callable(obj):
            yield obj


@pytest.mark.parametrize("module", [oracle, fock, nilpotent, graphs, reports, verify], ids=lambda m: m.__name__)
def test_no_function_takes_a_budget_or_register_knob(module):
    # budgets come from the environment only, and each register is fixed by
    # what it serves: a per-call override would be one more setting to test
    found = list(_callables(module))
    assert found
    for fn in found:
        names = set(inspect.signature(fn).parameters)
        assert not names & {"node_budget", "term_budget", "present_edges_only"}, fn.__qualname__
