"""Mutation rows for the invariant sweep.

Each row replaces one line in a copy of the package source, runs a small
sweep (n <= 4, l <= 4, on the row's engines) on the copy in a fresh
interpreter, and names the first invariant that must fail. The unmutated
copy must pass: without that control, a row could pass because the copy or
the subprocess is broken. A row is a fault that `count` can make and the
sweep must see, so each mutates code that `count` runs.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

SWEEP = """
import json
import sys
import trailcounts
from trailcounts import verify
summary = verify.run_sweep(verify.SweepConfig(n_max=4, l_max=4, engines=tuple(sys.argv[1:])))
failed = [inv.name for inv in summary.invariants if not inv.passed]
print(json.dumps({"file": trailcounts.__file__, "failed": failed}))
"""

ALL = ("oracle", "symbolic", "fock")
FOCK_GUARD = "reference &= ~(1 << register.bit(register.slot_index(guard_vertex)))"

# (module, the line as it stands, its replacement, the first invariant that
# fails, the engines swept)
MUTANTS = {
    # a closed distinct-non-initial walk that turns straight back counts
    # as a cycle, in count's path note and in the sweep's path table alike
    "closed-cycle-rule": (
        "oracle.py",
        "return dni, (dni if length >= 3 else 0)",
        "return dni, (dni if length >= 2 else 0)",
        "count-monotonicity-path-trail-walk",
        ALL,
    ),
    # the symbolic guarded path count loses its start-generator seed and
    # counts the literal observable
    "guard-seed-dropped": (
        "nilpotent.py",
        "guard = 1 << (u - 1) if variant is PathVariant.START_GUARDED else 0",
        "guard = 0",
        "path-op-guarded-matches-filter",
        ALL,
    ),
    # the Fock guarded path count keeps the start's slot occupied and
    # counts the literal observable
    "fock-guard-dropped": ("fock.py", FOCK_GUARD, "pass", "path-op-guarded-matches-filter", ALL),
    # the same fault with the symbolic engine off: the Fock guarded count
    # is then checked against the oracle's path table alone
    "fock-guard-dropped-without-symbolic": (
        "fock.py", FOCK_GUARD, "pass", "path-op-guarded-matches-filter", ("oracle", "fock")
    ),
    # the Fock aimed last step keeps the steps that leave v, not those into
    # it, so the per-query evaluators' last level holds nothing at v
    "fock-aim-steps-leaving-v": (
        "fock.py",
        "if target and x != target:",
        "if target and w != target:",
        "fock-op-matches-table",
        ALL,
    ),
    # the Fock vertex-space step occupies the source's slot, not the
    # destination's, so the vertex observable counts the wrong walks
    "fock-step-slot-of-source": (
        "fock.py",
        "x - 1 if vertex",
        "w - 1 if vertex",
        "vertex-observable-agreement-fock",
        ALL,
    ),
    # the symbolic aimed last step filters on the step's edge position, not
    # its end vertex
    "symbolic-aim-wrong-field": (
        "nilpotent.py",
        "if aim and j != aim:",
        "if aim and i != aim:",
        "row-power-matches-matrix-power",
        ALL,
    ),
    # the symbolic row step keeps a term whose monomial already holds the
    # step's generator, so trails count as walks; the sweep's tables read
    # the same row steps, so the every-cell agreement row fails first
    "symbolic-row-step-keeps-repeats": (
        "nilpotent.py",
        "if not m & bit:",
        "if True:",
        "trail-agreement-oracle-vs-nilpotent",
        ALL,
    ),
}


def _sweep_copy(root: Path, mutant: tuple[str, str, str] | None = None, engines: tuple[str, ...] = ALL) -> list[str]:
    """The invariants that fail on a sweep of the given engines over a copy
    of the source, with one line replaced if a mutant is given."""
    shutil.copytree(SRC, root / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    package = root / "src" / "trailcounts"
    if mutant is not None:
        module, line, replacement = mutant
        path = package / module
        text = path.read_text()
        assert text.count(line) == 1, f"{module} no longer holds {line!r} exactly once"
        path.write_text(text.replace(line, replacement))
    run = subprocess.run(
        [sys.executable, "-c", SWEEP, *engines],
        cwd=root,
        env={"PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout)
    assert Path(result["file"]).resolve().is_relative_to(package.resolve())
    return result["failed"]


def test_unmutated_copy_passes(tmp_path):
    assert _sweep_copy(tmp_path) == []


@pytest.mark.parametrize("name", MUTANTS)
def test_sweep_catches_mutant(tmp_path, name):
    *mutant, first, engines = MUTANTS[name]
    failed = _sweep_copy(tmp_path, tuple(mutant), engines)
    assert failed[:1] == [first], failed
