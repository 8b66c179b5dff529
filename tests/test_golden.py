"""Golden outputs of `verify` and `count`, recorded in tests/golden.json
before the sweep invariants and the count kinds were declared as tables.

A change that moves an invariant, changes a case count or a flag total, or
alters one byte of a report fails here. Re-record with
`PYTHONPATH=src python tests/test_golden.py` only for a deliberate output
change, and say so in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from trailcounts import families
from trailcounts.cli import main
from trailcounts.reports import canonical_json

GOLDEN = Path(__file__).with_name("golden.json")

VERIFY_ENGINES = ("oracle,symbolic,fock", "oracle,symbolic", "symbolic,fock")

COUNT_GRAPHS = {
    "K4": families.complete_graph(4),
    "bowtie": families.bowtie_graph(),
    "K1": families.complete_graph(1),
    "K2": families.complete_graph(2),
}

# (kind, --length, --variant); closed kinds and one-vertex graphs end at --from
COUNT_QUERIES = (
    ("walks", "3", None),
    ("trails", "3", None),
    ("paths", "3", "literal"),
    ("paths", "3", "guarded"),
    ("euler", None, None),
    ("cycles", "3", None),
    ("hamiltonian", None, None),
)


def _cli(*argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def verify_digest(engines: str) -> dict:
    code, out = _cli("verify", "--n-max", "4", "--l-max", "4", "--engines", engines, "--format", "json")
    summary = json.loads(out)
    del summary["elapsed_s"]
    return {
        "exit": code,
        "invariants": [[inv["name"], inv["cases"], inv["failures"]] for inv in summary["invariants"]],
        "flag_totals": summary["flag_totals"],
        "sha256": hashlib.sha256(canonical_json(summary).encode()).hexdigest(),
    }


def count_reports(name: str, directory: Path) -> dict:
    g = COUNT_GRAPHS[name]
    path = directory / f"{name}.txt"
    path.write_text(f"n {g.n}\n" + "".join(f"{a} {b}\n" for a, b in sorted(g.edges)))
    out = {}
    for kind, length, variant in COUNT_QUERIES:
        to = "1" if g.n == 1 or kind in ("cycles", "hamiltonian") else "2"
        argv = ["count", "--input", str(path), "--kind", kind, "--from", "1", "--to", to, "--format", "json"]
        argv += ["--length", length] if length is not None else []
        argv += ["--variant", variant] if variant is not None else []
        code, text = _cli(*argv)
        report = json.loads(text) if text else None  # None after a usage error
        for value in report["engines"].values() if report else ():
            value.pop("wall_time_ms", None)
        out[" ".join(argv[3:])] = {"exit": code, "report": report}
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("engines", VERIFY_ENGINES)
def test_verify_matches_golden(golden, engines):
    assert verify_digest(engines) == golden["verify"][engines]


@pytest.mark.parametrize("name", sorted(COUNT_GRAPHS))
def test_count_matches_golden(golden, name, tmp_path):
    assert count_reports(name, tmp_path) == golden["count"][name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record = {
            "verify": {engines: verify_digest(engines) for engines in VERIFY_ENGINES},
            "count": {name: count_reports(name, Path(tmp)) for name in sorted(COUNT_GRAPHS)},
        }
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
