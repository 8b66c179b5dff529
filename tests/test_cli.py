import contextlib
import csv
import decimal
import functools
import io
import itertools
import json
import os
import resource
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import trailcounts
from trailcounts import families, limits, nilpotent, reports, verify
from trailcounts.cli import main
from trailcounts.graphs import Graph
from trailcounts.nilpotent import PathVariant
from trailcounts.reports import (
    DMATRIX_SQUARED,
    PROP2_LITERAL_OVERCOUNT,
    canonical_json,
    run_count_query,
)

C4_TEXT = "1 2\n1 3\n2 4\n3 4\n"


@pytest.fixture
def c4_file(tmp_path):
    path = tmp_path / "c4.txt"
    path.write_text(C4_TEXT)
    return str(path)


def _edge_file(tmp_path, name, g):
    path = tmp_path / f"{name}.txt"
    path.write_text(f"n {g.n}\n" + "".join(f"{a} {b}\n" for a, b in sorted(g.edges)))
    return str(path)


@pytest.fixture
def k8_file(tmp_path):
    edges = "\n".join(f"{u} {v}" for u, v in itertools.combinations(range(1, 9), 2))
    path = tmp_path / "k8.txt"
    path.write_text(edges + "\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_trails_all_engines_agree(self, capsys, c4_file):
        code, out, _ = run(
            capsys, "count", "--input", c4_file, "--kind", "trails",
            "--length", "3", "--from", "1", "--to", "2", "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert {e: v["value"] for e, v in report["engines"].items()} == {
            "oracle": "1", "symbolic": "1", "fock": "1",
        }
        assert all(report["agreement"].values())

    def test_walks_known_value(self, capsys, c4_file):
        code, out, _ = run(
            capsys, "count", "--input", c4_file, "--kind", "walks",
            "--length", "3", "--from", "1", "--to", "2", "--format", "json",
        )
        assert code == 0
        values = {v["value"] for v in json.loads(out)["engines"].values()}
        assert values == {"4"}

    def test_path_variants_disagree_with_note(self, capsys, c4_file):
        code, lit_out, _ = run(
            capsys, "count", "--input", c4_file, "--kind", "paths", "--length", "3",
            "--from", "1", "--to", "2", "--variant", "literal", "--format", "json",
        )
        assert code == 0
        literal = json.loads(lit_out)
        code, grd_out, _ = run(
            capsys, "count", "--input", c4_file, "--kind", "paths", "--length", "3",
            "--from", "1", "--to", "2", "--variant", "guarded", "--format", "json",
        )
        assert code == 0
        guarded = json.loads(grd_out)
        assert {v["value"] for v in literal["engines"].values()} == {"2"}
        assert {v["value"] for v in guarded["engines"].values()} == {"1"}
        assert any(n["code"] == PROP2_LITERAL_OVERCOUNT for n in literal["notes"])

    def test_euler_and_hamiltonian_kinds(self, capsys, c4_file):
        code, out, _ = run(
            capsys, "count", "--input", c4_file, "--kind", "euler",
            "--from", "1", "--format", "json",
        )
        assert code == 0
        assert {v["value"] for v in json.loads(out)["engines"].values()} == {"2"}
        code, out, _ = run(
            capsys, "count", "--input", c4_file, "--kind", "hamiltonian",
            "--from", "1", "--format", "json",
        )
        assert code == 0
        assert {v["value"] for v in json.loads(out)["engines"].values()} == {"2"}

    def test_cycles_kind(self, capsys, c4_file):
        code, out, _ = run(
            capsys, "count", "--input", c4_file, "--kind", "cycles",
            "--length", "4", "--from", "1", "--format", "json",
        )
        assert code == 0
        assert {v["value"] for v in json.loads(out)["engines"].values()} == {"2"}

    def test_csv_format(self, capsys, c4_file):
        code, out, _ = run(
            capsys, "count", "--input", c4_file, "--kind", "trails",
            "--length", "3", "--from", "1", "--to", "2", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == reports.CSV_HEADER
        assert len(rows) == 4
        assert {r[6] for r in rows[1:]} == {"oracle", "symbolic", "fock"}
        assert {r[7] for r in rows[1:]} == {"1"}

    def test_text_format(self, capsys, c4_file):
        code, out, _ = run(
            capsys, "count", "--input", c4_file, "--kind", "trails",
            "--length", "3", "--from", "1", "--to", "2",
        )
        assert code == 0
        assert "agree" in out

    def test_capacity_exit_code(self, capsys, monkeypatch, tmp_path):
        # K9 trails at l = 10 would hold about a gigabyte of Fock states; the
        # budget refuses the level that would exceed it before building it
        monkeypatch.setenv("TRAILCOUNTS_NODE_BUDGET", "1000000")
        path = _edge_file(tmp_path, "k9", families.complete_graph(9))
        code, out, _ = run(
            capsys, "count", "--input", path, "--kind", "trails",
            "--length", "10", "--from", "1", "--to", "2", "--engine", "fock", "--format", "json",
        )
        assert code == 2
        assert json.loads(out)["engines"] == {
            "fock": {"error": "normal-ordered evaluation exceeded its budget of 1000000"}
        }

    def test_wide_register_is_refused_under_the_default_budget(self, capsys, monkeypatch, tmp_path):
        # K20 on 10**6 vertices: each basis index is 10**6 bits, so each node
        # costs 1 + 10**6 // 64 = 15626, and at l = 4 the 6,859 steps into
        # level 3 (about 860 MB of indices) are refused before they are
        # tried; at l = 3 the aimed last level tries only the 343 steps into
        # 2 (the K20-wide-paths-3 contract)
        monkeypatch.delenv("TRAILCOUNTS_NODE_BUDGET", raising=False)
        path = _edge_file(tmp_path, "wide", _WIDE_K20())
        code, out, _ = run(
            capsys, "count", "--input", path, "--kind", "paths",
            "--length", "4", "--from", "1", "--to", "2", "--engine", "fock", "--format", "json",
        )
        assert code == 2
        assert json.loads(out)["engines"] == {
            "fock": {"error": "normal-ordered evaluation exceeded its budget of 100000000"}
        }

    def test_k8_trails_on_the_fock_engine(self, capsys, k8_file):
        # 28 edges: the |E|-slot register has no width cap
        code, out, _ = run(
            capsys, "count", "--input", k8_file, "--kind", "trails",
            "--length", "3", "--from", "1", "--to", "2", "--engine", "fock", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["engines"]["fock"]["value"] == "30"

    def test_k8_open_euler_is_zero_before_any_register(self, capsys, monkeypatch, k8_file):
        # all 28 degrees are odd, so parity answers on every engine: no
        # search, no product and no register
        monkeypatch.setenv("TRAILCOUNTS_NODE_BUDGET", "1")
        monkeypatch.setenv("TRAILCOUNTS_TERM_BUDGET", "1")
        code, out, _ = run(
            capsys, "count", "--input", k8_file, "--kind", "euler",
            "--from", "1", "--to", "2", "--engine", "all", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["length"] == 28
        assert {name: e["value"] for name, e in payload["engines"].items()} == {
            "oracle": "0", "symbolic": "0", "fock": "0",
        }
        assert all(payload["agreement"].values())

    @pytest.mark.parametrize(
        "env, budget, argv, engine, message",
        [
            ("TRAILCOUNTS_NODE_BUDGET", 1000, ("--kind", "euler", "--from", "1", "--engine", "oracle"), "oracle",
             "trail tally exceeded its budget of 1000"),
            ("TRAILCOUNTS_TERM_BUDGET", 2, ("--kind", "trails", "--length", "3", "--from", "1", "--to", "2",
                                            "--engine", "symbolic"), "symbolic",
             "polynomial row product exceeded its budget of 2"),
        ],
        ids=["node-budget", "term-budget"],
    )
    def test_budget_from_the_environment_refuses(self, capsys, monkeypatch, tmp_path, env, budget, argv, engine, message):
        # the environment is the only way a budget reaches an engine
        monkeypatch.setenv(env, str(budget))
        path = _edge_file(tmp_path, "k7", families.complete_graph(7))
        code, out, _ = run(capsys, "count", "--input", path, *argv, "--format", "json")
        assert code == 2
        assert json.loads(out)["engines"] == {engine: {"error": message}}

    def test_petersen_falls_back_to_compact_register(self, capsys, tmp_path):
        # 45 vertex pairs exceed the register cap; evaluations use the 15
        # present edges
        path = _edge_file(tmp_path, "petersen", families.petersen_graph())
        code, out, _ = run(
            capsys, "count", "--input", path, "--kind", "trails",
            "--length", "5", "--from", "1", "--to", "2", "--format", "json",
        )
        assert code == 0
        engines = json.loads(out)["engines"]
        assert engines["fock"]["value"] == engines["oracle"]["value"] == "4"

    def test_walks_beyond_the_recursion_limit(self, capsys, tmp_path):
        path = _edge_file(tmp_path, "k2", families.complete_graph(2))
        code, out, _ = run(
            capsys, "count", "--input", path, "--kind", "walks",
            "--length", "3000", "--from", "1", "--to", "1", "--format", "json",
        )
        assert code == 0
        assert {e: v["value"] for e, v in json.loads(out)["engines"].items()} == {
            "oracle": "1", "symbolic": "1", "fock": "1",
        }

    def test_walk_count_past_the_digit_limit(self, capsys, tmp_path):
        # closed walks of length 2k from an end of P3 number 2^(k-1): 15,052 digits
        path = _edge_file(tmp_path, "p3", families.path_graph(3))
        code, out, _ = run(
            capsys, "count", "--input", path, "--kind", "walks", "--length", "100000",
            "--from", "1", "--to", "1", "--engine", "symbolic", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["engines"]["symbolic"]["value"] == str(decimal.Decimal(2**49999))

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_dense_walk_count_past_the_digit_limit(self, capsys, tmp_path, fmt):
        path = _edge_file(tmp_path, "k40", families.complete_graph(40))
        code, out, _ = run(
            capsys, "count", "--input", path, "--kind", "walks", "--length", "3000",
            "--from", "1", "--to", "2", "--engine", "symbolic", "--format", fmt,
        )
        assert code == 0
        expected = str(decimal.Decimal((39**3000 - 1) // 40))  # 4,772 digits
        if fmt == "json":
            assert json.loads(out)["engines"]["symbolic"]["value"] == expected
        elif fmt == "csv":
            assert list(csv.reader(io.StringIO(out)))[1][7] == expected
        else:
            assert f" {expected} " in out

    @pytest.mark.parametrize("n, expected", [(1, "0"), (2, "1")])
    def test_hamiltonian_below_three_vertices(self, capsys, tmp_path, n, expected):
        # K2's back-and-forth traversal is a closed sequence through every
        # vertex once; K1 has none
        path = _edge_file(tmp_path, f"k{n}", families.complete_graph(n))
        code, out, _ = run(
            capsys, "count", "--input", path, "--kind", "hamiltonian", "--from", "1",
            "--format", "json",
        )
        assert code == 0
        values = {v["value"] for v in json.loads(out)["engines"].values()}
        assert values == {expected}

    def test_usage_errors(self, capsys, c4_file):
        for query, message in [
            (("--kind", "trails"), "--kind trails requires --length"),
            (("--kind", "trails", "--length", "2", "--variant", "literal"), "--variant applies to --kind paths only"),
            (("--kind", "cycles", "--length", "3", "--to", "2"), "kind 'cycles' is closed; u must equal v, got 1 and 2"),
        ]:
            code, out, err = run(capsys, "count", "--input", c4_file, "--from", "1", *query)
            assert code == 1
            assert out == ""
            assert f"error: {message}\n" in err
            assert "usage:" in err

    def test_negative_walk_length_names_the_walk_bound(self, capsys, c4_file):
        code, out, err = run(
            capsys, "count", "--input", c4_file, "--kind", "walks", "--length", "-1", "--from", "1",
        )
        assert code == 1
        assert out == ""
        assert "error: kind 'walks' needs length >= 0, got -1" in err
        assert "usage:" in err
        code, out, _ = run(
            capsys, "count", "--input", c4_file, "--kind", "walks", "--length", "0", "--from", "1",
            "--format", "json",
        )
        assert code == 0
        assert {e["value"] for e in json.loads(out)["engines"].values()} == {"1"}

    @pytest.mark.parametrize("engine", ["oracle", "symbolic", "fock", "all"])
    def test_guarded_closed_path_refused_before_any_engine(self, capsys, tmp_path, engine):
        # a closed walk always revisits its start, so the guarded variant is
        # undefined there; no engine may print a value for it
        path = _edge_file(tmp_path, "triangle", families.complete_graph(3))
        code, out, err = run(
            capsys, "count", "--input", path, "--kind", "paths", "--length", "3",
            "--from", "1", "--to", "1", "--variant", "guarded", "--engine", engine,
        )
        assert code == 1
        assert out == ""
        assert "open paths" in err

    def test_bad_input_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 1\n")
        code, _, err = run(
            capsys, "count", "--input", str(bad), "--kind", "walks",
            "--length", "1", "--from", "1",
        )
        assert code == 1
        assert "line 1" in err

    @pytest.mark.parametrize("text, label", [("1 2\n2 1000001\n", "label 1000001"), ("n 1000001\n1 2\n", "count 1000001")])
    def test_label_above_the_limit(self, capsys, tmp_path, text, label):
        path = tmp_path / "huge.txt"
        path.write_text(text)
        code, out, err = run(
            capsys, "count", "--input", str(path), "--kind", "walks",
            "--length", "2", "--from", "1", "--to", "2",
        )
        assert code == 1
        assert out == ""
        assert f"vertex {label} exceeds the limit of 1000000" in err

    def test_missing_file(self, capsys):
        code, _, _ = run(
            capsys, "count", "--input", "/nonexistent", "--kind", "walks",
            "--length", "1", "--from", "1",
        )
        assert code == 1

    @pytest.mark.parametrize("command", [
        ("count", "--kind", "walks", "--length", "1", "--from", "1"),
        ("example",),
    ])
    def test_directory_input(self, capsys, tmp_path, command):
        code, out, err = run(capsys, *command, "--input", str(tmp_path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert str(tmp_path) in err


def _each(value):
    """One value or error label from every engine of `--engine all`."""
    return dict.fromkeys(reports.ENGINES, value)


@dataclass(frozen=True)
class Contract:
    """One `count --format json` run: the graph, the query, the budget
    variables it runs under (the others unset), and what it must return and
    print. `engines` maps each engine to its value or error label; every
    pairwise agreement must hold. `notes` maps each note code, in order, to
    the end of its message. A row with `peak_mb` runs in a child process
    whose own peak RSS must stay below it."""

    graph: Callable[[], Graph]
    query: str
    engines: dict[str, str]
    notes: dict[str, str] = field(default_factory=dict)
    env: dict[str, str] = field(default_factory=dict)
    code: int = 0
    peak_mb: int | None = None


_K4, _K7, _K9 = (functools.partial(families.complete_graph, n) for n in (4, 7, 9))
_P3000 = functools.partial(families.path_graph, 3000)
_EDGELESS = functools.partial(Graph, 3, frozenset())
_SPARSE = functools.partial(Graph.from_edges, 10**6, [(1, 2), (2, 10**6)])
_WIDE_K20 = functools.partial(Graph.from_edges, 10**6, tuple(itertools.combinations(range(1, 21), 2)))

CONTRACTS = {
    "C5000-euler": Contract(
        functools.partial(families.cycle_graph, 5000), "--kind euler --from 1 --engine all", _each("2"),
        {DMATRIX_SQUARED: ""},
    ),
    "P3000-guarded-paths": Contract(
        _P3000, "--kind paths --variant guarded --length 2999 --from 1 --to 3000 --engine all", _each("1")
    ),
    "P3000-literal-paths": Contract(_P3000, "--kind paths --length 2999 --from 1 --to 3000 --engine all", _each("1")),
    "C3000-cycles": Contract(
        functools.partial(families.cycle_graph, 3000), "--kind cycles --length 3000 --from 1 --engine all", _each("2")
    ),
    "K7-trails-10": Contract(
        _K7, "--kind trails --length 10 --from 1 --to 2 --engine all", _each("316320"), {DMATRIX_SQUARED: ""}
    ),
    "K7-walks-9": Contract(_K7, "--kind walks --length 9 --from 1 --to 2 --engine all", _each("1439671")),
    "K7-open-euler": Contract(_K7, "--kind euler --from 1 --to 2 --engine all", _each("0")),
    "K9-hamiltonian": Contract(_K9, "--kind hamiltonian --from 1 --engine all", _each("40320")),  # 8!
    "K9-guarded-paths-7": Contract(  # P(7, 6)
        _K9, "--kind paths --variant guarded --length 7 --from 1 --to 2 --engine all", _each("5040")
    ),
    "K9-literal-paths-8": Contract(
        _K9, "--kind paths --length 8 --from 1 --to 2 --engine all", _each("35280"),
        {PROP2_LITERAL_OVERCOUNT: "the path count is 5040"},
    ),
    # past the other engines' reach, and no engine there to give a note
    "K7-trails-12-symbolic": Contract(
        _K7, "--kind trails --length 12 --from 1 --to 2 --engine symbolic", {"symbolic": "2502000"}
    ),
    "edgeless-euler-closed": Contract(_EDGELESS, "--kind euler --from 1 --to 1 --engine all", _each("1")),
    "edgeless-euler-open": Contract(_EDGELESS, "--kind euler --from 1 --to 2 --engine all", _each("0")),
    # every engine answers length 0 from its own length-0 state, unbudgeted
    "K4-walks-0-budget-1": Contract(
        _K4, "--kind walks --length 0 --from 1 --to 1 --engine all", _each("1"),
        env={limits.NODE_BUDGET_ENV: "1"},
    ),
    # a query on two edges costs a few pointers per label, not a dense table
    **{
        f"sparse-labels-{kind}": Contract(
            _SPARSE, f"--kind {kind} --length 2 --from 1 --to {to} --engine all", _each("1"), peak_mb=100
        )
        for kind, to in (("walks", 1), ("trails", 10**6), ("paths", 10**6))
    },
    # 19,900-bit masks: the term budget refuses the symbolic level before
    # memory runs out; Fock's aimed last level tries only the steps into 2
    "K200-trails-3": Contract(
        functools.partial(families.complete_graph, 200), "--kind trails --length 3 --from 1 --to 2 --engine all",
        {
            "oracle": "39006",
            "symbolic": "polynomial row product exceeded its budget of 10000000",
            "fock": "39006",
        },
        code=2, peak_mb=400,
    ),
    # 124,750-bit masks: symbolic and Fock build no step table and answer;
    # the oracle's table is refused before it is built
    "K500-trails-1": Contract(
        functools.partial(families.complete_graph, 500), "--kind trails --length 1 --from 1 --to 2 --engine all",
        {
            "oracle": "trail tally exceeded its budget of 100000000",
            "symbolic": "1",
            "fock": "1",
        },
        code=2, peak_mb=150,
    ),
    # Fock's memory is linear in |E|: a step's bit is made as it is taken
    **{
        f"K{n}-trails-1-fock": Contract(
            functools.partial(families.complete_graph, n), "--kind trails --length 1 --from 1 --to 2 --engine fock",
            {"fock": "1"}, peak_mb=100,
        )
        for n in (300, 500)
    },
    # 10**6-bit indices: 723 steps at 15,626 words each fit the node budget
    "K20-wide-paths-3": Contract(
        _WIDE_K20, "--kind paths --length 3 --from 1 --to 2 --engine fock", {"fock": "324"},
        {PROP2_LITERAL_OVERCOUNT: "the path count is 306"}, peak_mb=150,
    ),
    # 2 * 10**7 stack frames at 8 words each exceed the budget, though its 2 * 10**7 nodes do not
    "K2-walks-20000000": Contract(
        functools.partial(families.complete_graph, 2), "--kind walks --length 20000000 --from 1 --to 2 --engine oracle",
        {"oracle": "walk tally exceeded its budget of 100000000"},
        code=2, peak_mb=100,
    ),
}


def _limit_child():
    # past 1.5 GiB of address space a regression ends in a MemoryError
    # (exit 1) instead of exhausting the machine; a hang ends after 60 s of CPU
    resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29))
    resource.setrlimit(resource.RLIMIT_CPU, (60, 60))


def _run_child(tmp_path, argv):
    """The CLI run in a child process: exit code, stdout, stderr and the
    child's own peak RSS in MB, read with wait4 (RUSAGE_CHILDREN would give
    the largest child this process has ever waited for)."""
    env = dict(os.environ, PYTHONPATH=str(Path(trailcounts.__file__).parents[1]))
    out, err = tmp_path / "out", tmp_path / "err"
    with open(out, "w") as stdout, open(err, "w") as stderr:
        child = subprocess.Popen(
            [sys.executable, "-m", "trailcounts", *argv], stdout=stdout, stderr=stderr, env=env, preexec_fn=_limit_child
        )
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, out.read_text(), err.read_text(), usage.ru_maxrss / 1024


@pytest.mark.parametrize("row", CONTRACTS.values(), ids=CONTRACTS.keys())
def test_count_contract(capsys, monkeypatch, tmp_path, row):
    for name in (limits.TERM_BUDGET_ENV, limits.NODE_BUDGET_ENV):
        monkeypatch.delenv(name, raising=False)
    for name, value in row.env.items():
        monkeypatch.setenv(name, value)
    argv = ("count", "--input", _edge_file(tmp_path, "g", row.graph()), *row.query.split(), "--format", "json")
    if row.peak_mb is None:
        code, out, err = run(capsys, *argv)
    else:
        code, out, err, peak_mb = _run_child(tmp_path, argv)
    assert code == row.code, err
    assert row.peak_mb is None or peak_mb < row.peak_mb
    report = json.loads(out)
    assert {name: e.get("value", e.get("error")) for name, e in report["engines"].items()} == row.engines
    assert all(report["agreement"].values())
    assert [note["code"] for note in report["notes"]] == list(row.notes)
    assert all(note["message"].endswith(row.notes[note["code"]]) for note in report["notes"])


@dataclass(frozen=True)
class Refusal:
    """One query on the cycle 1-2-3-4 that no engine answers, and the message
    reports.check_query refuses it with. run_count_query raises it as a
    ValueError before any engine runs; every door in `doors` exits 1 with it
    and a usage line, and writes no output. `count` asks the query on each
    --engine choice; `bench` asks 1 to 1 on a closed kind and 1 to 2
    otherwise; `verify` sweeps with the engines."""

    kind: str
    length: int | None
    u: int
    v: int
    message: str
    doors: tuple[str, ...] = ("count",)
    engines: tuple[str, ...] = reports.ENGINES
    variant: PathVariant = PathVariant.LITERAL


REFUSALS = {
    "cycles-open": Refusal("cycles", 4, 1, 2, "kind 'cycles' is closed; u must equal v, got 1 and 2"),
    "hamiltonian-open": Refusal("hamiltonian", None, 1, 3, "kind 'hamiltonian' is closed; u must equal v, got 1 and 3"),
    "cycles-2": Refusal("cycles", 2, 1, 1, "kind 'cycles' needs length >= 3, got 2", ("count", "bench")),
    **{
        f"{kind}-negative": Refusal(
            kind, -1, 1, 1 if kind == "cycles" else 2, f"kind {kind!r} needs length >= {least}, got -1", ("count", "bench")
        )
        for kind, least in (("walks", 0), ("trails", 0), ("paths", 0), ("cycles", 3))
    },
    "guarded-closed": Refusal(
        "paths", 3, 2, 2, "START_GUARDED counts open paths; u must differ from v", variant=PathVariant.START_GUARDED
    ),
    "engine-unknown": Refusal(
        "trails", 3, 1, 2, "unknown engine 'quantum'; expected some of ('oracle', 'symbolic', 'fock')",
        ("bench", "verify"), engines=("quantum",),
    ),
    "engine-none": Refusal("trails", 3, 1, 2, "at least one engine is required", ("bench", "verify"), engines=()),
    "vertex-0": Refusal("walks", 2, 0, 1, "vertex 0 out of range 1..4"),
    "vertex-5": Refusal("trails", 2, 1, 5, "vertex 5 out of range 1..4"),
}


@pytest.mark.parametrize("row", REFUSALS.values(), ids=REFUSALS.keys())
def test_every_door_refuses_alike(capsys, monkeypatch, tmp_path, row):
    monkeypatch.setattr(reports, "_timed", lambda fn: pytest.fail("an engine ran"))
    monkeypatch.setattr(verify, "build_corpus", lambda config: pytest.fail("swept a graph"))
    g = families.cycle_graph(4)
    with pytest.raises(ValueError) as refused:
        run_count_query(g, "c4", row.kind, row.length, row.u, row.v, row.engines, row.variant)
    assert str(refused.value) == row.message
    length = () if row.length is None else ("--length", str(row.length))
    argvs = {
        "count": [
            ["count", "--input", _edge_file(tmp_path, "c4", g), "--kind", row.kind, *length, "--from", str(row.u),
             "--to", str(row.v), *(("--variant", row.variant.value) if row.kind == "paths" else ()), "--engine", engine]
            for engine in ("all",) + reports.ENGINES
        ],
        "bench": [
            ["bench", "--family", "cycle", "--min-n", "4", "--max-n", "4", "--kind", row.kind, *length,
             "--engines", ",".join(row.engines)]
        ],
        "verify": [["verify", "--engines", ",".join(row.engines)]],
    }
    for argv in itertools.chain.from_iterable(argvs[door] for door in row.doors):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith(f"error: {row.message}\nusage:"), argv


@pytest.mark.parametrize("kind", ["trails", "paths"])
def test_length_zero_counts_alike(capsys, tmp_path, kind):
    # the empty trail or path: 1 from a vertex to itself, else 0
    g = families.cycle_graph(4)
    for v, value in ((1, "1"), (2, "0")):
        report = run_count_query(g, "c4", kind, 0, 1, v)
        assert {name: str(ev.value) for name, ev in report.engines.items()} == _each(value)
        code, out, _ = run(
            capsys, "count", "--input", _edge_file(tmp_path, "c4", g), "--kind", kind, "--length", "0",
            "--from", "1", "--to", str(v), "--format", "json",
        )
        assert code == 0
        printed = json.loads(out)
        assert {name: e["value"] for name, e in printed["engines"].items()} == _each(value)
        assert all(printed["agreement"].values())


class TestReportContract:
    def test_json_round_trip_bytes(self, capsys, c4_file):
        _, out, _ = run(
            capsys, "count", "--input", c4_file, "--kind", "trails",
            "--length", "3", "--from", "1", "--to", "2", "--format", "json",
        )
        assert canonical_json(json.loads(out)) + "\n" == out

    def test_agreement_never_true_on_differing_values(self, c4):
        report = run_count_query(c4, "c4", "paths", 3, 1, 2, variant=PathVariant.LITERAL)
        ev = report.engines["fock"]
        ev.value = ev.value + 1  # simulate a divergent engine
        assert not all(report.agreement.values())

    @pytest.mark.parametrize("kind, given, counted", [("euler", 3, 10), ("hamiltonian", 1, 5)])
    def test_report_gives_the_length_it_counted_at(self, kind, given, counted):
        # euler counts at |E| and hamiltonian at n, whatever length it is given
        report = run_count_query(families.complete_graph(5), "k5", kind, given, 1, 1)
        assert report.length == counted
        assert report.to_json_obj()["length"] == counted
        assert {ev.value for ev in report.engines.values()} == {528 if kind == "euler" else 24}

    def test_dmatrix_note_on_bowtie_euler(self):
        from trailcounts.families import bowtie_graph

        report = run_count_query(bowtie_graph(), "bowtie", "euler", 6, 1, 1)
        assert any(n["code"] == DMATRIX_SQUARED for n in report.notes)

    def _notes(self, capsys, path, *query, engine="all"):
        code, out, _ = run(capsys, "count", "--input", path, *query, "--engine", engine, "--format", "json")
        assert code == 0
        return json.loads(out)["notes"]

    def test_prop2_note_from_each_engine(self, capsys, c4_file):
        # every engine's own pass gives both numbers of the overcount note
        query = ("--kind", "paths", "--length", "3", "--from", "1", "--to", "2")
        default = self._notes(capsys, c4_file, *query)
        assert [n["code"] for n in default] == [PROP2_LITERAL_OVERCOUNT]
        for engine in reports.ENGINES:
            assert self._notes(capsys, c4_file, *query, engine=engine) == default, engine

    def test_dmatrix_note_from_fock_only(self, capsys, tmp_path):
        path = _edge_file(tmp_path, "bowtie", families.bowtie_graph())
        query = ("--kind", "euler", "--from", "1")
        default = self._notes(capsys, path, *query)
        assert [n["code"] for n in default] == [DMATRIX_SQUARED]
        assert self._notes(capsys, path, *query, engine="fock") == default
        assert self._notes(capsys, path, *query, engine="oracle") == []
        assert self._notes(capsys, path, *query, engine="symbolic") == []

    def test_symbolic_query_runs_no_other_engine(self, monkeypatch):
        # the notes are read from the engines that ran: a symbolic-only
        # trails query runs no oracle search and no Fock evolution
        from trailcounts import fock, oracle

        tables = [oracle._walk_table, oracle._trail_tables, oracle._dni_tables]
        before = [t.cache_info() for t in tables]
        runs = []
        for owner, name in ((fock, "_evolve"), (oracle, "_search"), (oracle, "_walk_tally")):
            kernel = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *a, _k=kernel, _n=name, **kw: runs.append(_n) or _k(*a, **kw))
        report = run_count_query(families.complete_graph(7), "K7", "trails", 8, 1, 2, engines=("symbolic",))
        assert report.engines["symbolic"].value == 29040
        assert report.notes == []
        assert [t.cache_info() for t in tables] == before
        assert runs == []
        # the spies see the oracle's search and the Fock evolution when they run
        run_count_query(families.complete_graph(5), "K5", "trails", 4, 1, 2, engines=("oracle", "fock"))
        assert sorted(set(runs)) == ["_evolve", "_search"]

    @pytest.mark.parametrize(
        "kind, length, v, engines",
        [
            ("trails", 3, 2, ("numpy",)),
            ("trails", 3, 2, ("length",)),
            ("cycles", 4, 3, reports.ENGINES),
            ("hamiltonian", 4, 3, reports.ENGINES),
            ("cycles", 2, 1, ("oracle", "fock")),
        ],
        ids=["engine-numpy", "engine-length", "cycles-open", "hamiltonian-open", "cycles-too-short"],
    )
    def test_inconsistent_query_refused_before_any_engine(self, c4, monkeypatch, kind, length, v, engines):
        # an unknown engine, or a closed kind asked from 1 to another vertex
        # or below its least length, has no answer every engine would give
        monkeypatch.setattr(reports, "_timed", lambda fn: pytest.fail("an engine ran"))
        with pytest.raises(ValueError):
            run_count_query(c4, "c4", kind, length, 1, v, engines)

    def test_engine_subset(self, c4):
        report = run_count_query(c4, "c4", "trails", 3, 1, 2, engines=("oracle",))
        assert set(report.engines) == {"oracle"}
        assert report.agreement == {}

    def test_matrix_rows_past_the_digit_limit(self):
        big = 7**6000  # 5,071 digits
        assert reports.matrix_to_decimal_rows([[big, 0]]) == [[str(decimal.Decimal(big)), "0"]]


class TestExample:
    def test_reference_values_reproduce(self, capsys):
        code, out, _ = run(capsys, "example")
        assert code == 0
        assert "8/8 reference values reproduced" in out

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "example", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["reproduced"] == payload["total"] == 8

    def test_corrupted_input_detected(self, capsys, tmp_path):
        path = tmp_path / "broken.txt"
        path.write_text("1 2\n1 3\n2 4\n2 3\n")
        code, out, _ = run(capsys, "example", "--input", str(path))
        assert code == 3
        assert "FAIL" in out


class TestVerify:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--n-max", "3", "--l-max", "3")
        assert code == 0
        assert "PASS overall" in out

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--n-max", "3", "--l-max", "3", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["graphs"] > 0

    def test_empty_corpus_vacuous_pass(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--source", "random", "--count", "0", "--skip-named",
            "--n-max", "4",
        )
        assert code == 0
        assert "WARNING" in out

    def test_engine_subset_runs(self, capsys):
        # without the oracle the symbolic tables are still read, and the
        # spot checks are skipped
        for n_max, l_max, engines in (
            ("3", "2", "oracle,symbolic"), ("4", "4", "oracle,fock"), ("4", "4", "symbolic"), ("4", "4", "symbolic,fock"),
        ):
            code, _, _ = run(capsys, "verify", "--n-max", n_max, "--l-max", l_max, "--engines", engines)
            assert code == 0, engines

    def test_term_budget_refuses_the_row_levels(self, capsys, monkeypatch):
        monkeypatch.setenv("TRAILCOUNTS_TERM_BUDGET", "1")
        code, out, err = run(capsys, "verify", "--n-max", "3", "--l-max", "3")
        assert code == 2
        assert out == ""
        assert err == "error: polynomial row product exceeded its budget of 1\n"

    def test_row_power_invariant_tests_the_row_power(self, monkeypatch):
        real = nilpotent._row_power_entry

        def corrupted(*args):
            return real(*args) + nilpotent.Polynomial.generator(0)

        monkeypatch.setattr(nilpotent, "_row_power_entry", corrupted)
        config = verify.SweepConfig(
            n_max=3, l_max=3, engines=("oracle", "symbolic"), include_named=False,
        )
        summary = verify.run_sweep(config)
        invariant = summary.invariant("row-power-matches-matrix-power")
        assert invariant.cases > 0
        assert invariant.failure_count == invariant.cases

    def test_row_power_invariant_tests_the_matrix_product(self, monkeypatch):
        # the independent PolyMatrix.mul product runs on every spot draw,
        # length 1 included; the corruption adds x0 to every entry, zeros too
        real, zero, x0 = nilpotent.PolyMatrix.mul, nilpotent.Polynomial.zero(), nilpotent.Polynomial.generator(0)

        def corrupted(self, other):
            rows = real(self, other).rows
            return nilpotent.PolyMatrix([{j: row.get(j, zero) + x0 for j in range(len(rows))} for row in rows])

        monkeypatch.setattr(nilpotent.PolyMatrix, "mul", corrupted)
        config = verify.SweepConfig(
            n_max=3, l_max=3, engines=("oracle", "symbolic"), include_named=False,
        )
        invariant = verify.run_sweep(config).invariant("row-power-matches-matrix-power")
        assert invariant.cases > 0
        assert invariant.failure_count == invariant.cases

    @pytest.mark.parametrize("option, name", [("--l-max", "l_max"), ("--n-max", "n_max")])
    def test_nonpositive_bounds_are_usage_errors(self, capsys, option, name):
        for source in ("all-connected-up-to-n", "random"):
            code, out, err = run(capsys, "verify", "--source", source, option, "0")
            assert code == 1
            assert out == ""
            assert f"{name} must be >= 1, got 0" in err
            assert "usage:" in err

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--count", "-2", "random_count must be >= 0, got -2"),
            ("--p", "1.5", "edge_probability must be in [0, 1], got 1.5"),
            ("--p", "-0.1", "edge_probability must be in [0, 1], got -0.1"),
        ],
    )
    def test_bad_random_parameters_are_usage_errors(self, capsys, monkeypatch, option, value, message):
        monkeypatch.setattr(verify, "build_corpus", lambda config: pytest.fail("swept a graph"))
        for source in ("all-connected-up-to-n", "random"):
            code, out, err = run(capsys, "verify", "--source", source, option, value)
            assert code == 1
            assert out == ""
            assert message in err
            assert "usage:" in err

    def test_unknown_engine_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--engines", "quantum")
        assert code == 1
        assert "unknown engine" in err


class TestBench:
    def test_cycle_family_csv(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--family", "cycle", "--min-n", "3", "--max-n", "5",
            "--kind", "trails", "--length", "3", "--engines", "oracle,symbolic",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][0] == "family"
        assert len(rows) == 1 + 3 * 2

    def test_complete_family_fock_capacity_dnf(self, capsys, monkeypatch):
        # trails from 1 to 2 at l = 3 cost (n-1) + (n-1)**2 steps, then
        # (n-2) + (n-2) (n-3) into 2 on the aimed last level
        monkeypatch.setenv("TRAILCOUNTS_NODE_BUDGET", "80")
        code, out, _ = run(
            capsys, "bench", "--family", "complete", "--min-n", "7", "--max-n", "8",
            "--kind", "trails", "--length", "3", "--engines", "fock",
        )
        assert code == 0
        rows = {r[1]: r[5] for r in list(csv.reader(io.StringIO(out)))[1:]}
        assert rows["7"] == "20"  # 6 + 36 + 25 = 67
        assert rows["8"] == "DNF"  # 7 + 49 + 36 = 92 refused

    def test_complete_family_hamiltonian_from_k2(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--family", "complete", "--min-n", "2", "--max-n", "3",
            "--kind", "hamiltonian", "--engines", "oracle,symbolic,fock",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert {(r[1], r[5]) for r in rows} == {("2", "1"), ("3", "2")}

    def test_value_past_the_digit_limit(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--family", "complete", "--min-n", "40", "--max-n", "40",
            "--kind", "walks", "--length", "3000", "--engines", "symbolic",
        )
        assert code == 0
        assert list(csv.reader(io.StringIO(out)))[1][5] == str(decimal.Decimal((39**3000 - 1) // 40))

    @pytest.mark.parametrize(
        "kind, length, message",
        [("cycles", "2", "kind 'cycles' needs length >= 3, got 2"), ("paths", "-1", "kind 'paths' needs length >= 0, got -1")],
        ids=["cycles-2", "paths--1"],
    )
    def test_bad_length_refused_before_output(self, capsys, kind, length, message):
        # the same length rules as count, checked before the header is written
        code, out, err = run(
            capsys, "bench", "--family", "cycle", "--kind", kind, "--length", length,
            "--engines", "oracle,symbolic,fock",
        )
        assert code == 1
        assert out == ""
        assert f"error: {message}\n" in err
        assert "usage:" in err

    def test_one_graph_per_row(self, capsys):
        # each graph is built when its row runs; K120 alone takes about
        # 2.3 MiB, and all 118 graphs together about 80
        tracemalloc.start()
        try:
            code, out, _ = run(
                capsys, "bench", "--family", "complete", "--min-n", "3", "--max-n", "120",
                "--kind", "walks", "--length", "1", "--engines", "symbolic",
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert list(csv.reader(io.StringIO(out)))[-1] == ["complete", "120", "walks", "1", "symbolic", "1", mock.ANY]
        assert peak < 8 << 20

    def test_bad_family_size_refused_before_output(self, capsys):
        code, out, err = run(
            capsys, "bench", "--family", "cycle", "--min-n", "2", "--max-n", "4",
            "--engines", "oracle,symbolic",
        )
        assert code == 1
        assert out == ""
        assert "a cycle needs at least 3 vertices, got 2" in err
        assert "usage:" in err

    def test_empty_size_range_refused_before_output(self, capsys):
        code, out, err = run(
            capsys, "bench", "--family", "cycle", "--min-n", "6", "--max-n", "4",
            "--engines", "oracle,symbolic",
        )
        assert code == 1
        assert out == ""
        assert "--min-n 6 is greater than --max-n 4" in err
        assert "usage:" in err

    def test_petersen_hamiltonian(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--family", "petersen", "--kind", "hamiltonian",
            "--engines", "oracle,fock",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert {r[5] for r in rows} == {"0"}


# The CLI contract, on random edge lists and argv: every run returns 0 to 3
# without raising, and a JSON output parses on exit 0. Labels and lengths
# stay small and both budgets are 10**4, so no run does much work.
_INPUT = "<input>"
_label = st.integers(1, 12)
_edges = st.lists(st.tuples(_label, _label).filter(lambda e: e[0] != e[1]), min_size=1, max_size=12)
# one draw in four adds a line that is malformed or names a vertex out of range
_junk = st.tuples(
    st.integers(1, 4), st.sampled_from(["0 1", "3 3", "1 2 3", "a b", "n", "n 0", "n 2", "-1 2", "# comment"])
).map(lambda drawn: [drawn[1]] if drawn[0] == 4 else [])


def _edge_text(header, edges, junk):
    return "\n".join([*header, *(f"{u} {v}" for u, v in edges), *junk])


_edge_texts = st.builds(_edge_text, st.sampled_from([[], ["n 12"]]), _edges, _junk)


def _option(name, values, odds=2):
    """The option with a drawn value, left out once in `odds` draws."""
    return st.tuples(st.integers(1, odds), values).map(lambda drawn: (name, str(drawn[1])) if drawn[0] < odds else ())


def _command(*parts):
    return st.tuples(*parts).map(lambda chosen: list(itertools.chain.from_iterable(chosen)))


_count = _command(
    st.just(("count", "--input", _INPUT)),
    st.one_of(
        st.sampled_from(reports.KINDS).map(lambda kind: ("--kind", kind)),
        st.sampled_from([v.value for v in PathVariant]).map(lambda variant: ("--kind", "paths", "--variant", variant)),
    ),
    _option("--length", st.integers(-1, 12), odds=5),
    st.integers(1, 12).map(lambda u: ("--from", str(u))),
    _option("--to", st.integers(0, 13)),
    _option("--engine", st.sampled_from(reports.ENGINES + ("all",))),
    _option("--format", st.sampled_from(["json", "csv", "text"])),
)
_example = _command(st.just(("example", "--input", _INPUT)), _option("--format", st.sampled_from(["json", "text"])))
_bench = _command(
    st.just(("bench",)),
    _option("--family", st.sampled_from(["cycle", "complete", "petersen"])),
    _option("--min-n", st.integers(0, 6)),
    _option("--max-n", st.integers(0, 6)),
    _option("--kind", st.sampled_from(reports.KINDS)),
    _option("--length", st.integers(-1, 12)),
    _option("--engines", st.sampled_from(["oracle", "symbolic,fock", "oracle,symbolic,fock", "bogus"])),
)
# three counts for each example or bench run
_argv = st.sampled_from([_count, _count, _count, _bench, _example]).flatmap(lambda command: command)


def _count_argv(*query):
    return ["count", "--input", _INPUT, *query, "--format", "json"]


@settings(max_examples=150, deadline=None)
@given(_edge_texts, _argv)
@example("1 2\n2 1000000000000\n", _count_argv("--kind", "paths", "--length", "2", "--from", "1", "--to", "2"))
@example("1 2\n", _count_argv("--kind", "paths", "--length", "1000000000000", "--from", "1", "--to", "2", "--engine", "oracle"))
@example("1 2\n2 3\n1 3\n", _count_argv("--kind", "paths", "--length", "1000000000", "--from", "1", "--to", "2", "--engine", "fock"))
def test_cli_contract(text, argv):
    budgets = {"TRAILCOUNTS_NODE_BUDGET": "10000", "TRAILCOUNTS_TERM_BUDGET": "10000"}
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, budgets):
        path = os.path.join(tmp, "graph.txt")
        with open(path, "w") as f:
            f.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([path if arg == _INPUT else arg for arg in argv])
    assert code in (0, 1, 2, 3)
    if code == 0 and "--format" in argv and argv[argv.index("--format") + 1] == "json":
        json.loads(out.getvalue())
