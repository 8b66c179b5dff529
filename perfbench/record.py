"""Write perfbench/expected.json from the program as it is now.

Records, for every query, its discrepancy note codes and (where no closed
form exists) its value, and for every recorded sweep seed the per-invariant
case counts, flag totals and graph count. A query with a closed form must
agree with it on every engine, or nothing is written. Run it only when the
expected outputs are meant to change, and say why in the change:

    python3 perfbench/record.py
"""

from __future__ import annotations

import json
import sys

import workload as w


def main() -> int:
    values, notes = {}, {}
    for name in w.WORKLOADS:
        for q, g, u, v, length in w.setup_queries(name, seed=0):
            report = w.reports.run_count_query(
                g, q.key, q.kind, length, u, v, q.engines, w.PathVariant(q.variant)
            )
            got = {e.value for e in report.engines.values()}
            if len(got) != 1 or not report.all_agree():
                sys.exit(f"{q.key}: engines disagree or fail: {report.to_json()}")
            value = got.pop()
            form = w.closed_form(q, length)
            if form is None:
                values[q.key] = value
            elif form != value:
                sys.exit(f"{q.key}: engines give {value}, the closed form {form}")
            notes[q.key] = [note["code"] for note in report.notes]
            print(q.key, value, notes[q.key], flush=True)
    sweep = {}
    for slot in range(w.SWEEP_SEED_SLOTS):
        seed = w.SWEEP_SEED_BASE + slot
        summary = w.verify.run_sweep(w.verify.SweepConfig(seed=seed))
        if not summary.passed:
            sys.exit(f"sweep seed {seed} fails: {summary.to_text()}")
        sweep[str(seed)] = {
            "graphs": summary.graph_count,
            "cases": {inv.name: inv.cases for inv in summary.invariants},
            "flags": dict(sorted(summary.flag_totals.items())),
        }
        print("sweep", seed, sum(sweep[str(seed)]["cases"].values()), flush=True)
    expected = {"values": values, "notes": notes, "sweep": sweep}
    w.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
