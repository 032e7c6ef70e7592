"""Record ``snapshot.json``, the reference outputs the correctness gate
compares every unit against.

    python3 benchmark/snapshot.py

Runs one unit of every workload at seeds 0 and 1, with the same BLAS thread
pinning as the benchmark.  Report rows whose numbers differ between the two
seeds are marked ``seeded``: the gate checks their presence and ``passed``
flag, not their values.  Re-record only when a change to the program moves
an output on purpose, and say so with the change.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

from procenv import HERE, ROOT, worker_env

os.environ.update(worker_env())
sys.path.insert(0, str(ROOT / "src"))

from gate import NUMERIC_FIELDS, read_report, solution_stats  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = (0, 1)


def workload_snapshot(fn, tmp: Path) -> dict:
    results = [fn(seed, tmp / f"seed{seed}") for seed in SEEDS]
    for r in results:
        if r.error:
            raise RuntimeError(r.error)
    entry: dict = {}
    reports = {}
    for name in sorted(results[0].files):
        if name == "solution":
            stats = [solution_stats(r.files[name]) for r in results]
            if stats[0] != stats[1]:
                raise RuntimeError("solution.csv depends on the seed")
            entry["solution"] = stats[0]
            continue
        rows = [read_report(r.files[name]) for r in results]
        if rows[0].keys() != rows[1].keys():
            raise RuntimeError(f"{name}: the row set depends on the seed")
        for key, rec in rows[0].items():
            other = rows[1][key]
            rec["seeded"] = any(rec[f] != other[f] for f in NUMERIC_FIELDS)
            if rec["passed"] != other["passed"]:
                raise RuntimeError(f"{name}: {key} passes for one seed only")
            if rec["seeded"]:
                for f in NUMERIC_FIELDS:
                    rec[f] = None
        reports[name] = rows[0]
    if reports:
        entry["reports"] = reports
    if results[0].mol:
        entry["mol"] = {n: {k: v for k, v in run.items() if k != "values_sha256"}
                        for n, run in results[0].mol.items()}
    return entry


def main() -> int:
    snapshot = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for name, fn in WORKLOADS.items():
            print(f"recording {name}", file=sys.stderr)
            snapshot[name] = workload_snapshot(fn, Path(tmp) / name)
    path = HERE / "snapshot.json"
    path.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
