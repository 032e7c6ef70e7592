"""bo-halfline benchmark: end-to-end time, set-up time, memory and failures of
the shipped suites, or per-layer self times from a traced run.

Run from the root of a checkout (``bo_halfline`` is imported from ``src``):

    python3 benchmark/run.py --workload solve-production --seed 1 --seconds 24 --trace 0

Workloads are described in ``workloads.py``.  One run

1. runs the workload's units one at a time, each in a fresh worker process
   (``worker.py``) with the BLAS thread count pinned to ``min(2, nproc)``,
   until ``--seconds`` of unit time have passed; the worker times the unit
   and gates it against ``snapshot.json`` (``gate.py``), and the units'
   outputs must be byte-identical;
2. times ``SETUP_SAMPLES`` fresh interpreters that import ``bo_halfline`` and
   resolve the command-line config, as every CLI call does (untraced runs;
   after the worker, so bytecode is already written);
3. prints a detail line (sample counts, quartiles, problem sizes, environment,
   gate reasons) and, last, one JSON object::

     {"correct": ..., "attempted": <units>, "failed": <units>, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``END_TO_END``).  With
``--trace 1`` one unit runs under the span recorder and one without it, and
the metrics are the per-layer ones (``worker.PER_LAYER``) of the traced unit;
``trace.overhead_s`` is the traced minus the untraced wall time.  Outputs go to
``.bench_out/`` in the checkout.  The run exits non-zero without a result when
the checkout has no ``src/bo_halfline`` or the worker fails.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from gate import check_identical
from procenv import HERE, ROOT, worker_env
from workloads import WORKLOADS

SETUP_SAMPLES = 3
SETUP_RESERVE_S = 15.0   # time kept for the set-up samples after the worker
TIME_LIMIT_S = 170.0       # a run must end within 180 s; keep a margin
SETUP_CODE = ("from bo_halfline.cli import build_parser, load_config; "
              "load_config(build_parser().parse_args(['solve']))")

#: End-to-end metric name -> unit.
END_TO_END = {
    "wall_s": "s",          # median wall time of one unit
    "setup_s": "s",         # median fresh-interpreter import + config resolution
    "peak_rss_mb": "MB",    # peak resident memory of the worker
    "ok_ratio": "ratio",    # units passing the gate / units attempted
}


def _timed_call(cmd: list[str], env: dict[str, str], timeout: float) -> float:
    """Wall time of one child process.  The wait blocks in ``waitpid``; a
    timer kills the child at ``timeout`` (``subprocess.run(timeout=...)``
    would poll, which quantises the time to 50 ms)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        code = proc.wait()
    finally:
        killer.cancel()
    wall = time.perf_counter() - t0
    if code != 0:
        raise subprocess.CalledProcessError(code, cmd)
    return wall


def measure_setup(env: dict[str, str], samples: int) -> list[float]:
    """Wall times of ``samples`` fresh interpreters doing what every CLI call
    does before its suite runs."""
    cmd = [sys.executable, "-c", SETUP_CODE]
    return [_timed_call(cmd, env, SETUP_RESERVE_S / samples) for _ in range(samples)]


def run_worker(args, trace: int, out: Path, env: dict[str, str],
               timeout: float) -> dict:
    """One unit in a fresh worker process; its JSON record."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(trace), "--out", str(out)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    record = json.loads(lines[-1])
    record["process_s"] = time.perf_counter() - t0
    return record


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "samples": values}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()
    deadline = started + TIME_LIMIT_S - SETUP_RESERVE_S

    if not (ROOT / "src" / "bo_halfline" / "__init__.py").is_file():
        print(f"no bo_halfline sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = worker_env()

    def fits(records: list[dict]) -> bool:
        longest = max(r["process_s"] for r in records)
        return time.perf_counter() + 1.25 * longest <= deadline

    units: list[dict] = []

    def unit(trace: int) -> None:
        units.append(run_worker(args, trace, out / f"unit{len(units)}", env,
                                deadline - time.perf_counter()))

    try:
        if args.trace:
            # the traced unit, then an untraced one for the tracing overhead
            unit(1)
            if fits(units):
                unit(0)
        else:
            unit(0)
            while sum(u["wall_s"] for u in units) < args.seconds and fits(units):
                unit(0)
        setup = [] if args.trace else measure_setup(env, SETUP_SAMPLES)
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 2

    for i, reasons in check_identical([u["digests"] for u in units]).items():
        units[i]["reasons"] += reasons
    attempted = len(units)
    failed = sum(1 for u in units if u["reasons"])
    walls = [u["wall_s"] for u in units if not u["traced"]]
    if args.trace:
        metrics = units[0]["metrics"]
        if len(units) == 2:
            metrics["trace.overhead_s"]["value"] = units[0]["wall_s"] - units[1]["wall_s"]
    else:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": max(u["peak_rss_mb"] for u in units),
            "ok_ratio": (attempted - failed) / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds,
        "wall_s": quartiles(walls) if walls else None,
        "setup_s": quartiles(setup) if setup else None,
        "fail_ratio": failed / attempted,
        "units": [{k: u[k] for k in ("wall_s", "process_s", "traced", "reasons",
                                     "peak_rss_mb")} for u in units],
        "sizes": units[0]["sizes"],
        "environment": units[0]["environment"],
        "trace": units[0].get("trace"),
        "run_s": time.perf_counter() - started,
    }
    (out / "result.json").write_text(json.dumps(detail, indent=1))
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
