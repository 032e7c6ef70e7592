"""Benchmark worker: runs one unit of one workload in this fresh interpreter.

Started by ``run.py`` with the BLAS thread count pinned in its environment and
the checkout's ``src`` on ``PYTHONPATH``, so every unit starts as a user's
command-line call does.  The unit is timed, then gated (``gate.py``) outside
its timed region.  The last line of standard output is one JSON object: wall
time, gate reasons, output digests, peak resident memory, problem sizes,
environment, and with ``--trace 1`` the per-layer metrics of the unit, which
then runs under the span recorder (``tracer.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

from gate import check_unit
from procenv import HERE, ROOT
from tracer import Instrumentation, Tracer, span_cost
from workloads import WORKLOADS, UnitResult, problem_sizes

#: Spans reported as ``<name>_s`` (self time) and ``<name>_n`` (calls).
SPANS = (
    "solver.picard_solve", "solver.propagator_build", "solver.transform_forcing",
    "solver.accumulate", "solver.cross_validate",
    "green.lattice", "green.free", "green.correction", "green.fresnel_weights",
    "halfline.laplace_matrix",
    "symbols.direction", "symbols.direction_cache", "symbols.gamma_tilde",
    "boundary.kernel_build", "boundary.apply_convolution", "boundary.kernel",
    "mol.build", "mol.run", "mol.certificate",
    "report.render", "report.write",
)

#: Per-layer metric name -> (unit, better).
PER_LAYER = {}
for _name in SPANS:
    PER_LAYER[f"{_name}_s"] = ("s", "lower")
    PER_LAYER[f"{_name}_n"] = ("count", "lower")
PER_LAYER.update({
    "solver.picard_iters": ("count", "lower"),
    "solver.propagator_build_peak_mb": ("MB", "lower"),
    "green.fresnel_weights_repeat_share": ("ratio", "higher"),
    "halfline.laplace_matrix_repeat_share": ("ratio", "higher"),
    "symbols.direction_hit_share": ("ratio", "higher"),
    "mol.steps": ("count", "lower"),
    "report.write_bytes": ("bytes", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
    "trace.spans_n": ("count", "lower"),
})


def layer_metrics(tracer: Tracer, traced_wall: float,
                  overhead: float) -> dict[str, float]:
    """Every ``PER_LAYER`` metric from one traced unit (root span "unit")."""
    selfs = tracer.self_times()
    counts = tracer.call_counts()
    c = tracer.counters
    out = {}
    for name in SPANS:
        out[f"{name}_s"] = selfs.get(name, 0.0)
        out[f"{name}_n"] = counts.get(name, 0)
    out.update({
        "solver.picard_iters": int(c.get("solver.picard_iters", 0)),
        "solver.propagator_build_peak_mb": c.get("solver.propagator_build_peak_mb", 0.0),
        "green.fresnel_weights_repeat_share": tracer.repeat_share("green.fresnel_weights"),
        "halfline.laplace_matrix_repeat_share": tracer.repeat_share("halfline.laplace_matrix"),
        "symbols.direction_hit_share": tracer.repeat_share("symbols.direction"),
        "mol.steps": int(c.get("mol.steps", 0)),
        "report.write_bytes": int(c.get("report.write_bytes", 0)),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": overhead,
        "trace.unattributed_s": selfs.get("unit", 0.0),
        "trace.spans_n": len(tracer.spans),
    })
    return out


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


def run_unit(fn, seed: int, out: Path) -> tuple[float, UnitResult]:
    out.mkdir(parents=True)
    t0 = time.perf_counter()
    try:
        result = fn(seed, out)
    except Exception:
        result = UnitResult(error=traceback.format_exc(limit=4))
    return time.perf_counter() - t0, result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", type=Path, required=True,
                    help="directory for the unit's outputs (removed after gating)")
    args = ap.parse_args(argv)

    import bo_halfline
    src = (ROOT / "src").resolve()
    if src not in Path(bo_halfline.__file__).resolve().parents:
        print(f"bo_halfline imported from {bo_halfline.__file__}, not {src}",
              file=sys.stderr)
        return 2

    snapshot = json.loads((HERE / "snapshot.json").read_text())[args.workload]
    fn = WORKLOADS[args.workload]
    record: dict = {}
    if args.trace:
        tracer = Tracer()
        instrumentation = Instrumentation(tracer)
        with instrumentation:
            wall, result = run_unit(tracer.wrap(fn, "unit"), args.seed, args.out)
        instrumentation.measure_peaks()
        per_span = span_cost()
        estimate = per_span * len(tracer.spans)
        values = layer_metrics(tracer, wall, estimate)
        record["metrics"] = {name: {"value": values[name], "unit": unit}
                             for name, (unit, _) in PER_LAYER.items()}
        record["trace"] = {"span_cost_s": per_span, "overhead_estimate_s": estimate,
                           "missing_layers": instrumentation.missing}
        (args.out.parent / "trace.json").write_text(json.dumps(tracer.to_records()))
    else:
        wall, result = run_unit(fn, args.seed, args.out)
    record.update({
        "wall_s": wall,
        "traced": bool(args.trace),
        "reasons": check_unit(result, snapshot),
        "digests": {} if result.error else result.digests(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sizes": problem_sizes(),
        "environment": environment(args.seed),
    })
    shutil.rmtree(args.out, ignore_errors=True)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
