"""The benchmark's workloads: what one unit of each runs, exactly as a user
would run it.

* ``solve-production`` -- the ``solve`` suite at the production defaults
  (gauss_bump, data_scale 0.1): Picard solve, growth fits, cross-validation
  against one method-of-lines run at n=512, CSV and ``solution.csv`` output.
  The headline user task; the Duhamel ``accumulate`` sweep dominates it.
* ``linear-suites`` -- the ``verify-symbols``, ``selfcheck`` and ``decay``
  suites.  They use the linear operators without the Duhamel propagator, and
  the green layer on large whole-line grids instead of the propagator's small
  lattice, so a propagator change predicts no change here.  Not listed in
  ``BENCHMARK.json``: on a shared 2-vCPU host its wall time drifted by an
  interquartile 12-20% of the median across ten runs, too unsteady to gate
  on; it stays runnable for its traced per-layer split.
* ``mol-ladder`` -- the method-of-lines reference alone at n = 512, 1024 and
  2048 up to t = 1, where dense n^2 matvecs and the n^3 stability certificate
  are all of the work.

The workload seed becomes ``RunConfig.seed``; it drives the sampled points of
``verify-symbols`` and ``selfcheck`` and only the config stamp elsewhere.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

MOL_LADDER = (512, 1024, 2048)
LINEAR_SUITES = ("verify-symbols", "selfcheck", "decay")


@dataclass
class UnitResult:
    """What one unit produced, for the correctness gate."""

    exit_codes: dict[str, int] = field(default_factory=dict)
    files: dict[str, Path] = field(default_factory=dict)   # artifact -> path
    mol: dict[str, dict] = field(default_factory=dict)     # n -> run summary
    error: str | None = None

    def digests(self) -> dict[str, str]:
        out = {name: hashlib.sha256(path.read_bytes()).hexdigest()
               for name, path in sorted(self.files.items())}
        for n, run in sorted(self.mol.items()):
            out[f"mol[{n}]"] = run["values_sha256"]
        return out


def mol_summary(res) -> dict:
    """The figures of one ``MolResult`` that the gate checks."""
    dx = float(res.x[1] - res.x[0])
    return {
        "n": int(res.x.size - 1),
        "finite": bool(np.all(np.isfinite(res.values))),
        "spectral_radius": float(res.spectral_radius),
        "l2_drift": float(res.l2_drift),
        "l2_end": float(np.sqrt(dx) * np.linalg.norm(res.values[-1])),
        "n_steps": int(res.meta["n_steps"]),
        "values_sha256": hashlib.sha256(res.values.tobytes()).hexdigest(),
    }


@contextlib.contextmanager
def observe_mol(sink: dict):
    """Record a summary of every method-of-lines run made inside the block.

    The ``solve`` suite reports no spectral radius of its reference run, so
    the gate reads it from the returned ``MolResult``.  The wrapper times
    nothing and adds one dictionary insert per run.
    """
    from bo_halfline.mol import MethodOfLines

    original = MethodOfLines.__dict__["run"]

    @functools.wraps(original)
    def run(self, *args, **kwargs):
        res = original(self, *args, **kwargs)
        summary = mol_summary(res)
        sink[str(summary["n"])] = summary
        return res

    MethodOfLines.run = run
    try:
        yield sink
    finally:
        MethodOfLines.run = original


def _cli(command: str, seed: int, out: Path, result: UnitResult) -> None:
    from bo_halfline.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        code = main([command, "--seed", str(seed), "--out", str(out)])
    result.exit_codes[command] = code
    for path in sorted(out.glob("*.csv")):
        result.files[path.stem] = path


def run_solve_production(seed: int, out: Path) -> UnitResult:
    result = UnitResult()
    with observe_mol(result.mol):
        _cli("solve", seed, out, result)
    return result


def run_linear_suites(seed: int, out: Path) -> UnitResult:
    result = UnitResult()
    for command in LINEAR_SUITES:
        _cli(command, seed, out, result)
    return result


def run_mol_ladder(seed: int, out: Path) -> UnitResult:
    from bo_halfline import MethodOfLines, RunConfig

    result = UnitResult()
    cfg = RunConfig(seed=seed)
    for n in MOL_LADDER:
        res = MethodOfLines(cfg, mol_n=n).run(t_final=1.0)
        result.mol[str(n)] = mol_summary(res)
    return result


WORKLOADS: dict[str, Callable[[int, Path], UnitResult]] = {
    "solve-production": run_solve_production,
    "linear-suites": run_linear_suites,
    "mol-ladder": run_mol_ladder,
}


def problem_sizes() -> dict:
    """Grid and lattice sizes of the production configuration; a size whose
    object the program no longer has reads None."""
    import bo_halfline as bh

    cfg = bh.RunConfig()
    sizes = {
        "n_t": lambda: bh.TimeGrid(cfg.t_final, cfg.t_switch,
                                   cfg.n_time_geometric, cfg.n_time_uniform).n,
        "n_x": lambda: bh.HalfLineGrid(x_max=cfg.x_max, n=cfg.n_x).nodes.size,
        "n_p_duhamel": lambda: bh.DuhamelGrids().p_nodes.size,
        "n_p_green": lambda: bh.GreenGrids().p_nodes.size,
        "mol_n_solve": lambda: cfg.mol_n,
    }
    out = {}
    for name, size in sizes.items():
        try:
            out[name] = int(size())
        except (AttributeError, TypeError):
            out[name] = None
    out["mol_ladder_n"] = list(MOL_LADDER)
    return out
