"""Check suites and deterministic run reports.

Four named suites mirror the command-line subcommands:

* ``verify-symbols`` -- scaling identities of the factorization scalars,
  index invariance, and negative controls that show the probes are sharp;
* ``decay``   -- long-time decay slopes of the Green and boundary operators
  and the single-constant weighted boundary bound;
* ``solve``   -- the Picard fixed point, its growth fits, and the
  cross-validation gap against the independent discretization;
* ``selfcheck`` -- quadrature-layer invariants (Plemelj jump, Parseval,
  Hilbert antisymmetry, A_2 characteristics, convolution tails).

Reports are deterministic: all randomness flows through
``numpy.random.default_rng(config.seed)``, rows never carry timestamps, and
blocks run serially in a fixed order so the serialized CSV is bit-identical
for identical (config, seed) pairs.  Each row names the check that produced
it in ``source`` (an identity, a second route, or an expected rate), so a
report line can be traced to its oracle without reading the code.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import stdtrit

from . import __version__
from .boundary import BoundaryKernel
from .config import RunConfig
from .contour import AxisSampling, cauchy_transform, log_graded_nodes, plemelj_limits
from .green import GreenOperator
from .halfline import (HalfLineGrid, TruncatedWeight, WholeLineGrid,
                       ap_characteristic, convolution_decay, hilbert_whole_line,
                       l2_norm, make_profile, trapezoid_weights)
from .solver import SpaceTimeSolution, cross_validate, picard_solve
from .symbols import Symbols, root_k, root_phi

__all__ = [
    "CheckRow", "SlopeFit", "RunReport", "fit_loglog", "fit_affine",
    "check", "bound", "slope", "control", "info",
    "run_verify_symbols", "run_decay", "run_solve", "run_selfcheck",
    "SUITE_RUNNERS",
]

_CSV_COLUMNS = ("suite", "block", "kind", "name", "value", "target",
                "tolerance", "ci_low", "ci_high", "passed", "source")
_TAGS = {True: "PASS", False: "FAIL", None: "info"}


# ---------------------------------------------------------------------------
# data model


@dataclass(frozen=True)
class CheckRow:
    """One report line: a measured value against a target, or a plain fact.

    The constructor named after ``kind`` derives ``passed`` from the row's
    own value, target and tolerance; a NaN value never passes.

    * ``check``: |value - target| <= tolerance.
    * ``bound``: value <= target.
    * ``slope``: a fitted exponent with its 95% CI; |slope - target| <=
      tolerance.
    * ``control``: a deliberately broken variant the probe must see; with a
      target, |value - target| <= tolerance (the expected discrepancy),
      without one, value > tolerance (a residual that must be visible).
    * ``info``: no verdict.  ``abort``: no verdict, the computation was
      stopped (details in ``source``).

    Only the solve suite's growth envelope rows set ``passed`` by hand, as
    their verdicts rest on figures other than the value against a target:
    ``m1-h1-bound`` passes when its late-window slope CI reaches down to
    zero (ci_low <= 0), ``m2-weighted-rate`` when the fit residual, which
    the row does not carry, stays under one log unit.
    """

    block: str
    kind: str
    name: str
    value: float | None
    target: float | None = None
    tolerance: float | None = None
    passed: bool | None = None
    ci_low: float | None = None
    ci_high: float | None = None
    source: str = ""


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares line with a 95% t-interval on the slope."""

    slope: float
    intercept: float
    ci_low: float
    ci_high: float
    n: int
    residual_max: float

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.intercept + self.slope * np.asarray(x, dtype=float)


def fit_affine(x: Sequence[float], y: Sequence[float]) -> SlopeFit:
    """y ~ a + b x by least squares; 95% CI on b from the t distribution."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    if n < 3:
        raise ValueError("need at least 3 points for a slope with a CI")
    b, a = np.polyfit(x, y, 1)
    resid = y - (a + b * x)
    dof = n - 2
    sxx = float(np.sum((x - x.mean()) ** 2))
    se = math.sqrt(float(np.sum(resid**2)) / dof / sxx)
    # the t quantile that scipy.stats.t.ppf returns, without importing stats
    half = float(stdtrit(dof, 0.975)) * se
    return SlopeFit(float(b), float(a), float(b - half), float(b + half), n,
                    float(np.max(np.abs(resid))))


def fit_loglog(x: Sequence[float], y: Sequence[float]) -> SlopeFit:
    """Power-law exponent of y(x): affine fit in log-log coordinates."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        raise ValueError("log-log fit needs positive data")
    return fit_affine(np.log(x), np.log(y))


# one constructor per row kind; each derives ``passed`` from its own row


def check(block: str, name: str, value: float, target: float, tol: float,
          source: str = "") -> CheckRow:
    return CheckRow(block, "check", name, value, target, tol,
                    bool(abs(value - target) <= tol), source=source)


def bound(block: str, name: str, value: float, target: float,
          source: str = "") -> CheckRow:
    return CheckRow(block, "bound", name, value, target, None,
                    bool(value <= target), source=source)


def slope(block: str, name: str, fit: SlopeFit, target: float, tol: float,
          source: str = "") -> CheckRow:
    return CheckRow(block, "slope", name, fit.slope, target, tol,
                    bool(abs(fit.slope - target) <= tol), fit.ci_low,
                    fit.ci_high, source)


def control(block: str, name: str, value: float, target: float | None,
            tol: float, source: str = "") -> CheckRow:
    passed = value > tol if target is None else abs(value - target) <= tol
    return CheckRow(block, "control", name, value, target, tol, bool(passed),
                    source=source)


def info(block: str, name: str, value: float | None,
         target: float | None = None, source: str = "") -> CheckRow:
    return CheckRow(block, "info", name, value, target, source=source)


def _fitted(block: str, name: str, x: Sequence[float], y: Sequence[float],
            value: float, target: float | None,
            rows: Callable[[SlopeFit], list[CheckRow]],
            fit: Callable[..., SlopeFit] = fit_loglog,
            samples: str = "time") -> list[CheckRow]:
    """``rows(fit(x, y))``, or one ``:not-fittable`` info row carrying
    ``value`` when x holds too few samples for a slope with a CI."""
    if len(x) < 3:
        return [info(block, f"{name}:not-fittable", value, target,
                     source=f"{len(x)} {samples} sample(s); a slope needs >= 3")]
    return rows(fit(x, y))


@dataclass
class RunReport:
    """All rows of one suite plus the stamp that makes the run reproducible."""

    suite: str
    rows: list[CheckRow] = field(default_factory=list)
    config_tag: str = ""
    version: str = __version__
    # side tables written next to the report CSV, name -> CSV text
    # (the solve suite ships its space-time solution lattice this way)
    extras: dict = field(default_factory=dict)
    # run telemetry for standard error (stage seconds and the like); it
    # varies from run to run, so it never reaches a CSV
    telemetry: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.n_failed == 0

    @property
    def n_checked(self) -> int:
        return sum(1 for r in self.rows if r.passed is not None)

    @property
    def n_failed(self) -> int:
        return sum(1 for r in self.rows if r.passed is False)

    def summary_lines(self) -> list[str]:
        out = []
        for r in self.rows:
            tag = "ABORT" if r.kind == "abort" else _TAGS[r.passed]
            val = "" if r.value is None else f" value={r.value:.6g}"
            tgt = "" if r.target is None else f" target={r.target:.6g}"
            tol = "" if r.tolerance is None else f" tol={r.tolerance:.3g}"
            out.append(f"[{tag}] {r.block}/{r.name}{val}{tgt}{tol}")
        return out

    def to_csv(self) -> str:
        lines = [",".join(_CSV_COLUMNS)]
        stamp = info("meta", "environment", None,
                     source=f"{self.version}; numpy {np.__version__}; "
                            f"{self.config_tag}")
        for r in [stamp, *self.rows]:
            lines.append(",".join((
                _csv_str(self.suite), _csv_str(r.block), _csv_str(r.kind),
                _csv_str(r.name), _csv_num(r.value), _csv_num(r.target),
                _csv_num(r.tolerance), _csv_num(r.ci_low), _csv_num(r.ci_high),
                _csv_num(r.passed), _csv_str(r.source))))
        return "\n".join(lines) + "\n"

    def write(self, out_dir: str | Path) -> Path:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"{self.suite}.csv"
        path.write_text(self.to_csv())
        for name, text in sorted(self.extras.items()):
            (out / f"{name}.csv").write_text(text)
        return path


def _csv_num(x: float | None) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    return f"{float(x):.12g}"


def _csv_str(s: str) -> str:
    if any(c in s for c in ",\"\n"):
        return '"' + s.replace('"', '""') + '"'
    return s


def _config_tag(cfg: RunConfig) -> str:
    return (f"seed={cfg.seed} contour={cfg.contour_angle} "
            f"c_q={cfg.c_q_variant} psi_b={cfg.psi_b_variant} "
            f"data_scale={cfg.data_scale:g}")


def _select(blocks: Iterable[tuple[str, Callable[[], list[CheckRow]]]],
            only: str | None) -> list[CheckRow]:
    """The rows of every block, or of the one named ``only``; a block that
    is not selected is not run."""
    return [row for name, runner in blocks if only in (None, name)
            for row in runner()]


# ---------------------------------------------------------------------------
# suite: verify-symbols


def _sample_sector_s(rng: np.random.Generator, n: int,
                     arg_range: tuple[float, float],
                     radius_range: tuple[float, float] = (0.1, 10.0)) -> np.ndarray:
    """n points s = r e^{i a}, log-uniform radius, uniform argument."""
    lo, hi = radius_range
    r = np.exp(rng.uniform(math.log(lo), math.log(hi), n))
    a = rng.uniform(arg_range[0], arg_range[1], n)
    return r * np.exp(1j * a)


_SECTOR_MARGIN = math.pi / 8  # clearance from the contour-danger directions


def _scaling_rows(cfg: RunConfig, rng: np.random.Generator) -> list[CheckRow]:
    """Scale covariance of the factorization scalars.

    Under s -> p^2 s the roots scale linearly, k(p^2 s) = p k(s) and
    phi(p^2 s) = p phi(s); the normalized exponential scales by the exact
    index power, e^{gamma_tilde(p w, p^2 s)} = p^{3/2} e^{gamma_tilde(w, s)}
    in the -3/2 sector; and the derivative coefficient obeys
    p a_tilde(p^2 s) = a_tilde(s).  The root laws are exact branch
    arithmetic (tight tolerance).  The exponential law is the sharp one: on
    geometrically mapped contour lattices every other term cancels exactly,
    so its residual measures the quadrature's density-integral index against
    the sector constant -3/2.  Samples keep the production clearance (pi/8)
    from the sector boundaries, where the symbol roots graze the contour;
    the verification contour is refined to >= 48 points per decade so the
    index quadrature outresolves the tolerance.
    """
    symbols = Symbols(cfg.replace(contour_points_per_decade=max(
        48, cfg.contour_points_per_decade)))
    samples = _sample_sector_s(rng, 10, (3 * math.pi / 4 + _SECTOR_MARGIN,
                                         5 * math.pi / 4 - _SECTOR_MARGIN))
    w0 = -1.0 + 0.0j
    rows = []
    for p in (0.5, 2.0, 10.0):
        errs = {"k": 0.0, "phi": 0.0, "exp_gamma": 0.0, "a_tilde": 0.0}
        for s in samples:
            s = complex(s)
            sp = p * p * s
            errs["k"] = max(errs["k"], abs(root_k(sp) - p * root_k(s))
                            / abs(p * root_k(s)))
            phi0 = complex(root_phi(s).value)
            phi1 = complex(root_phi(sp).value)
            errs["phi"] = max(errs["phi"], abs(phi1 - p * phi0) / abs(p * phi0))
            g0 = np.exp(symbols.gamma_tilde(w0, s))
            g1 = np.exp(symbols.gamma_tilde(p * w0, sp))
            errs["exp_gamma"] = max(errs["exp_gamma"],
                                    abs(g1 - p**1.5 * g0) / abs(g0))
            a0 = symbols.a_tilde(s)
            a1 = symbols.a_tilde(sp)
            errs["a_tilde"] = max(errs["a_tilde"], abs(p * a1 - a0) / abs(a0))
        for name, tol in (("k", 1.0e-10), ("phi", 1.0e-10),
                          ("exp_gamma", 1.0e-4), ("a_tilde", 1.0e-4)):
            rows.append(check("scaling", f"{name}[p={p:g}]", errs[name], 0.0,
                              tol, source="scale-covariance identity"))
    return rows


def _index_rows(cfg: RunConfig, rng: np.random.Generator) -> list[CheckRow]:
    symbols = Symbols(cfg.replace(contour_points_per_decade=max(
        48, cfg.contour_points_per_decade)))
    inner = _sample_sector_s(rng, 10, (3 * math.pi / 4 + _SECTOR_MARGIN,
                                       5 * math.pi / 4 - _SECTOR_MARGIN))
    dev_q = max(abs(symbols.index(complex(s)) + 1.5) for s in inner)
    dev_w = max(abs(symbols.index_by_winding(complex(s)) + 1.5) for s in inner)
    gap = max(abs(symbols.index(complex(s)) - symbols.index_by_winding(complex(s)))
              for s in inner)
    outer = _sample_sector_s(rng, 5, (0.45 * math.pi,
                                      3 * math.pi / 4 - _SECTOR_MARGIN))
    dev_o = max(abs(symbols.index(complex(s)) - 0.5) for s in outer)
    return [check("index", name, dev, 0.0, 1.0e-3, source=source)
            for name, dev, source in (
                ("quadrature[-3/2-sector]", dev_q, "density integral vs -3/2"),
                ("winding[-3/2-sector]", dev_w,
                 "argument increment of symbol ratio vs -3/2"),
                ("two-route-agreement", gap,
                 "density integral vs argument increment"),
                ("quadrature[+1/2-sector]", dev_o, "density integral vs +1/2"))]


def _symbol_control_rows(cfg: RunConfig) -> list[CheckRow]:
    """Negative controls: wrong settings must move the probes visibly."""
    # the index is a contour invariant only inside a sector: at the
    # production direction arg s = pi the shipped contour separates both
    # symbol roots (index -3/2) while the shallow-angle contour loses one
    # of them and reads -1/2 -- a unit discrepancy the probe must see.
    symbols = Symbols(cfg)
    s = complex(2.0 * np.exp(1j * math.pi))
    other = "pi4" if cfg.contour_angle == "3pi8" else "3pi8"
    gap = abs(symbols.index(s)
              - Symbols(cfg.replace(contour_angle=other)).index(s))
    # the scaling law pins the index power: substituting the wrong index
    # must leave a visible residual where the right one leaves ~1e-6.
    s0 = complex(1.5 * np.exp(1j * math.pi))
    p = 2.0
    g0 = np.exp(symbols.gamma_tilde(-1.0 + 0j, s0))
    g1 = np.exp(symbols.gamma_tilde(-p + 0j, complex(p * p * s0)))
    wrong = abs(g1 - p ** (-0.5) * g0) / abs(g0)
    return [
        control("controls", f"index-contour[{cfg.contour_angle}-vs-{other}]",
                gap, 1.0, 1.0e-2,
                source="root separation depends on the contour angle"),
        control("controls", "exp-gamma-scaling[index=+1/2]", wrong, None,
                1.0e-2, source="scaling residual with the wrong index must "
                               "be visible")]


def run_verify_symbols(config: RunConfig | None = None,
                       suite: str | None = None) -> RunReport:
    cfg = config or RunConfig()
    rng = np.random.default_rng(cfg.seed)
    blocks = [
        ("scaling", lambda: _scaling_rows(cfg, rng)),
        ("index", lambda: _index_rows(cfg, rng)),
        ("controls", lambda: _symbol_control_rows(cfg)),
    ]
    return RunReport("verify-symbols", _select(blocks, suite), _config_tag(cfg))


# ---------------------------------------------------------------------------
# suite: decay


_GREEN_T_SWEEP = tuple(float(t) for t in np.geomspace(5.0, 100.0, 9))
_GREEN_X_CAP = 2400.0


def _green_norms(cfg: RunConfig, profile_name: str,
                 t_values: Sequence[float]) -> np.ndarray:
    """||d^n/dx^n G(t) psi||_L2(0, X) for n = 0, 1 on a long graded window,
    as a (2, len(t_values)) array.

    The window [0, 2400] with the whole-line grid reaching 3840 holds the
    rightward transport of every mode the dx = 0.5 sampling keeps (group
    speed 2 xi <= 2 pi/dx), so the half-line norm is measured where the mass
    actually is, not behind a truncation.  Every t and both orders come
    from one operator call, so the window's field map is built once.
    """
    symbols = Symbols(cfg)
    psi = make_profile(profile_name, 1.0)
    wg = WholeLineGrid(n=8192, dx=0.5, x0=-256.0)
    green = GreenOperator(symbols, psi, whole_grid=wg)
    sel = (wg.nodes >= 0.0) & (wg.nodes <= _GREEN_X_CAP)
    xs = wg.nodes[sel]
    return l2_norm(green.apply(xs, t_values, (0, 1)), trapezoid_weights(xs))


def _green_decay_rows(cfg: RunConfig, t_values: Sequence[float]) -> list[CheckRow]:
    rows = []
    for profile_name in ("gauss_bump", "poly_exp"):
        both = _green_norms(cfg, profile_name, t_values)
        for deriv, norms in enumerate(both):
            target = -(2 * deriv + 1) / 4.0
            name = f"green[{profile_name},n={deriv}]"
            rows += _fitted(
                "green-decay", name, t_values, norms, float(norms[-1]), target,
                lambda fit: [slope("green-decay", name, fit, target, 0.1,
                                   source="log-log fit of the propagator norm "
                                          "against the dispersive rate "
                                          "-(2n+1)/4")])
    return rows


def _boundary_decay_rows(cfg: RunConfig, sig_values: Sequence[float]) -> list[CheckRow]:
    bker = BoundaryKernel(Symbols(cfg))
    rows = []
    for deriv in (0, 1):
        target = -(3.0 / 4.0 + deriv / 2.0)
        name = f"kernel[n={deriv}]"
        norms = []
        for sig in sig_values:
            rs = math.sqrt(float(sig))
            x, wx = log_graded_nodes(1.0e-4 * rs, 1.0e6 * rs, 16)
            norms.append(float(l2_norm(bker.kernel(x, float(sig), deriv), wx)))
        rows += _fitted(
            "boundary-decay", name, sig_values, norms, norms[-1], target,
            lambda fit: [
                slope("boundary-decay", name, fit, target, 0.1,
                      source="direct x-quadrature of the kernel vs the "
                             "self-similar rate -(3+2n)/4"),
                # independent route: the exact-rate norm from the unit profile
                check("boundary-decay", f"kernel-norm-two-route[n={deriv}]",
                      max(abs(n / bker.kernel_l2(float(s), deriv) - 1.0)
                          for n, s in zip(norms, sig_values)), 0.0, 2.0e-2,
                      source="direct x-quadrature vs profile-norm scaling law")])
    return rows


def _weighted_bound_rows(cfg: RunConfig) -> list[CheckRow]:
    """sup_t ||B(t) h||_{L^2_eps} / ||h||_{Z^{1,1}}: one constant serves.

    The ratio rises while the boundary datum is active, peaks, and then
    relaxes at the self-similar rate -(3/4 - eps/2): past the forcing the
    response is the kernel at time scale t carrying the datum's integral,
    and the polynomial weight softens the kernel's own decay by eps/2.  The
    sup is certified to be the global constant by the turnover inside the
    sweep plus the fitted relaxation exponent of the tail.
    """
    bker = BoundaryKernel(Symbols(cfg))
    h = make_profile(cfg.h_profile, 1.0)
    half = HalfLineGrid(x_max=400.0, n=2048)
    tg = WholeLineGrid(n=4096, dx=0.02, x0=-8.0)
    hv = np.where(tg.nodes >= 0.0, h(tg.nodes), 0.0)
    z11 = tg.z_norm(hv, 1.0, 1.0)
    t_values = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)
    vals = bker.apply_convolution(h, half.nodes, t_values)
    ratios = half.weighted_norm(vals, cfg.epsilon_weight) / z11
    const = float(np.max(ratios))
    return [
        info("boundary-weighted", "constant", const,
             source="sup over the t sweep of the weighted-norm ratio"),
        bound("boundary-weighted", "turnover", ratios[-1] / const, 0.25,
              source="the sup is interior: the ratio at the sweep end has "
                     "dropped well below it"),
        slope("boundary-weighted", "tail-relaxation",
              fit_loglog(t_values[6:], ratios[6:]),
              -(0.75 - cfg.epsilon_weight / 2.0), 0.1,
              source="late-time ratio vs the weighted self-similar rate "
                     "-(3/4 - eps/2)")]


def run_decay(config: RunConfig | None = None, suite: str | None = None,
              t_values: Sequence[float] | None = None) -> RunReport:
    cfg = config or RunConfig()
    ts = tuple(float(t) for t in (_GREEN_T_SWEEP if t_values is None else t_values))
    blocks = [
        ("green-decay", lambda: _green_decay_rows(cfg, ts)),
        ("boundary-decay", lambda: _boundary_decay_rows(cfg, ts)),
        ("boundary-weighted", lambda: _weighted_bound_rows(cfg)),
    ]
    return RunReport("decay", _select(blocks, suite), _config_tag(cfg))


# ---------------------------------------------------------------------------
# suite: solve


def _solution_table(sol: SpaceTimeSolution) -> str:
    """The converged space-time lattice as CSV, one row per node."""
    lines = ["t,x,u"]
    for k in range(sol.times.size):
        t_str = _csv_num(sol.times[k])
        for x, u in zip(sol.x, sol.values[k]):
            lines.append(f"{t_str},{_csv_num(x)},{_csv_num(u)}")
    return "\n".join(lines) + "\n"


def _picard_rows(sol: SpaceTimeSolution) -> list[CheckRow]:
    rows = [info("picard", f"contraction-ratio[{i}]", float(r),
                 source="successive Picard step norms")
            for i, r in enumerate(sol.contraction_ratios)]
    converged = check("picard", "converged", float(sol.converged), 1.0, 0.0,
                      source="fixed-point iteration")
    if sol.aborted:
        return rows + [CheckRow(
            "picard", "abort", "iteration-aborted", float(sol.n_iter),
            source="a non-finite step norm, or step norms that grew for "
                   "two consecutive iterations; ratio history above"), converged]
    h_peak = float(np.max(np.abs(sol.boundary_values)))
    trace_rel = sol.trace_error / h_peak if h_peak > 0.0 else 0.0
    return rows + [
        converged,
        info("picard", "iterations", float(sol.n_iter)),
        bound("picard", "fixed-point-residual", sol.fixed_point_residual_rel,
              1.0e-3, source="one extra Duhamel application against the "
                             "iterate, X-norm"),
        bound("picard", "boundary-trace-error", trace_rel, 0.05,
              source="wall value of the iterate vs the prescribed boundary "
                     "datum, relative to max|h|"),
        info("picard", "x-norm", sol.solution_xnorm,
             source="weighted space-time norm of the solution")]


def _growth_rows(cfg: RunConfig, sol: SpaceTimeSolution) -> list[CheckRow]:
    """Growth fits on the interior time range."""
    if sol.aborted:
        return []
    if sol.solution_xnorm < 1.0e-30:
        return [check("growth", name, 0.0, 0.0, 0.0,
                      source="zero data: every norm vanishes")
                for name in ("m1-h1-bound", "m2-weighted-rate",
                             "m3-weighted-intercept")]
    half = HalfLineGrid(x_max=cfg.x_max, n=cfg.n_x)
    pos = sol.times > 0.0
    ts = sol.times[pos]
    h1 = sol.norm_history(half, "h1")[pos]
    wnorm = sol.norm_history(half, "weighted", weight_power=1.0)[pos]
    late = ts >= cfg.t_switch
    h1_sup = float(np.max(h1))

    def envelope(fit: SlopeFit) -> list[CheckRow]:
        shift = float(np.max(np.log(wnorm) - fit.predict(ts)))
        return [
            CheckRow("growth", "slope", "m2-weighted-rate", fit.slope, None,
                     1.0, fit.residual_max <= 1.0, fit.ci_low, fit.ci_high,
                     source="affine envelope of log ||u||_{L^2,1}; faithful "
                            "iff the fit residual stays under one log unit"),
            info("growth", "m3-weighted-intercept", fit.intercept + shift,
                 source="envelope intercept after the one-sided shift"),
            bound("growth", "weighted-envelope-onesided", shift, 0.5,
                  source="largest upward residual the one-sided shift must "
                         "absorb")]

    rows = _fitted(
        "growth", "m1-h1-bound", ts[late], np.log(h1[late]), h1_sup, None,
        lambda fit: [CheckRow(
            "growth", "slope", "m1-h1-bound", h1_sup, None, None,
            fit.ci_low <= 0.0, fit.ci_low, fit.ci_high,
            source="sup of the H1 norm; no growth trend once the boundary "
                   "forcing has peaked (slope CI on the late window "
                   "reaches <= 0)")],
        fit=fit_affine, samples="late time")
    return rows + _fitted("growth", "m2-weighted-rate", ts, np.log(wnorm),
                          float(np.max(wnorm)), None, envelope, fit=fit_affine)


def _cross_validation_rows(cfg: RunConfig, sol: SpaceTimeSolution,
                           xv: dict) -> list[CheckRow]:
    """The gap to the independent discretization at the last lattice node
    not after t = 1 (t = 1 itself on the production lattice); the figures of
    ``cross_validate`` land in ``xv`` for the telemetry."""
    if sol.aborted:
        return []
    t_c = float(sol.times[sol.times <= 1.0][-1])
    xv.update(cross_validate(cfg, t_compare=t_c, solution=sol))
    return [
        bound("cross-validation", f"rel-l2[t={t_c:g}]", xv["rel_l2"], 1.0e-2,
              source="contour-integral solution vs method-of-lines run"),
        info("cross-validation", f"picard-l2[t={t_c:g}]", xv["picard_norm"]),
        info("cross-validation", f"mol-l2[t={t_c:g}]", xv["mol_norm"]),
        info("cross-validation", "mol-l2-drift", xv["reference"]["l2_drift"],
             source="conservation drift of the reference run")]


def _solve_telemetry(sol: SpaceTimeSolution, xv: dict) -> list[str]:
    """Stage seconds, peak RSS and CPU count of the solve, one line per
    Duhamel sweep (the Picard iterations, then the residual sweep) with its
    step norm and the ratio to the previous step, and one line for the
    method-of-lines reference run when it ran (``xv`` is empty otherwise)."""
    meta = sol.meta
    lines = [f"solve: linear_lattice_s={meta['linear_lattice_s']:.3f} "
             f"linear_lattice_peak_rss_mb="
             f"{meta['linear_lattice_peak_rss_mb']:.1f} "
             f"propagator_build_s={meta['propagator_build_s']:.3f} "
             f"propagator_build_peak_rss_mb="
             f"{meta['propagator_build_peak_rss_mb']:.1f} "
             f"workers={meta['workers']}"]
    steps = list(sol.step_norms)
    if len(meta["sweep_s"]) > sol.n_iter:     # the residual sweep ran
        steps.append(sol.fixed_point_residual)
    nan = float("nan")
    for i, sweep_s in enumerate(meta["sweep_s"]):
        label = f"sweep {i + 1}" if i < sol.n_iter else "residual sweep"
        step = steps[i] if i < len(steps) else nan
        prev = steps[i - 1] if i > 0 else nan
        ratio = step / prev if prev > 0.0 else nan
        lines.append(f"solve: {label}: "
                     f"transform_forcing_s={meta['transform_forcing_s'][i]:.3f} "
                     f"accumulate_s={meta['accumulate_s'][i]:.3f} "
                     f"sweep_s={sweep_s:.3f} step_norm={step:.6g} "
                     f"contraction_ratio={ratio:.6g} "
                     f"peak_rss_mb={meta['sweep_peak_rss_mb'][i]:.1f}")
    if xv:
        ref = xv["reference"]
        lines.append(f"solve: reference: n={ref['n']} "
                     f"n_steps={ref['n_steps']} "
                     f"step_matrix_s={ref['step_matrix_s']:.3f} "
                     f"steps_s={ref['steps_s']:.3f} "
                     f"certificate_s={ref['certificate_s']:.3f} "
                     f"spectral_radius={ref['spectral_radius']:.17g} "
                     f"l2_drift={ref['l2_drift']:.6g} "
                     f"energy_drift={ref['energy_drift']:.6g}")
    return lines


def run_solve(config: RunConfig | None = None,
              suite: str | None = None) -> RunReport:
    cfg = config or RunConfig()
    solution = functools.cache(lambda: picard_solve(cfg))
    xv: dict = {}
    blocks = [
        ("picard", lambda: _picard_rows(solution())),
        ("growth", lambda: _growth_rows(cfg, solution())),
        ("cross-validation", lambda: _cross_validation_rows(cfg, solution(), xv)),
    ]
    rows = _select(blocks, suite)
    if not solution.cache_info().currsize:     # unknown block: nothing solved
        return RunReport("solve", rows, _config_tag(cfg))
    sol = solution()
    return RunReport("solve", rows, _config_tag(cfg),
                     extras={"solution": _solution_table(sol)},
                     telemetry=_solve_telemetry(sol, xv))


# ---------------------------------------------------------------------------
# suite: selfcheck


def _plemelj_rows(cfg: RunConfig, rng: np.random.Generator) -> list[CheckRow]:
    """Jump relation against the independent off-axis route.

    The one-sided limits come from the pole-subtracted principal value, the
    off-axis values from the re-centered Cauchy quadrature; approaching the
    axis at distance delta the two must agree to the quadrature error plus
    the O(delta) approach bias, and their difference across the axis must
    reproduce the density.
    """
    tests = [
        ("rational", lambda q: 1.0 / (1.0 + np.imag(q) ** 2), 2.0),
        ("gaussian", lambda q: np.exp(-np.imag(q) ** 2 / 4.0), 2.0),
        ("odd-rational", lambda q: np.imag(q) / (1.0 + np.imag(q) ** 2) ** 1.5, 2.0),
    ]
    points = rng.uniform(-5.0, 5.0, 20)
    rows = []
    for name, phi, decay in tests:
        worst = 0.0
        for c in points:
            p = 1j * float(c)
            delta = 1.0e-4 * (1.0 + abs(c))
            fine = AxisSampling(scale=1.0 + abs(c), decay_exponent=decay)
            coarse = AxisSampling(scale=1.0 + abs(c), decay_exponent=decay,
                                  points_per_decade=12)
            plus, minus = plemelj_limits(phi, p, fine)
            c_plus = cauchy_transform(phi, p - delta, fine)
            c_minus = cauchy_transform(phi, p + delta, fine)
            quad = max(abs(c_plus - cauchy_transform(phi, p - delta, coarse)),
                       abs(c_minus - cauchy_transform(phi, p + delta, coarse)))
            allowance = 10.0 * (quad + delta)
            err = max(abs(plus - c_plus), abs(minus - c_minus),
                      abs((c_plus - c_minus) - phi(np.array([p]))[0]))
            worst = max(worst, err / allowance)
        rows.append(bound("plemelj", f"jump[{name}]", worst, 1.0,
                          source="one-sided limits vs off-axis Cauchy route, "
                                 "scaled by 10x the refinement gap"))
    return rows


def _spectral_rows(cfg: RunConfig) -> list[CheckRow]:
    grid = WholeLineGrid(n=4096, dx=0.05, x0=-102.4)
    x = grid.nodes
    rows = []
    # Parseval: the order-zero Sobolev norm must equal the plain L2 norm
    f = np.exp(-((x - 1.3) / 2.0) ** 2)
    gap = abs(grid.sobolev_norm(f, 0.0) / grid.l2_norm(f) - 1.0)
    rows.append(check("spectral", "parseval", gap, 0.0, 1.0e-10,
                      source="frequency-side norm vs space-side norm"))
    # closed-form half-line transforms (evaluated on the frequency boundary
    # of their Laplace domain) vs the grid transform of the zero extension;
    # the comparison floor is the trapezoid boundary term dx^2 psi'(0)/12
    fine = WholeLineGrid(n=16384, dx=0.0125, x0=-102.4)
    xf = fine.nodes
    for name, tol in (("gauss_bump", 2.0e-4), ("poly_exp", 1.0e-6)):
        prof = make_profile(name, 1.0)
        vals = np.where(xf >= 0.0, prof(xf), 0.0)
        spec = np.fft.fft(vals) * fine.dx * np.exp(-1j * fine.xi * xf[0])
        ref = prof.hat(1j * fine.xi)
        num = float(np.max(np.abs(spec - ref)))
        den = float(np.max(np.abs(ref)))
        rows.append(check("spectral", f"hat[{name}]", num / den, 0.0, tol,
                          source="closed-form transform vs grid FFT"))
    # Hilbert transform: antisymmetric, and H^2 = -pi^2 on mean-free data
    g = np.exp(-((x + 2.0) / 1.5) ** 2)
    hf, hg = hilbert_whole_line(grid, f), hilbert_whole_line(grid, g)
    anti = abs(float(np.sum(hf * g) + np.sum(f * hg)) * grid.dx)
    anti /= grid.l2_norm(f) * grid.l2_norm(g)
    rows.append(check("spectral", "hilbert-antisymmetry", anti, 0.0, 1.0e-12,
                      source="<Hf,g> + <f,Hg> = 0"))
    fm = f - float(np.mean(f))
    invol = grid.l2_norm(hilbert_whole_line(grid, hilbert_whole_line(grid, fm))
                         / math.pi**2 + fm) / grid.l2_norm(fm)
    rows.append(check("spectral", "hilbert-involution", invol, 0.0, 1.0e-10,
                      source="H(Hf) = -pi^2 f for mean-free f"))
    return rows


def _weight_rows(cfg: RunConfig) -> list[CheckRow]:
    """Muckenhoupt control of the truncated weights at the production power.

    The weighted estimates run in L^2 with density w_N^{2 eps} (eps is the
    configured weight exponent), so that is the density whose A_2 product
    must stay bounded uniformly in the truncation cutoff N.
    """
    cutoffs = (4.0, 16.0, 64.0)
    expo = 2.0 * cfg.epsilon_weight
    chars = [ap_characteristic(TruncatedWeight(n), n, exponent=expo)
             for n in cutoffs]
    spread = max(chars) / min(chars) - 1.0
    flat = ap_characteristic(TruncatedWeight(8.0), 8.0, exponent=0.0)
    # weighted Hilbert norm: uniform over the cutoff sweep
    grid = WholeLineGrid(n=4096, dx=0.05, x0=-102.4)
    x = grid.nodes
    f = np.exp(-((x - 0.7) / 1.8) ** 2)
    hf = hilbert_whole_line(grid, f) / math.pi
    w2 = np.stack([TruncatedWeight(n)(x) ** expo for n in cutoffs])
    quot = grid.l2_norm(hf, weight=w2) / grid.l2_norm(f, weight=w2)
    w_spread = float(np.max(quot) / np.min(quot)) - 1.0
    return [
        check("weights", "a2-characteristic-stability", spread, 0.0, 0.05,
              source="A_2 product over dyadic intervals, cutoff sweep N in "
                     "{4,16,64}"),
        info("weights", "a2-characteristic", float(max(chars)),
             source="largest dyadic-average product over the sweep"),
        check("weights", "a2-flat-weight", flat, 1.0, 0.0,
              source="zero weight power: the characteristic is exactly one"),
        check("weights", "weighted-hilbert-uniformity", w_spread, 0.0, 0.2,
              source="weighted-norm quotient of H across the cutoff sweep")]


def _convolution_rows(cfg: RunConfig) -> list[CheckRow]:
    rows = []
    for a, b in ((1.5, 2.0), (2.0, 2.0), (1.2, 1.4)):
        predicted, fitted = convolution_decay(a, b)
        rows.append(check("convolution", f"tail[a={a:g},b={b:g}]", fitted,
                          predicted, 0.1,
                          source="fitted tail exponent vs min(a, b, a+b-1)"))
    return rows


def run_selfcheck(config: RunConfig | None = None,
                  suite: str | None = None) -> RunReport:
    cfg = config or RunConfig()
    rng = np.random.default_rng(cfg.seed)
    blocks = [
        ("plemelj", lambda: _plemelj_rows(cfg, rng)),
        ("spectral", lambda: _spectral_rows(cfg)),
        ("weights", lambda: _weight_rows(cfg)),
        ("convolution", lambda: _convolution_rows(cfg)),
    ]
    return RunReport("selfcheck", _select(blocks, suite), _config_tag(cfg))


SUITE_RUNNERS: dict[str, Callable[..., RunReport]] = {
    "verify-symbols": run_verify_symbols,
    "decay": run_decay,
    "solve": run_solve,
    "selfcheck": run_selfcheck,
}
