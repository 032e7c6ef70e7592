"""End-to-end acceptance gate: ten numbered checks, one pass/fail line each.

Every test asserts one shipped guarantee at its stated tolerance, so
``pytest -v`` prints exactly one line per criterion.  Three of the ten fail
with the operators as built, and the failures are findings, not loose
tolerances -- each failing assertion carries the measured numbers, and the
unit suites pin the same numbers as regressions so any drift is caught:

* criterion 4: the assembled half-line flow transports the datum rightward
  at group velocity ``2|xi|`` and conserves its ``L^2`` mass inside the
  observation window, so the windowed norms stay flat instead of decaying
  at the dispersive rates ``t^{-(2n+1)/4}``.
* criterion 6: the interior residual of the assembled linear map is
  dominated by the wall layer of the boundary convolution; the datum-only
  half of the map passes the same check with two orders of margin.  The
  boundary trace reproduces the datum in shape but carries the same wall
  surplus (the profile-side trace constant reads 1.058 instead of 1).
* criterion 8: the contour-integral solution and the independent
  method-of-lines run agree at the few-percent level in norm but not at the
  required 1% in relative ``L^2``; the gap is the boundary-layer closure
  defect of the analytic kernels propagated through Duhamel.
"""

import time

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from bo_halfline.boundary import BoundaryKernel
from bo_halfline.green import GreenOperator
from bo_halfline.halfline import HalfLineGrid, make_profile
from bo_halfline.report import (fit_affine, run_decay, run_selfcheck,
                                run_verify_symbols)
from bo_halfline.solver import cross_validate, picard_solve
from bo_halfline.symbols import Symbols


@pytest.fixture(scope="module")
def symbol_report(cfg):
    start = time.perf_counter()
    report = run_verify_symbols(cfg)
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def selfcheck_report(cfg):
    start = time.perf_counter()
    report = run_selfcheck(cfg)
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def decay_report(cfg):
    start = time.perf_counter()
    report = run_decay(cfg)
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def solution(cfg):
    start = time.perf_counter()
    sol = picard_solve(cfg)
    return sol, time.perf_counter() - start


def _block(report, name):
    rows = [r for r in report.rows if r.block == name]
    assert rows, f"suite produced no rows for block {name!r}"
    return rows


def _failures(rows):
    """Render the rows whose check failed (info rows never fail)."""
    return [f"{r.name}: value={r.value:.6g} target={r.target} "
            f"tol={r.tolerance}" for r in rows if r.passed is False]


def test_criterion_01_symbol_scaling(symbol_report):
    """Scale covariance of k, phi, e^{gamma~} and a~ at p in {1/2, 2, 10}."""
    report, elapsed = symbol_report
    rows = _block(report, "scaling")
    # three p-values x four scalars, each over ten sampled s
    assert len(rows) == 12
    root_rows = [r for r in rows if r.name.startswith(("k[", "phi["))]
    assert all(r.tolerance == 1.0e-10 for r in root_rows)
    exp_rows = [r for r in rows
                if r.name.startswith(("exp_gamma[", "a_tilde["))]
    assert all(r.tolerance == 1.0e-4 for r in exp_rows)
    bad = _failures(rows)
    assert not bad, "scale covariance violated: " + "; ".join(bad)
    assert elapsed < 60.0, f"symbol suite took {elapsed:.1f}s (budget 60s)"


def test_criterion_02_index_minus_three_halves(symbol_report):
    """Winding of the symbol ratio reads -3/2 +- 1e-3 across the sector."""
    report, _ = symbol_report
    rows = _block(report, "index")
    by_name = {r.name: r for r in rows}
    for name in ("quadrature[-3/2-sector]", "winding[-3/2-sector]",
                 "two-route-agreement"):
        assert name in by_name, f"missing index check {name!r}"
        assert by_name[name].tolerance == 1.0e-3
    bad = _failures(rows)
    assert not bad, "index checks failed: " + "; ".join(bad)


def test_criterion_03_plemelj_jump(selfcheck_report):
    """P+ - P- recovers the density within 10x the quadrature error."""
    report, _ = selfcheck_report
    rows = _block(report, "plemelj")
    assert len(rows) >= 3  # one jump check per test density
    bad = _failures(rows)
    assert not bad, "Plemelj jump recovery failed: " + "; ".join(bad)


def test_criterion_04_green_decay_rates(decay_report):
    """Windowed norms of the datum flow should decay like t^{-(2n+1)/4}."""
    report, elapsed = decay_report
    assert elapsed < 600.0, f"decay suite took {elapsed:.0f}s (budget 600s)"
    rows = _block(report, "green-decay")
    slope_rows = [r for r in rows if r.kind == "slope"]
    assert len(slope_rows) == 4  # two profiles x derivatives n = 0, 1
    bad = [f"{r.name}: measured slope {r.value:+.6f}"
           for r in sorted(slope_rows, key=lambda r: r.name)
           if r.passed is False]
    assert not bad, (
        "dispersive decay rates not reached (targets -1/4 for n=0, -3/4 "
        "for n=1, tol 0.1): " + "; ".join(bad) + ".  The correction "
        "carries a static c/sqrt(x) far field: sqrt(x) G(t)psi at x = 2400 "
        "reads -0.180 (gauss_bump) and -0.385 (poly_exp), so the windowed "
        "norms stay flat.  For n=1 the energy law of this H (skew on "
        "L^2(0,inf)) keeps ||d_x G(t)psi|| constant.  The reference arm "
        "gains mass for these data; none leaves through the wall.")


def test_criterion_05_boundary_decay_rates(decay_report):
    """Kernel L^2 slopes -3/4 and -5/4, two-route agreement, weighted bound."""
    report, elapsed = decay_report
    assert elapsed < 600.0, f"decay suite took {elapsed:.0f}s (budget 600s)"
    rows = _block(report, "boundary-decay")
    rows += _block(report, "boundary-weighted")
    slope_rows = [r for r in rows if r.kind == "slope"
                  and r.name.startswith("kernel[")]
    assert len(slope_rows) == 2
    bad = _failures(rows)
    assert not bad, "boundary decay checks failed: " + "; ".join(bad)


def test_criterion_06_linear_solution_residual_and_trace(cfg):
    """The assembled linear map solves the equation and meets its trace.

    Interior: |du/dt + H d2u/dx2| at 50 stencil points, relative to ||u||,
    must stay under 1e-2 (finite differences in t, analytic/spectral
    curvature fed through an FFT Hilbert transform on a fine window).
    Trace: u(0+, t) must match the boundary datum within 5% of max|h|.
    Runtime budget: five minutes.
    """
    t_start = time.perf_counter()
    sym = Symbols(cfg)
    psi = make_profile(cfg.psi_profile, cfg.data_scale)
    h = make_profile("ramp_exp", cfg.data_scale)
    green = GreenOperator(sym, psi)
    kernel = BoundaryKernel(sym)
    nrm = np.linalg.norm

    # fine whole-line window for the FFT Hilbert transform; the half-node
    # shift keeps the wall itself off the lattice
    n, dx, x0 = 16384, 0.0625, -256.0 + 0.03125
    yw = x0 + dx * np.arange(n)
    pos = yw >= 0.0
    ywc = np.clip(yw, 0.0, None)
    xi = 2.0 * np.pi * np.fft.fftfreq(n, d=dx)
    psi_hat = np.fft.fft(np.where(pos, psi(yw), 0.0))

    def hilbert_fft(f):
        return np.real(np.fft.ifft(-1j * np.sign(xi) * np.fft.fft(f)))

    def free_win(t, d=0):
        return np.real(np.fft.ifft(np.exp(-1j * xi * np.abs(xi) * t)
                                   * (1j * xi) ** d * psi_hat))

    x_eval = np.linspace(1.0, 20.0, 50)
    t0, dt = 2.0, 2.0e-3
    times3 = (t0 - dt, t0, t0 + dt)

    u_at = {}
    for t in times3:
        u_at[t] = (CubicSpline(yw, free_win(t))(x_eval)
                   + green.correction(x_eval, t)
                   + kernel.apply_convolution(h, x_eval, t))
    ut = (u_at[times3[2]] - u_at[times3[0]]) / (2.0 * dt)

    # curvature on the window at t0: datum part spectral + analytic, the
    # boundary part by one finite difference of the analytic derivative
    corr_xx = np.where(pos, green.correction(ywc, t0, deriv=2), 0.0)
    bx = np.where(pos, kernel.apply_convolution(h, ywc, t0, deriv=1), 0.0)
    b_xx = np.gradient(bx, dx)
    b_xx[~pos] = 0.0
    free_xx = np.where(pos, free_win(t0, 2), 0.0)
    uxx_win = free_xx + corr_xx + b_xx
    resid = ut + CubicSpline(yw, hilbert_fft(uxx_win))(x_eval)
    ratio = float(nrm(resid) / nrm(u_at[t0]))

    # datum-only control: same arbiter applied to the Green part alone
    u_g = {t: CubicSpline(yw, free_win(t))(x_eval) + green.correction(x_eval, t)
           for t in times3}
    ut_g = (u_g[times3[2]] - u_g[times3[0]]) / (2.0 * dt)
    resid_g = ut_g + CubicSpline(yw, hilbert_fft(free_xx + corr_xx))(x_eval)
    ratio_g = float(nrm(resid_g) / nrm(u_g[t0]))

    # boundary trace of the assembled map against the datum
    hmax = float(np.max(np.abs(h(np.linspace(0.0, 2.0, 401)))))
    x_wall = np.array([1.0e-3])
    trace_errs = {}
    for t in (0.25, 0.5, 1.0, 1.5, 2.0):
        val = float((green.apply(x_wall, t)
                     + kernel.apply_convolution(h, x_wall, t))[0])
        trace_errs[t] = abs(val - float(h(np.array([t]))[0])) / hmax
    trace_max = max(trace_errs.values())

    elapsed = time.perf_counter() - t_start
    assert elapsed < 300.0, f"arbiter took {elapsed:.0f}s (budget 300s)"

    problems = []
    if not ratio < 1.0e-2:
        problems.append(
            f"interior residual ||du/dt + H d2u/dx2|| / ||u|| = {ratio:.3f} "
            f">= 1e-2 at 50 stencil points (t={t0}).  The datum-only part "
            f"of the map passes the identical arbiter at {ratio_g:.1e}; the "
            "excess is the wall layer of the boundary convolution, whose "
            "slowly decaying curvature feeds the Hilbert transform across "
            "the whole window.")
    if not trace_max < 0.05:
        per_t = ", ".join(f"t={t:g}: {e:.4f}" for t, e in trace_errs.items())
        problems.append(
            f"boundary trace error max_t |u(0+,t) - h(t)| / max|h| = "
            f"{trace_max:.4f} >= 0.05 ({per_t}).  Consistent with the "
            "wall-trace surplus of the convolution kernel: its profile-side "
            "trace constant reads 1.058 instead of 1.")
    assert not problems, "\n".join(problems)


def test_criterion_07_picard_contraction(solution):
    """Successive Picard steps contract by >= 1/2; fixed point residual."""
    sol, elapsed = solution
    assert elapsed < 900.0, f"Picard solve took {elapsed:.0f}s (budget 900s)"
    assert sol.converged and not sol.aborted
    ratios = [float(r) for r in sol.contraction_ratios]
    assert ratios, "no contraction ratios recorded"
    bad = [f"step {i + 1}/{i}: {r:.3f}" for i, r in enumerate(ratios)
           if r > 0.5]
    assert not bad, "contraction ratio above 1/2: " + "; ".join(bad)
    resid = float(sol.fixed_point_residual_rel)
    assert resid < 1.0e-3, (
        f"fixed-point residual {resid:.2e} >= 1e-3 in the space-time norm")


def test_criterion_08_cross_validation(cfg, solution):
    """Contour solution vs method of lines: relative L^2 < 1e-2 at t = 1."""
    sol, _ = solution
    start = time.perf_counter()
    poly_cfg = cfg.replace(psi_profile="poly_exp")
    runs = {cfg.psi_profile: (cfg, sol),
            "poly_exp": (poly_cfg, picard_solve(poly_cfg))}
    xvs = {label: cross_validate(run_cfg, t_compare=1.0, solution=run_sol)
           for label, (run_cfg, run_sol) in runs.items()}
    elapsed = time.perf_counter() - start
    assert elapsed < 900.0, f"cross-validation took {elapsed:.0f}s (budget 900s)"
    problems = []
    for label, xv in xvs.items():
        drift = xv["reference"]["l2_drift"]
        assert runs[label][1].converged, f"{label}: Picard did not converge"
        assert drift < 0.5, (
            f"{label}: reference run lost {drift:.3f} of its mass")
        if not xv["rel_l2"] <= 1.0e-2:
            problems.append(
                f"{label}: rel L^2 gap {xv['rel_l2']:.4f} >= 1e-2 at t=1 "
                f"(contour-solution norm {xv['picard_norm']:.4f}, "
                f"method-of-lines norm {xv['mol_norm']:.4f}, reference "
                f"drift {drift:.3f})")
    assert not problems, (
        "\n".join(problems) + "\nThe gap is the t = 0 defect of the "
        "linear datum map: ||G_2(0)psi||/||psi|| reads 0.622 (gauss_bump) "
        "and 0.465 (poly_exp), where G(0)psi = psi needs 0.  It is present "
        "with h = 0 and without Duhamel.")


def test_criterion_09_growth_envelopes(cfg, solution):
    """H^1 stays bounded on the late window; weighted norm grows affinely."""
    sol, _ = solution
    half = HalfLineGrid(x_max=cfg.x_max, n=cfg.n_x)
    times = np.asarray(sol.times)
    pos = times > 0.0
    ts = times[pos]
    h1 = np.hypot(half.l2_norm(sol.values), half.l2_norm(sol.derivs))[pos]
    wnorm = half.weighted_norm(sol.values, 1.0)[pos]

    late = ts >= cfg.t_switch
    fit1 = fit_affine(ts[late], np.log(h1[late]))
    m1 = float(np.max(h1))
    assert np.isfinite(m1) and m1 > 0.0
    assert fit1.ci_low <= 0.0, (
        f"H^1 norm keeps growing after the forcing peak: late-window slope "
        f"CI [{fit1.ci_low:.3f}, {fit1.ci_high:.3f}] excludes zero "
        f"(sup H^1 = {m1:.4f})")

    fit2 = fit_affine(ts, np.log(wnorm))
    shift = float(np.max(np.log(wnorm) - fit2.predict(ts)))
    assert fit2.residual_max <= 1.0, (
        f"log of the weighted norm is not affine within one log unit "
        f"(max residual {fit2.residual_max:.3f})")
    assert shift <= 0.5, (
        f"one-sided affine envelope needs an upward shift of {shift:.3f} "
        "log units (> 0.5)")


def test_criterion_10_convolution_and_weights(selfcheck_report):
    """Convolution exponent delta within 0.1; A_2 and weighted Hilbert stable."""
    report, elapsed = selfcheck_report
    rows = _block(report, "convolution") + _block(report, "weights")
    assert len([r for r in rows if r.block == "convolution"]) >= 3
    names = {r.name for r in rows}
    assert "a2-characteristic-stability" in names
    assert "weighted-hilbert-uniformity" in names
    bad = _failures(rows)
    assert not bad, "calibration checks failed: " + "; ".join(bad)
    assert elapsed < 120.0, f"selfcheck took {elapsed:.1f}s (budget 120s)"
