"""Boundary-data operator: self-similar kernel, exact decay rates, and the
causal convolution, cross-checked against independent quadrature routes.

The parameter-free Dirichlet-trace identity (2 int W(X)/X dX = 1) is the
variant selector for the boundary symbol; its measured value, the kernel's
exact power-law norms, and the convolution's limiting branches are all pinned
here.  Known defects (the nonvanishing profile value at X = 0+, the
early-time gap between the convolution and spectral routes) are asserted at
their measured size.
"""

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from bo_halfline.boundary import BoundaryKernel
from bo_halfline.contour import log_graded_nodes
from bo_halfline.halfline import make_profile
from bo_halfline.report import fit_loglog
from bo_halfline import symbols
from bo_halfline.symbols import PSI_B_VARIANT, Symbols

TRACE_SIDE = 1.058140042274518


# ---------------------------------------------------------------------------
# Kernel norms: exact power laws


class TestKernelNorms:
    def test_decay_exponents_exact(self, boundary_op):
        # ||H(., sigma)|| = sigma^{-(3+2d)/4} ||profile|| by self-similarity,
        # so the fitted log-log slope is exact to quadrature roundoff.
        sig = np.logspace(-1, 2, 10)
        for d, want in ((0, -0.75), (1, -1.25)):
            vals = np.array([boundary_op.kernel_l2(s, d) for s in sig])
            fit = fit_loglog(sig, vals)
            assert abs(fit.slope - want) < 1e-6, d

    def test_norm_against_direct_quadrature(self, boundary_op):
        # Independent route: dense trapezoid over the kernel itself plus the
        # analytic c/x tail beyond the window (measured gap 7.3e-4).
        x = np.linspace(1e-3, 300.0, 40001)
        vals = boundary_op.kernel(x, 5.0)
        tail = vals[-1] ** 2 * x[-1]
        quad = np.sqrt(np.trapezoid(vals**2, x) + tail)
        want = boundary_op.kernel_l2(5.0)
        assert abs(quad - want) / want < 5e-3

    def test_norm_value_pinned(self, boundary_op):
        assert boundary_op.kernel_l2(5.0) == \
            pytest.approx(0.04481757218115744, rel=1e-9)

    def test_orders_share_one_evaluation(self, boundary_op):
        # both orders come from one piecewise cubic: each order of a lattice
        # call is bitwise its one-order call, and on the table's range
        # bitwise the cubic spline of that order's own table
        X = np.geomspace(1e-4, 1e4, 301)
        both = boundary_op.profile(X, (0, 1))
        assert both.shape == (2, X.size)
        table = boundary_op._X_grid[1:]
        mid = (X >= boundary_op.X_MIN) & (X <= boundary_op.X_MAX)
        assert 0 < mid.sum() < X.size
        for d in (0, 1):
            assert np.array_equal(both[d], boundary_op.profile(X, d))
            spline = CubicSpline(np.log(table), boundary_op._tables[d][1:])
            assert np.array_equal(both[d][mid], spline(np.log(X[mid])))
        x = np.array([[0.5], [2.0], [7.0]])
        sigma = np.geomspace(1e-3, 3.0, 5)[None, :]
        kern = boundary_op.kernel(x, sigma, (0, 1))
        assert kern.shape == (2, 3, 5)
        for d in (0, 1):
            assert np.array_equal(kern[d], boundary_op.kernel(x, sigma, d))

    def test_self_similar_scaling(self, boundary_op):
        # H(x, sigma) = sigma^{-1} profile(x sigma^{-1/2}) directly.
        x = np.array([0.5, 2.0, 7.0])
        sigma = 3.7
        direct = boundary_op.profile(x / np.sqrt(sigma)) / sigma
        assert np.max(np.abs(boundary_op.kernel(x, sigma) - direct)) == 0.0


# ---------------------------------------------------------------------------
# Dirichlet-trace identity (variant selector)


class TestTraceIdentity:
    def test_profile_side_near_one(self, boundary_op):
        side = boundary_op.trace_profile_side()
        assert side == pytest.approx(TRACE_SIDE, abs=1e-9)
        assert abs(side - 1.0) <= 0.1

    def test_identity_selects_production_variant(self, cfg, monkeypatch):
        # The trace identity discriminates the three boundary-symbol
        # variants: 1.058 / 1.441 / 0.174.  Production must be the variant
        # closest to the exact value 1.  Each variant gets fresh symbols.
        sides = {}
        for v in ("derived", "display", "polar"):
            monkeypatch.setattr(symbols, "PSI_B_VARIANT", v)
            sides[v] = BoundaryKernel(Symbols(cfg)).trace_profile_side()
        best = min(sides, key=lambda v: abs(sides[v] - 1.0))
        assert best == PSI_B_VARIANT == "derived"
        assert sides["display"] == pytest.approx(1.4408, abs=1e-3)
        assert sides["polar"] == pytest.approx(0.1739, abs=1e-3)

    def test_profile_wall_value_defect_pinned(self, boundary_op):
        # W(0+) should vanish; measured 0.0503.  This is the boundary-layer
        # face of the lattice closure defect and makes the trace integral
        # window-dependent (2 W(0) ln 10 per decade), so it is pinned.
        val = float(boundary_op.profile(np.array([1e-4]))[0])
        assert val == pytest.approx(0.0503, rel=5e-2)


# ---------------------------------------------------------------------------
# Causal convolution route


class TestConvolution:
    def test_causality(self, boundary_op, data_h):
        x = np.array([0.5, 2.0])
        assert np.max(np.abs(boundary_op.apply_convolution(data_h, x, 0.0))) == 0.0
        assert np.max(np.abs(boundary_op.apply_convolution(data_h, x, -1.0))) == 0.0

    def test_zero_data(self, boundary_op):
        zero = lambda tt: np.zeros_like(np.asarray(tt, dtype=float))
        got = boundary_op.apply_convolution(zero, np.array([0.5, 2.0]), 1.5)
        assert np.max(np.abs(got)) == 0.0

    def test_wall_limit_branches(self, boundary_op, data_h):
        # x -> 0 limits are exact: the Dirichlet trace constant times h(t)
        # for the value, zero for the slope.
        wall = boundary_op.apply_convolution(data_h, np.array([1e-9]), 1.5)[0]
        want = boundary_op.trace_profile_side() * float(data_h(np.array([1.5]))[0])
        assert wall == want
        wall1 = boundary_op.apply_convolution(data_h, np.array([1e-9]), 1.5,
                                              deriv=1)[0]
        assert wall1 == 0.0

    def test_against_direct_time_quadrature(self, boundary_op, data_h):
        # Independent oracle: plain log-graded sigma quadrature of
        # int H(x, sigma) h(t - sigma) dsigma (measured rel gap 1.2e-5).
        xs = np.array([0.5, 1.0, 2.0, 5.0])
        t = 2.0
        sg, wsg = log_graded_nodes(1e-10 * t, t, 64)
        hmat = np.stack([boundary_op.kernel(xs, s) for s in sg], axis=1)
        direct = hmat @ (wsg * np.asarray(data_h(t - sg), dtype=float))
        prod = boundary_op.apply_convolution(data_h, xs, t)
        assert np.max(np.abs(direct - prod) / np.abs(prod)) < 1e-3

    def test_broadcast_kernel_matches_per_sigma_stack(self, boundary_op,
                                                      data_h, monkeypatch):
        # apply_convolution evaluates H on the (x, sigma) grid for every
        # order in one call; the oracle answers that call one sigma column
        # at a time
        xs = np.array([1e-3, 0.5, 1.0, 2.0, 5.0, 40.0])
        kernel = boundary_op.kernel
        got = {(t, d): boundary_op.apply_convolution(data_h, xs, t, deriv=d)
               for t in (0.01, 0.5, 2.0) for d in (0, 1)}

        def stacked(x, sigma, deriv=0):
            return np.stack([kernel(x[:, 0], s, deriv) for s in sigma[0]],
                            axis=-1)

        monkeypatch.setattr(boundary_op, "kernel", stacked)
        for (t, d), vals in got.items():
            want = boundary_op.apply_convolution(data_h, xs, t, deriv=d)
            assert np.max(np.abs(vals - want)) <= 1e-13 * np.max(np.abs(want))

    def test_lattice_call_matches_one_node_calls(self, boundary_op, data_h):
        # one call over several times, one of them t <= 0, and both orders
        # gives the one-node calls row by row; a scalar t keeps shape(x)
        xs = np.array([1e-9, 1e-3, 0.5, 1.0, 2.0, 5.0, 40.0])
        times = np.array([-0.5, 0.0, 0.01, 0.5, 2.0])
        got = boundary_op.apply_convolution(data_h, xs, times, (0, 1))
        assert got.shape == (2, times.size, xs.size)
        want = np.array([[boundary_op.apply_convolution(data_h, xs, t, deriv=d)
                          for t in times] for d in (0, 1)])
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
        assert np.all(got[:, :2] == 0.0)
        assert boundary_op.apply_convolution(data_h, xs, 2.0).shape == xs.shape
        assert boundary_op.apply_convolution(data_h, xs, 2.0, (0, 1)).shape \
            == (2, xs.size)

    def test_lag_set_is_self_similar(self):
        # the convolution scales one unit lag set by t; the per-t log-graded
        # set it replaces matches it to round-off
        sig1, w1 = log_graded_nodes(1e-12, 1.0, 16)
        for t in (1e-3, 0.37, 2.0, 128.0):
            sig, w = log_graded_nodes(1e-12 * t, t, 16)
            assert np.max(np.abs(t * sig1 - sig) / sig) <= 2e-15
            assert np.max(np.abs(t * w1 - w) / w) <= 2e-15

    def test_field_values_regression(self, boundary_op, data_h):
        xs = np.array([0.5, 1.0, 2.0, 5.0])
        want_half = np.array([0.00775169, 0.0045522, 0.00220174, 0.00075593])
        want_two = np.array([0.01237746, 0.00944657, 0.00604588, 0.00237126])
        got_half = boundary_op.apply_convolution(data_h, xs, 0.5)
        got_two = boundary_op.apply_convolution(data_h, xs, 2.0)
        assert np.max(np.abs(got_half - want_half)) < 1e-7
        assert np.max(np.abs(got_two - want_two)) < 1e-7


# ---------------------------------------------------------------------------
# Spectral route (cross-form)


class TestSpectralRoute:
    # The spectral route requires data with an entire transform; the
    # production ramp datum has a transform pole at -1 and is not a valid
    # input here, so these checks use the entire-transform bump datum.

    def test_late_time_cross_form_agreement(self, boundary_op, cfg):
        # Reads 0.0045.  The bound measures the p grid as much as the two
        # routes: the spectral route on its own 330-node p grid read 0.0080,
        # on the Green layout's 331 nodes over the same range 0.0045, so a
        # p-refinement ladder of this gap must come before it judges either.
        gh = make_profile("gauss_bump", cfg.data_scale)
        xg = np.linspace(0.5, 10.0, 20)
        conv = boundary_op.apply_convolution(gh, xg, 10.0)
        spec = boundary_op.apply_spectral(gh.hat, xg, 10.0)
        rel = np.max(np.abs(conv - spec)) / np.max(np.abs(conv))
        assert rel < 1e-2

    def test_early_time_gap_pinned(self, boundary_op, cfg):
        # The two routes disagree at early times (measured 0.636 at t = 0.5,
        # 0.063 at t = 2): the spectral assembly misses the early-time
        # transient — the same E-layer closure defect seen at the wall.
        # Pinned as a measured discrepancy, not weakened into a pass.
        gh = make_profile("gauss_bump", cfg.data_scale)
        xg = np.linspace(0.5, 10.0, 20)
        gaps = []
        for t in (0.5, 2.0):
            conv = boundary_op.apply_convolution(gh, xg, t)
            spec = boundary_op.apply_spectral(gh.hat, xg, t)
            gaps.append(np.max(np.abs(conv - spec)) / np.max(np.abs(conv)))
        assert gaps[0] == pytest.approx(0.636, abs=0.05)
        assert gaps[1] == pytest.approx(0.063, abs=0.02)
        assert gaps[0] > gaps[1]  # the defect is transient: it relaxes in t

    def test_lattice_call_matches_one_node_calls(self, boundary_op, cfg):
        # one call over several times, two of them t <= 0, and both orders
        # gives the one-node calls row by row.  Not bitwise: the field map's
        # matrix product rounds with the number of rows it is given
        # (measured 1.3e-15 relative), as in the Green operator's lattice.
        gh = make_profile("gauss_bump", cfg.data_scale)
        xs = np.array([0.5, 1.0, 2.0, 5.0, 10.0])
        times = np.array([-0.5, 0.0, 0.5, 2.0, 10.0])
        got = boundary_op.apply_spectral(gh.hat, xs, times, (0, 1))
        assert got.shape == (2, times.size, xs.size)
        want = np.array([[boundary_op.apply_spectral(gh.hat, xs, t, d)
                          for t in times] for d in (0, 1)])
        for i in (0, 1):
            scale = np.max(np.abs(want[i]))
            assert np.max(np.abs(got[i] - want[i])) <= 1e-13 * scale
        assert np.all(got[:, :2] == 0.0)
        assert boundary_op.apply_spectral(gh.hat, xs, 2.0).shape == xs.shape

    def test_slope_matches_centred_differences(self, boundary_op, cfg):
        # order 1 against centred differences of order 0; the gap is the
        # piecewise-linear kernel model of p K against p times that of K
        # (measured 1.3e-3 to 1.8e-3 from t = 0.5 to 10), not the step size
        gh = make_profile("gauss_bump", cfg.data_scale)
        xs = np.array([0.5, 1.0, 2.0, 5.0, 10.0])
        times = [0.5, 2.0, 10.0]
        h = 1e-4
        fd = (boundary_op.apply_spectral(gh.hat, xs + h, times)
              - boundary_op.apply_spectral(gh.hat, xs - h, times)) / (2 * h)
        an = boundary_op.apply_spectral(gh.hat, xs, times, 1)
        rel = np.max(np.abs(fd - an), axis=1) / np.max(np.abs(an), axis=1)
        assert np.all(rel < 5e-3)


# ---------------------------------------------------------------------------
# Spectral kernel: the principal-value oracle and causality


def _unit_spectral_kernel(boundary_op, name):
    return boundary_op.spectral_kernel(make_profile(name, 1.0).hat)


class TestSpectralKernel:
    @pytest.mark.parametrize("name", ["ramp_exp", "gauss_bump"])
    def test_dual_route_agreement(self, boundary_op, name):
        # the ray lattice's K_B against the principal-value route on the
        # imaginary axis, on every 8th Green p node in (0.2, 20).  Largest
        # gaps relative to the oracle's max, t = 0.25 / 0.5 / 1 / 2: ramp_exp
        # 1.4e-4 / 5.4e-4 / 4.9e-4 / 1.4e-3, gauss_bump 1.5e-4 / 4.2e-4 /
        # 4.3e-4 / 2.1e-3
        ker = _unit_spectral_kernel(boundary_op, name)
        p_all = ker.p_nodes
        sel = p_all[(p_all > 0.2) & (p_all < 20.0)][::8]
        times = (0.25, 0.5, 1.0, 2.0)
        for t, k_ref in zip(times, ker.kernel_axis_reference(times, sel)):
            k_lat = np.interp(sel, p_all, ker.kernel(t))
            assert np.max(np.abs(k_lat - k_ref)) / np.max(np.abs(k_ref)) < 3e-3

    @pytest.mark.parametrize("name", ["ramp_exp", "gauss_bump"])
    def test_dual_route_control_rejects_full_residue(self, boundary_op, name):
        # full residues with the principal value move the oracle far from
        # the lattice (measured 0.60 for ramp_exp, 0.41 for gauss_bump at
        # t = 1), so the agreement above is discriminating
        ker = _unit_spectral_kernel(boundary_op, name)
        p_all = ker.p_nodes
        sel = p_all[(p_all > 0.2) & (p_all < 20.0)][::8]
        k_lat = np.interp(sel, p_all, ker.kernel(1.0))
        k_ctl = ker.kernel_axis_reference(1.0, sel, bracket_coefficient=0.5 / 1j)
        assert np.max(np.abs(k_lat - k_ctl)) / np.max(np.abs(k_ctl)) > 0.1

    @pytest.mark.parametrize("name, ratio", [("ramp_exp", 0.564),
                                             ("gauss_bump", 0.333)])
    def test_causality_defect_pinned(self, boundary_op, name, ratio):
        # A transform analytic in Re s > 0 inverts to zero at t < 0
        # (Titchmarsh), so a causal K_B reads near 0 here; the Green side's
        # trivial-factor control reads below 3e-3.  The boundary transform
        # is not causal: max |K_B| over t < 0 is a third to a half of its max
        # over t > 0.  Pinned as a finding, not weakened into a pass.
        ker = _unit_spectral_kernel(boundary_op, name)
        p = np.geomspace(0.2, 20.0, 25)
        times = np.array([-0.05, -0.1, -0.25, -0.5, 0.25, 0.5, 1.0])
        table = np.abs(ker.kernel_axis_reference(times, p))
        got = np.max(table[times < 0.0]) / np.max(table[times > 0.0])
        assert got == pytest.approx(ratio, rel=1e-2)
        assert got > 0.1
