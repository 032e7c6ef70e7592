"""Nonlinear Picard/Duhamel solver: time lattice, solution norm, iteration
behavior, and the finite-difference cross-validation harness.

The solves here run on a reduced configuration (fast_cfg) so the whole module
stays under a minute; the production-resolution numbers live in the
acceptance suite.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from bo_halfline.config import ConfigError
from bo_halfline.green import fresnel_weights
from bo_halfline.halfline import HalfLineGrid, cpu_workers, make_profile
from bo_halfline.solver import (DuhamelPropagator, TimeGrid, XNorm,
                                advective_forcing, cross_validate,
                                picard_solve)
from bo_halfline.symbols import Symbols


@pytest.fixture(scope="module")
def solution(fast_cfg):
    return picard_solve(fast_cfg)


# ---------------------------------------------------------------------------
# Time lattice


class TestTimeGrid:
    def test_structure(self):
        tg = TimeGrid(2.0, 1.0, 64, 64)
        assert tg.n == 129
        assert tg.nodes[0] == 0.0
        assert tg.nodes[1] == pytest.approx(1e-3, rel=1e-12)  # geometric floor
        assert tg.nodes[-1] == 2.0
        assert np.all(np.diff(tg.nodes) > 0.0)

    def test_switch_node_is_exact(self):
        tg = TimeGrid(2.0, 1.0, 64, 64)
        assert tg.index_of(1.0) == 64
        assert tg.nodes[64] == 1.0

    def test_index_of_rejects_off_node_time(self):
        tg = TimeGrid(2.0, 1.0, 64, 64)
        with pytest.raises(ValueError, match="not a lattice node"):
            tg.index_of(0.123456)

    def test_quadrature_weights_integrate_one(self):
        tg = TimeGrid(2.0, 1.0, 64, 64)
        for k in (1, 10, 64, 128):
            w = tg.weights_upto(k)
            assert w.size == k + 1
            assert np.sum(w) == pytest.approx(tg.nodes[k], rel=1e-13)
        assert np.array_equal(tg.weights_upto(0), np.zeros(1))

    def test_degenerate_switch_collapses_to_geometric(self):
        tg = TimeGrid(1.0, 2.0, 16, 16)  # switch beyond final
        assert tg.n == 17
        assert tg.nodes[-1] == 1.0

    def test_single_geometric_node_is_the_switch(self):
        # a one-point geomspace is its start, 1e-3 t_switch; the switch
        # node must be kept instead
        assert np.array_equal(TimeGrid(2.0, 1.0, 1, 1).nodes, [0.0, 1.0, 2.0])
        assert np.array_equal(TimeGrid(1.0, 1.0, 1, 4).nodes, [0.0, 1.0])


# ---------------------------------------------------------------------------
# Solution norm


class TestXNorm:
    def test_hand_value(self):
        hg = HalfLineGrid(x_max=30.0, n=96)
        x = hg.nodes
        times = np.array([0.0, 3.0])
        v = np.stack([np.exp(-x), 2.0 * np.exp(-x)])
        d = np.stack([np.zeros_like(x), x * np.exp(-x)])
        got = XNorm(hg, times)(v, d)
        b = np.sqrt(1.0 + 9.0)
        want = max(hg.l2_norm(v[0]),
                   b**0.25 * hg.l2_norm(v[1]) + b**0.75 * hg.l2_norm(d[1]))
        assert got == pytest.approx(want, rel=1e-12)

    def test_zero_field(self):
        hg = HalfLineGrid(x_max=30.0, n=96)
        z = np.zeros((2, hg.nodes.size))
        assert XNorm(hg, np.array([0.0, 1.0]))(z, z) == 0.0


def test_advective_forcing_is_pointwise_product():
    v = np.array([[1.0, -2.0], [0.5, 3.0]])
    d = np.array([[2.0, 0.25], [-1.0, 1.0]])
    assert np.array_equal(advective_forcing(v, d), v * d)


# ---------------------------------------------------------------------------
# Picard iteration


class TestPicard:
    def test_converges_on_small_data(self, solution):
        assert solution.converged and not solution.aborted
        assert solution.n_iter == 2

    def test_contraction_ratios_below_half(self, solution):
        # Measured single ratio 0.020: the Duhamel map is strongly
        # contractive at this data size.
        assert solution.contraction_ratios
        assert all(r <= 0.5 for r in solution.contraction_ratios)

    def test_fixed_point_residual(self, solution):
        # One extra sweep moves the solution by < 1e-4 of its X-norm
        # (measured 6.5e-6).
        assert solution.fixed_point_residual_rel < 1e-4

    def test_initial_row_is_datum_exactly(self, solution, fast_cfg):
        psi = make_profile(fast_cfg.psi_profile, fast_cfg.data_scale)
        assert np.array_equal(solution.values[0], psi(solution.x))
        assert np.array_equal(solution.linear_values[0], psi(solution.x))

    def test_boundary_trace_transient_pinned(self, solution):
        # Max trace error over all t > 0 nodes, measured 0.0092 = 25% of
        # max h: the geometric lattice starts at t = 1e-3, deep inside the
        # early wall transient of the linear assembly.  Pinned, not hidden.
        max_h = np.max(np.abs(solution.boundary_values))
        assert solution.trace_error == pytest.approx(9.15e-3, rel=0.05)
        assert solution.trace_error < 0.3 * max_h

    def test_zero_data_shortcut(self, fast_cfg):
        sol = picard_solve(fast_cfg.replace(data_scale=0.0))
        assert sol.converged and not sol.aborted
        assert sol.n_iter == 0
        assert sol.fixed_point_residual == 0.0
        assert sol.solution_xnorm == 0.0
        assert np.max(np.abs(sol.values)) == 0.0

    def test_stage_timings_in_meta(self, solution):
        meta = solution.meta
        assert meta["workers"] == cpu_workers()
        for key in ("linear_lattice_s", "propagator_build_s"):
            assert math.isfinite(meta[key]) and meta[key] >= 0.0
        # one entry per Picard sweep plus the residual sweep
        for key in ("transform_forcing_s", "accumulate_s", "sweep_s"):
            assert len(meta[key]) == solution.n_iter + 1
            assert all(math.isfinite(v) and v >= 0.0 for v in meta[key])
        for tf, acc, sweep in zip(meta["transform_forcing_s"],
                                  meta["accumulate_s"], meta["sweep_s"]):
            assert tf + acc <= sweep + 1e-9   # the sweep adds its X-norm

    def test_stage_peak_rss_in_meta(self, solution):
        # the process peak after each stage: positive and never falling
        meta = solution.meta
        peaks = [meta["linear_lattice_peak_rss_mb"],
                 meta["propagator_build_peak_rss_mb"],
                 *meta["sweep_peak_rss_mb"]]
        assert len(peaks) == solution.n_iter + 3
        assert peaks[0] > 0.0 and peaks == sorted(peaks)

    def test_large_data_aborts(self, fast_cfg):
        # At 200x the production amplitude the iteration diverges; the
        # solver must detect it and say so rather than return garbage.  At
        # 1e152 the first sweep's free running sum overflows, and at 1e200
        # the first forcing u u_x itself: both must abort the same way
        # rather than raise from a spline.
        for scale in (20.0, 1.0e152, 1.0e200):
            sol = picard_solve(fast_cfg.replace(data_scale=scale))
            assert sol.aborted and not sol.converged
            assert np.isnan(sol.fixed_point_residual)
        assert sol.n_iter == 1


# ---------------------------------------------------------------------------
# Solution accessors


class TestAccessors:
    def test_row_and_at_time(self, solution):
        t = solution.times[5]
        vals, ders = solution.at_time(t)
        assert np.array_equal(vals, solution.values[5])
        assert np.array_equal(ders, solution.derivs[5])
        with pytest.raises(ValueError, match="not a lattice node"):
            solution.at_time(solution.times[5] * 1.0001 + 0.01)

    def test_interpolate_reproduces_lattice(self, solution):
        t = solution.times[-1]
        got = solution.interpolate(solution.x, t)
        assert np.max(np.abs(got - solution.values[-1])) < 1e-12

    def test_norm_history_kinds(self, solution, fast_cfg):
        grid = HalfLineGrid(x_max=fast_cfg.x_max, n=fast_cfg.n_x)
        l2 = solution.norm_history(grid, "l2")
        h1 = solution.norm_history(grid, "h1")
        wt = solution.norm_history(grid, "weighted", weight_power=1.0)
        assert l2.shape == solution.times.shape
        assert np.all(h1 >= l2)        # h1 adds the derivative in quadrature
        assert np.all(wt >= l2)        # the weight is >= 1
        with pytest.raises(ValueError, match="unknown norm kind"):
            solution.norm_history(grid, "sobolev")

    def test_norm_history_is_per_row_norm(self, solution, fast_cfg):
        # the lattice norms are the one-row norms, node by node: the same
        # sums for l2 and weighted, np.hypot for math.hypot in h1 (one ulp)
        grid = HalfLineGrid(x_max=fast_cfg.x_max, n=fast_cfg.n_x)
        want = {"l2": [], "h1": [], "weighted": []}
        for v, d in zip(solution.values, solution.derivs):
            assert isinstance(grid.l2_norm(v), float)
            want["l2"].append(grid.l2_norm(v))
            want["h1"].append(math.hypot(grid.l2_norm(v), grid.l2_norm(d)))
            want["weighted"].append(grid.weighted_norm(v, 1.0))
        for kind, rtol in (("l2", 0.0), ("h1", 1e-15), ("weighted", 0.0)):
            got = solution.norm_history(grid, kind, weight_power=1.0)
            np.testing.assert_allclose(got, want[kind], rtol=rtol, atol=0.0)

    def test_form_discrepancy_is_max_over_rows(self, solution, fast_cfg):
        # the lattice figure against its node-by-node loop
        grid = HalfLineGrid(x_max=fast_cfg.x_max, n=fast_cfg.n_x)
        num = den = 0.0
        for v, d in zip(solution.values, solution.derivs):
            adv = v * d
            div = 0.5 * np.gradient(v**2, grid.nodes)
            num = max(num, float(np.sqrt((adv - div) ** 2 @ grid.quad_weights)))
            den = max(den, float(np.sqrt(adv**2 @ grid.quad_weights)))
        assert solution.form_discrepancy == pytest.approx(num / den, rel=1e-14)

    def test_form_discrepancy_is_finite_figure(self, solution):
        # u u_x vs (1/2)(u^2)_x with an independent finite-difference
        # derivative; O(1) on the lattice (measured 0.86) because the
        # analytic derivative route resolves the wall layer the coarse
        # gradient cannot.  A figure, not a pass/fail oracle.
        assert np.isfinite(solution.form_discrepancy)
        assert solution.form_discrepancy == pytest.approx(0.86, abs=0.15)


# ---------------------------------------------------------------------------
# Cross-validation harness


class TestCrossValidate:
    def test_reuses_supplied_solution(self, fast_cfg, solution):
        out = cross_validate(fast_cfg, t_compare=1.0, solution=solution)
        assert set(out) == {"rel_l2", "mol_norm", "picard_norm", "reference"}
        ref = out["reference"]
        assert ref["n"] == fast_cfg.mol_n and ref["n_steps"] == 1000
        assert 0.0 <= ref["l2_drift"] < 0.5
        assert ref["spectral_radius"] <= 1.0 + 1e-9

    def test_reduced_resolution_gap_pinned(self, fast_cfg, solution):
        # The two arms agree on the overall size but not pointwise at this
        # resolution: measured rel L2 gap 0.607 at t = 1 with norms
        # 0.0454 (finite differences) vs 0.0448 (Picard).  The production
        # number lives in the acceptance suite; this pins the harness.
        out = cross_validate(fast_cfg, t_compare=1.0, solution=solution)
        assert out["rel_l2"] == pytest.approx(0.607, abs=0.05)
        assert out["mol_norm"] == pytest.approx(0.0454, abs=0.003)
        assert out["picard_norm"] == pytest.approx(0.0448, abs=0.003)


# ---------------------------------------------------------------------------
# Duhamel propagator against direct quadrature


@pytest.fixture(scope="module")
def propagator(fast_cfg):
    half = HalfLineGrid(x_max=fast_cfg.x_max, n=fast_cfg.n_x)
    times = TimeGrid(fast_cfg.t_final, fast_cfg.t_switch,
                     fast_cfg.n_time_geometric, fast_cfg.n_time_uniform)
    return DuhamelPropagator(Symbols(fast_cfg), half, times)


@pytest.fixture(scope="module")
def decaying_forcing(fast_cfg, propagator):
    """psi(x) e^{-t} psi'(x) e^{-t} on the lattice: nonzero at every node."""
    psi = make_profile(fast_cfg.psi_profile, fast_cfg.data_scale)
    xs = propagator.half.nodes
    decay = np.exp(-propagator.times.nodes)[:, None]
    return advective_forcing(decay * psi(xs), decay * psi.deriv(xs))


def _memory_sum_double_loop(prop, lat):
    """The memory integral's kernel part summed directly over every
    (t_k, tau_l) pair, l < k: O(n_t^2) damping and Filon builds."""
    times, layout = prop.times, prop.layout
    nodes, p = times.nodes, layout.p_nodes
    out = np.zeros((2, times.n, prop.half.nodes.size))
    for k in range(times.n):
        w = times.weights_upto(k)
        acc = np.zeros_like(layout.sp2)
        w_brk = np.zeros(p.size, dtype=complex)
        k0_brk = 0.0j
        for ell in range(k):
            sigma = nodes[k] - nodes[ell]
            acc += w[ell] * lat.e_full[ell] * layout.damping(sigma)
            # the propagator stores its Filon table in single precision
            fw = fresnel_weights(p, sigma).astype(np.complex64)
            w_brk += w[ell] * lat.e_brk[ell] * fw
            k0_brk += w[ell] * lat.e_brk[ell, 0] * np.exp(1j * p[0]**2 * sigma)
        k_smooth = layout.ray.smooth(acc)
        k0 = k_smooth[0] + np.imag(k0_brk)
        for d in (0, 1):
            out[d, k] = prop.field(d, k_smooth, w_brk, k0)
    return out


class TestDuhamelPropagator:
    def test_recurrence_matches_double_loop(self, propagator, decaying_forcing):
        # a zero free part switches the free running sum off, leaving the
        # damped ray, bracket and p0 sums that the recurrence replaces
        lat = propagator.transform_forcing(decaying_forcing)
        lat = dataclasses.replace(lat, free=np.zeros_like(lat.free))
        got = propagator.accumulate(lat)
        want = _memory_sum_double_loop(propagator, lat)
        for d in (0, 1):
            scale = np.max(np.abs(want[d]))
            assert scale > 0.0
            assert np.max(np.abs(got[d] - want[d])) <= 1e-12 * scale

    def test_free_part_matches_per_node_evaluation(self, propagator,
                                                   decaying_forcing):
        # zero kernel lattices leave only the free running sum, which the
        # propagator evaluates on half spectra for the whole lattice in one
        # pass; here it is the full complex spectrum of each zero-extended
        # forcing row, one inverse FFT and one spline per (node, order)
        lat = propagator.transform_forcing(decaying_forcing)
        lat = dataclasses.replace(lat, e_full=np.zeros_like(lat.e_full),
                                  e_brk=np.zeros_like(lat.e_brk))
        got = propagator.accumulate(lat)
        whole, nodes = propagator.whole, propagator.times.nodes
        xs = propagator.half.nodes
        support = (whole.nodes >= 0.0) & (whole.nodes <= xs[-1])
        samples = np.zeros((nodes.size, whole.n))
        samples[:, support] = CubicSpline(xs, decaying_forcing, axis=1)(
            whole.nodes[support])
        xia = whole.xi * np.abs(whole.xi)
        spectra = np.fft.fft(samples, axis=1) * np.exp(1j * np.outer(nodes, xia))
        window = slice(whole.index_of(0.0) - 130, whole.index_of(xs[-1]) + 130)
        running = np.zeros(whole.n, dtype=complex)
        for k in range(nodes.size):
            if k > 0:
                running = running + 0.5 * (nodes[k] - nodes[k - 1]) \
                    * (spectra[k - 1] + spectra[k])
            spec = np.exp(-1j * xia * nodes[k]) * running
            for d in (0, 1):
                grid = np.fft.ifft(spec * (1j * whole.xi) ** d).real
                want = CubicSpline(whole.nodes[window], grid[window])(xs)
                scale = np.max(np.abs(got[d]))
                assert np.max(np.abs(got[d][k] - want)) <= 1e-12 * scale
        assert np.max(np.abs(got[0])) > 0.0

    @pytest.mark.parametrize("workers", [2, 3])
    def test_tensor_bitwise_for_any_worker_count(self, propagator,
                                                 set_workers, workers):
        cache = propagator.symbols.direction(propagator.layout.ray.phase)
        moduli = propagator.grids.ray[0][::6]
        set_workers(1)
        want = propagator._build_tensor(cache, moduli)
        set_workers(workers)
        for got, ref in zip(propagator._build_tensor(cache, moduli), want):
            assert np.array_equal(got, ref)

    def test_damping_table_is_per_step(self, propagator):
        nodes = propagator.times.nodes
        for k in range(1, nodes.size):
            want = propagator.layout.damping(nodes[k] - nodes[k - 1])
            got = propagator._damping[propagator._step_of[k - 1]]
            assert np.array_equal(got, want)
        assert len(propagator._damping) < nodes.size - 1

    def test_filon_table_is_per_gap_weights(self, propagator):
        # one table row per distinct gap, looked up through the index
        nodes = propagator.times.nodes
        p = propagator.layout.p_nodes
        table, row_of = propagator._fw, propagator._fw_of
        for k in range(nodes.size):
            for ell in range(k + 1):
                want = fresnel_weights(p, nodes[k] - nodes[ell])
                assert np.array_equal(table[row_of[k, ell]],
                                      want.astype(np.complex64))
        lower = row_of[np.tril_indices(nodes.size)]
        assert np.array_equal(np.unique(lower), np.arange(len(table)))
        # l > k points one past the table: any lookup there raises
        assert np.all(row_of[np.triu_indices(nodes.size, 1)] == len(table))
        with pytest.raises(IndexError):
            table[row_of[0, 1]]

    def test_transform_allocates_little_beyond_its_output(
            self, propagator, decaying_forcing):
        # one preallocated kernel lattice per sweep: the tracemalloc peak of
        # a call stays under twice the bytes it returns (2.7x when every
        # product was cast, scaled and concatenated in full-lattice copies)
        import tracemalloc
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            lat = propagator.transform_forcing(decaying_forcing)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        out = lat.free.nbytes + lat.e_full.nbytes + lat.e_brk.nbytes
        assert peak <= 2.0 * out

    def test_no_pairwise_lattice_but_the_index(self, propagator):
        # nothing the propagator keeps grows like n_t^2 n_p: the only
        # (n_t, n_t) array is the integer Filon index
        nt = propagator.times.n
        square = {name: a for name, a in vars(propagator).items()
                  if isinstance(a, np.ndarray) and a.shape[:2] == (nt, nt)}
        assert list(square) == ["_fw_of"]
        assert square["_fw_of"].ndim == 2
        assert np.issubdtype(square["_fw_of"].dtype, np.integer)

    def test_transform_fills_ray_and_tail_rows_of_one_lattice(
            self, propagator, decaying_forcing):
        # the ray rows, then the corner-model tail fitted to them, as the
        # old whole-lattice route built and concatenated them
        prop = propagator
        layout, nt = prop.layout, prop.times.n
        n_ray, n_p = layout.n_ray, layout.p_nodes.size
        lat = prop.transform_forcing(decaying_forcing)
        fc = decaying_forcing.astype(np.complex64)
        fz = prop._lap_axis @ fc.T
        e_ray = (prop._t_ray @ fz).T.astype(complex).reshape(nt, n_ray, n_p)
        scat = (prop._lap_scat_ray @ fc.T).T.astype(complex)
        e_ray -= prop._bt_ray[None, :, None] * scat.reshape(nt, n_ray, n_p)
        corner = e_ray[(Ellipsis,) + layout.corner].reshape(nt, -1)
        lam = corner @ layout._pinv.T
        tail = lam[:, 0, None, None] * layout._tail_b1 \
            + lam[:, 1, None, None] * layout._tail_b0
        assert np.array_equal(lat.e_full, np.concatenate([e_ray, tail], axis=1))


def test_solution_bitwise_for_any_worker_count(fast_cfg, solution,
                                               set_workers):
    # every split site at once: the linear lattice, the propagator build
    # and the sweeps, on one block against the CPUs of this machine
    set_workers(1)
    serial = picard_solve(fast_cfg)
    assert serial.meta["workers"] == 1
    for name in ("values", "derivs", "linear_values"):
        assert np.array_equal(getattr(serial, name), getattr(solution, name))
    assert serial.step_norms == solution.step_norms


class _NanPropagator:
    """Stand-in whose memory integral is NaN, so the first step is too."""

    def transform_forcing(self, forcing):
        return forcing

    def accumulate(self, forcing):
        nan = np.full_like(forcing, np.nan)
        return nan, nan


def test_non_finite_step_aborts(fast_cfg):
    sol = picard_solve(fast_cfg, propagator=_NanPropagator())
    assert sol.aborted and not sol.converged
    assert sol.n_iter == 1
    assert np.isnan(sol.fixed_point_residual)


def test_propagator_transport_guard(fast_cfg):
    # At t = 1e9 the forcing spectra would wrap round the [-64, 448) grid.
    half = HalfLineGrid(x_max=fast_cfg.x_max, n=fast_cfg.n_x)
    with pytest.raises(ConfigError, match="transport"):
        DuhamelPropagator(Symbols(fast_cfg), half, TimeGrid(1.0e9, 1.0, 4, 4))
