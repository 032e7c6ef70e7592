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

from bo_halfline.boundary import BoundaryKernel
from bo_halfline.config import ConfigError
from bo_halfline.green import GreenOperator, fresnel_weights
from bo_halfline.halfline import (HalfLineGrid, RampExp, cpu_workers,
                                  laplace_matrix, make_profile, node_index,
                                  trapezoid_weights)
from bo_halfline import solver
from bo_halfline.solver import (DUHAMEL_AXIS, SWEEP_CHUNK_RAYS,
                                DuhamelPropagator, TimeGrid, XNorm,
                                advective_forcing, cross_validate, kept_mb,
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
        assert node_index(tg.nodes, 1.0) == 64
        assert tg.nodes[64] == 1.0

    def test_index_of_rejects_off_node_time(self):
        tg = TimeGrid(2.0, 1.0, 64, 64)
        with pytest.raises(ValueError, match="not a lattice node"):
            node_index(tg.nodes, 0.123456)

    def test_quadrature_weights_integrate_one(self):
        tg = TimeGrid(2.0, 1.0, 64, 64)
        for k in (1, 10, 64, 128):
            w = trapezoid_weights(tg.nodes[:k + 1])
            assert w.size == k + 1
            assert np.sum(w) == pytest.approx(tg.nodes[k], rel=1e-13)
            # W_l does not depend on k for l < k
            assert np.array_equal(w[:k], tg.weights[:k])
        assert np.array_equal(tg.weights, trapezoid_weights(tg.nodes))
        assert np.array_equal(trapezoid_weights(tg.nodes[:1]), np.zeros(1))

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
        # the Duhamel integral vanishes at t = 0, so every iterate keeps
        # the linear lattice's row 0: psi and psi' bit for bit
        psi = make_profile(fast_cfg.psi_profile, fast_cfg.data_scale)
        assert np.array_equal(solution.values[0], psi(solution.x))
        assert np.array_equal(solution.derivs[0], psi.deriv(solution.x))

    def test_boundary_trace_transient_pinned(self, solution):
        # Max trace error over all t > 0 nodes, measured 0.0092 = 25% of
        # max h: the geometric lattice starts at t = 1e-3, deep inside the
        # early wall transient of the linear assembly.  Pinned, not hidden.
        max_h = np.max(np.abs(solution.boundary_values))
        assert solution.trace_error == pytest.approx(9.15e-3, rel=0.05)
        assert solution.trace_error < 0.3 * max_h

    def test_zero_data_shortcut(self, fast_cfg):
        # no shortcut: the forcing, the Duhamel lattice and the step are
        # exactly 0, so the general loop converges at its first sweep
        sol = picard_solve(fast_cfg.replace(data_scale=0.0))
        assert sol.converged and not sol.aborted
        assert sol.n_iter == 1
        assert sol.fixed_point_residual_rel == 0.0
        assert sol.solution_xnorm == 0.0
        assert np.max(np.abs(sol.values)) == 0.0

    def test_stage_timings_in_meta(self, solution):
        meta = solution.meta
        assert meta["workers"] == cpu_workers()
        for key in ("linear_lattice_s", "propagator_build_s"):
            assert math.isfinite(meta[key]) and meta[key] >= 0.0
        # one entry per Picard sweep plus the residual sweep
        for key in ("transform_forcing_s", "accumulate_s", "sweep_s",
                    "step_norm"):
            assert len(meta[key]) == solution.n_iter + 1
            assert all(math.isfinite(v) and v >= 0.0 for v in meta[key])
        # the residual sweep's step is the last
        assert (meta["step_norm"][-1] / solution.solution_xnorm
                == solution.fixed_point_residual_rel)
        for tf, acc, sweep in zip(meta["transform_forcing_s"],
                                  meta["accumulate_s"], meta["sweep_s"]):
            assert tf + acc <= sweep + 1e-9   # the sweep adds its X-norm

    def test_propagator_memory_in_meta(self, solution, propagator):
        assert solution.meta["propagator_mb"] == kept_mb(propagator) > 0.0

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
        # 1e152 the first forcing u u_x is past the single-precision range,
        # and at 1e200 it overflows: both must abort the same way rather
        # than raise from a spline.
        for scale in (20.0, 1.0e152, 1.0e200):
            sol = picard_solve(fast_cfg.replace(data_scale=scale))
            assert sol.aborted and not sol.converged
            assert np.isnan(sol.fixed_point_residual_rel)
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
def fast_sym(fast_cfg):
    return Symbols(fast_cfg)


@pytest.fixture(scope="module")
def propagator(fast_cfg, fast_sym):
    half = HalfLineGrid(x_max=fast_cfg.x_max, n=fast_cfg.n_x)
    times = TimeGrid(fast_cfg.t_final, fast_cfg.t_switch,
                     fast_cfg.n_time_geometric, fast_cfg.n_time_uniform)
    return DuhamelPropagator(fast_sym, half, times)


@pytest.fixture(scope="module")
def decaying_forcing(fast_cfg, propagator):
    """psi(x) e^{-t} psi'(x) e^{-t} on the lattice: nonzero at every node."""
    psi = make_profile(fast_cfg.psi_profile, fast_cfg.data_scale)
    xs = propagator.half.nodes
    decay = np.exp(-propagator.times.nodes)[:, None]
    return advective_forcing(decay * psi(xs), decay * psi.deriv(xs))


def _whole_lattice(prop, lat):
    """The damped-ray and tail rows (n_t, n_ray + n_tail, n_p) of the
    kernel lattice, whole, as the two-stage sweep once built them: the whole
    product of the fused ray map and its cast, then the corner model fitted
    to the ray rows by hand."""
    layout, nt = prop.layout, prop.times.n
    n_ray, n_p = layout.n_ray, layout.p_nodes.size
    e_ray = (prop._m_ray @ lat.fc.T).T.astype(complex).reshape(nt, n_ray, n_p)
    corner = e_ray[(Ellipsis,) + layout.corner].reshape(nt, -1)
    lam = corner @ layout._pinv.T
    tail = lam[:, 0, None, None] * layout._tail_b1 \
        + lam[:, 1, None, None] * layout._tail_b0
    return np.concatenate([e_ray, tail], axis=1)


def _memory_sum_double_loop(prop, lat, e_full):
    """The memory integral's kernel part summed directly over every
    (t_k, tau_l) pair, l < k, on the whole lattice e_full: O(n_t^2) damping
    and Filon builds."""
    times, layout = prop.times, prop.layout
    nodes, p = times.nodes, layout.p_nodes
    out = np.zeros((2, times.n, prop.half.nodes.size))
    w = times.weights
    for k in range(times.n):
        acc = np.zeros_like(layout.sp2)
        w_brk = np.zeros(p.size, dtype=complex)
        k0_brk = 0.0j
        for ell in range(k):
            sigma = nodes[k] - nodes[ell]
            acc += w[ell] * e_full[ell] * layout.damping(sigma)
            # the propagator stores its Filon table in single precision
            fw = fresnel_weights(p, sigma).astype(np.complex64)
            w_brk += w[ell] * lat.e_brk[ell] * fw
            k0_brk += w[ell] * lat.e_brk[ell, 0] * np.exp(1j * p[0]**2 * sigma)
        k_smooth = layout.ray.smooth(acc)
        k0 = k_smooth[0] + np.imag(k0_brk)
        for d in (0, 1):
            out[d, k] = prop.field(d, k_smooth, w_brk, k0)
    return out


def _chunks(layout):
    """The row chunks of SWEEP_CHUNK_RAYS rays that ``accumulate`` forms:
    the ray rows, then the tail rows."""
    n_ray, n_rows = layout.n_ray, layout.ray.s.size
    return [slice(lo, min(lo + SWEEP_CHUNK_RAYS, end))
            for start, end in ((0, n_ray), (n_ray, n_rows))
            for lo in range(start, end, SWEEP_CHUNK_RAYS)]


def _accumulate_with_table(prop, lat, e_full):
    """``accumulate`` on the whole lattice e_full, all rows at once, with
    its damping factors read from a table of one ``layout.damping`` row per
    distinct step, as the propagator once kept, and the ray sum added up in
    the chunks of ``accumulate``."""
    nodes, layout = prop.times.nodes, prop.layout
    nt, n_p = nodes.size, layout.p_nodes.size
    steps, step_of = np.unique(np.diff(nodes), return_inverse=True)
    table = np.stack([layout.damping(h) for h in steps])
    w = prop.times.weights
    w_e_brk = w[:, None] * lat.e_brk
    acc = np.zeros_like(layout.sp2)
    ray_sum = np.zeros((nt, n_p), dtype=complex)
    k0_brk = 0.0j
    w_brk = np.empty((nt, n_p), dtype=complex)
    k0_brk_im = np.zeros(nt)
    for k in range(nt):
        if k > 0:
            acc = np.multiply(acc + w[k - 1] * e_full[k - 1],
                              table[step_of[k - 1]])
            for rays in _chunks(layout):
                ray_sum[k] += layout.ray.coef[rays] @ acc[rays]
            k0_brk = np.exp(1j * layout.p_nodes[0] ** 2 * (nodes[k] - nodes[k - 1])) \
                * (k0_brk + w_e_brk[k - 1, 0])
        w_brk[k] = np.sum(w_e_brk[:k] * prop._fw[prop._fw_of[k, :k]], axis=0)
        k0_brk_im[k] = np.imag(k0_brk)
    k_smooth = np.imag(ray_sum) / math.pi
    k0 = k_smooth[:, 0] + k0_brk_im
    return tuple(lat.free[d] + prop.field(d, k_smooth, w_brk, k0) for d in (0, 1))


class TestDuhamelPropagator:
    def test_recurrence_matches_double_loop(self, propagator, decaying_forcing):
        # a zero free part switches the free running sum off, leaving the
        # damped ray, bracket and p0 sums that the recurrence replaces
        lat = propagator.transform_forcing(decaying_forcing)
        lat = dataclasses.replace(lat, free=np.zeros_like(lat.free))
        got = propagator.accumulate(lat)
        want = _memory_sum_double_loop(propagator, lat,
                                       _whole_lattice(propagator, lat))
        for d in (0, 1):
            scale = np.max(np.abs(want[d]))
            assert scale > 0.0
            assert np.max(np.abs(got[d] - want[d])) <= 1e-12 * scale

    def test_free_part_matches_per_node_evaluation(self, propagator,
                                                   decaying_forcing):
        # zero kernel inputs leave only the free running sum, which the
        # propagator evaluates on half spectra for the whole lattice in one
        # pass; here it is the full complex spectrum of each zero-extended
        # forcing row, one inverse FFT and one spline per (node, order)
        lat = propagator.transform_forcing(decaying_forcing)
        lat = dataclasses.replace(lat, fc=np.zeros_like(lat.fc),
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

    def test_free_part_reads_the_kept_phases(self, propagator):
        # the sweep evolves node k's running sum by conj(_back[k]), which is
        # bitwise the phase WholeLineGrid evaluates for the Green operator
        phase = propagator.whole.phase
        for k, t in enumerate(propagator.times.nodes):
            assert np.array_equal(np.conj(propagator._back[k]), np.exp(phase * t))

    @pytest.mark.parametrize("workers", [2, 3])
    def test_tensor_bitwise_for_any_worker_count(self, propagator, fast_sym,
                                                 set_workers, workers):
        layout = propagator.layout
        cache = fast_sym.direction(layout.ray.phase)
        moduli = layout.ray.r[:layout.n_ray][::6]
        set_workers(1)
        want = propagator._build_tensor(cache, moduli)
        set_workers(workers)
        for got, ref in zip(propagator._build_tensor(cache, moduli), want):
            assert np.array_equal(got, ref)

    def test_damping_per_step_is_the_table_recurrence(
            self, propagator, decaying_forcing, monkeypatch):
        # each chunk's factors e^{s p^2 h} are recomputed when the step
        # changes, so every row's factor is evaluated once per distinct step
        # here, as many exponentials as the table holds, and they give the
        # table's bits
        lat = propagator.transform_forcing(decaying_forcing)
        want = _accumulate_with_table(propagator, lat,
                                      _whole_lattice(propagator, lat))
        layout = propagator.layout
        calls = []
        damping = layout.damping
        monkeypatch.setattr(layout, "damping",
                            lambda h, rows: calls.append((h, rows))
                            or damping(h, rows))
        got = propagator.accumulate(lat)
        for d in (0, 1):
            assert np.array_equal(got[d], want[d])
        n_rows = layout.ray.s.size
        rows_of = {}
        for h, rows in calls:
            rows_of.setdefault(h, []).extend(range(n_rows)[rows])
        steps = np.diff(propagator.times.nodes)
        assert sorted(rows_of) == list(np.unique(steps))
        assert len(rows_of) < steps.size
        for rows in rows_of.values():
            assert sorted(rows) == list(range(n_rows))

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

    def test_sweep_allocates_under_one_kernel_lattice(
            self, propagator, decaying_forcing):
        # the kernel lattice is streamed SWEEP_CHUNK_RAYS rays at a time and
        # never held whole: the tracemalloc peak of a sweep's two stages
        # reads 0.52x the bytes of one whole (n_t, n_ray + n_tail, n_p)
        # complex lattice here (0.25x, 9.3 MB, at production)
        import tracemalloc
        layout = propagator.layout
        whole = np.empty((propagator.times.n, layout.ray.s.size,
                          layout.p_nodes.size), dtype=complex).nbytes
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            propagator.accumulate(propagator.transform_forcing(decaying_forcing))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 0.75 * whole

    @pytest.mark.parametrize("chunk", [4, 7, 30, 150])
    def test_chunk_size_moves_only_the_ray_sum_round_off(
            self, propagator, decaying_forcing, monkeypatch, chunk):
        # the chunks are rows of the products and of the elementwise
        # recurrence, so the chunk size only orders the ray sum differently;
        # 7 divides neither the 120 ray rows nor the 30 tail rows
        lat = propagator.transform_forcing(decaying_forcing)
        want = propagator.accumulate(lat)
        monkeypatch.setattr(solver, "SWEEP_CHUNK_RAYS", chunk)
        got = propagator.accumulate(lat)
        for d in (0, 1):
            scale = np.max(np.abs(want[d]))
            assert scale > 0.0
            assert np.max(np.abs(got[d] - want[d])) <= 1e-13 * scale

    def test_keeps_little_beyond_tensor_laplace_filon_and_phases(
            self, propagator):
        # the fused ray map M = T L_axis - bt (x) L_scat (the tensor and the
        # Laplace matrices in one), the Filon table and the phases
        # e^{i tau xi|xi|} are what a sweep cannot cheaply rebuild; the rest
        # (0.9 MB here) is the bracket row's maps and indices, no tensor of
        # the ray rows (55 MB), no damping table (5 MB here)
        big = sum(getattr(propagator, name).nbytes
                  for name in ("_m_ray", "_fw", "_back"))
        assert kept_mb(propagator) * 2.0**20 <= big + 2.0**20

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
        # the sweep fits the corner model to the ray rows up front, then
        # streams the ray and tail rows through the recurrence chunk by
        # chunk; built whole, as the two-stage route did, they give the
        # same bits
        prop = propagator
        lat = prop.transform_forcing(decaying_forcing)
        fc = decaying_forcing.astype(np.complex64)
        assert np.array_equal(lat.fc, fc)
        assert all(np.ndim(a) <= 2 for a in vars(lat).values()
                   if a is not lat.free)
        # the bracket rows keep their two maps: the tensor against the axis
        # samples, then the scatter term
        fz = prop._lap_axis @ fc.T
        e_brk = (prop._t_brk @ fz).T.astype(complex) \
            - prop._bt_brk * (prop._lap_scat_brk @ fc.T).T
        assert np.array_equal(lat.e_brk, e_brk)
        want = _accumulate_with_table(prop, lat, _whole_lattice(prop, lat))
        got = prop.accumulate(lat)
        for d in (0, 1):
            assert np.array_equal(got[d], want[d])

    def test_ray_map_matches_complex128_oracle(self, propagator, fast_sym):
        # M = T L_axis - bt (x) L_scat from the whole tensor and the whole
        # scattered Laplace matrix, each in one call, multiplied in
        # complex128: the chunked complex64 map agrees to the rounding of
        # its complex64 product and of L_axis, within 32 units of complex64
        # round-off of |T| |L_axis| + |bt| |L_scat| entry by entry
        # (measured 9.4)
        prop = propagator
        cache = fast_sym.direction(prop.layout.ray.phase)
        r = prop.layout.ray.r[:prop.layout.n_ray]
        z, _ = DUHAMEL_AXIS
        xs, p = prop.half.nodes, prop.layout.p_nodes
        tensor, bt = prop._build_tensor(cache, r)
        scat = cache.phi_hat * (np.sqrt(r)[:, None] * p[None, :])
        lap_axis = laplace_matrix(z, xs)
        lap_scat = laplace_matrix(scat.ravel(), xs).reshape(r.size, p.size, -1)
        want = np.stack([t.astype(complex) @ lap_axis - b * lap
                         for t, b, lap in zip(tensor, bt, lap_scat)])
        scale = np.stack([np.abs(t) @ np.abs(lap_axis) + abs(b) * np.abs(lap)
                          for t, b, lap in zip(tensor, bt, lap_scat)])
        got = prop._m_ray.reshape(want.shape)
        assert prop._m_ray.dtype == np.complex64
        assert np.all(scale > 0.0)
        unit = np.finfo(np.float32).eps / 2.0
        assert np.max(np.abs(got - want) / scale) <= 32.0 * unit

    @pytest.mark.parametrize("chunk", [4, 30, 150])
    def test_ray_map_bitwise_for_any_chunk(self, propagator, fast_sym,
                                           monkeypatch, chunk):
        # each row of M is its own ray's tensor row, Laplace row and dot
        # products, so the build's ray chunks give the same bits
        cache = fast_sym.direction(propagator.layout.ray.phase)
        monkeypatch.setattr(solver, "SWEEP_CHUNK_RAYS", chunk)
        assert np.array_equal(propagator._ray_map(cache), propagator._m_ray)

    def test_build_never_holds_the_whole_tensor(self, propagator, fast_sym,
                                                set_workers):
        # the ray map is formed one chunk of tensor rows at a time: the
        # build's tracemalloc peak stays below the bytes of the whole
        # complex64 tensor plus what the propagator keeps (it reads kept +
        # 0.46 of the tensor on two CPUs, most of it the E- rows'
        # temporaries of one ray per CPU, so the CPU count is fixed)
        import tracemalloc
        set_workers(2)
        prop = propagator
        z, _ = DUHAMEL_AXIS
        whole_t = np.empty((prop.layout.n_ray, prop.layout.p_nodes.size,
                            z.size), dtype=np.complex64).nbytes
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            built = DuhamelPropagator(fast_sym, prop.half, prop.times)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert np.array_equal(built._m_ray, prop._m_ray)
        assert peak < whole_t + kept_mb(built) * 2.0**20

    @pytest.mark.parametrize("block", [1, 5, 33])
    def test_free_part_bitwise_for_any_block_of_time_rows(
            self, propagator, decaying_forcing, monkeypatch, block):
        # the free part's time rows go FREE_BLOCK_ROWS at a time, the
        # running sum carried from block to block; 33 rows are the whole
        # lattice in one block here, 5 leave a short last block and 1 runs
        # every row through the carry alone
        want = propagator.transform_forcing(decaying_forcing)
        monkeypatch.setattr(solver, "FREE_BLOCK_ROWS", block)
        got = propagator.transform_forcing(decaying_forcing)
        assert propagator.times.n == 33
        assert np.array_equal(got.free, want.free)


def _linear_lattice(cfg) -> np.ndarray:
    """G(t) psi + B(t) h and its x-derivative at the positive lattice
    times, as picard_solve assembles them."""
    symbols = Symbols(cfg)
    xs = HalfLineGrid(x_max=cfg.x_max, n=cfg.n_x).nodes
    times = TimeGrid(cfg.t_final, cfg.t_switch, cfg.n_time_geometric,
                     cfg.n_time_uniform).nodes[1:]
    psi = make_profile(cfg.psi_profile, cfg.data_scale)
    return (GreenOperator(symbols, psi).apply(xs, times, (0, 1))
            + BoundaryKernel(symbols).apply_convolution(
                RampExp(cfg.data_scale), xs, times, (0, 1)))


def test_solution_bitwise_for_any_worker_count(fast_cfg, solution,
                                               set_workers):
    # every split site at once: the linear lattice, the propagator build
    # and the sweeps, on one block against the CPUs of this machine
    linear = _linear_lattice(fast_cfg)
    set_workers(1)
    assert np.array_equal(_linear_lattice(fast_cfg), linear)
    serial = picard_solve(fast_cfg)
    assert serial.meta["workers"] == 1
    for name in ("values", "derivs"):
        assert np.array_equal(getattr(serial, name), getattr(solution, name))
    assert serial.meta["step_norm"] == solution.meta["step_norm"]


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
    assert np.isnan(sol.fixed_point_residual_rel)


def test_propagator_transport_guard(fast_cfg):
    # At t = 1e9 the forcing spectra would wrap round the [-64, 448) grid.
    half = HalfLineGrid(x_max=fast_cfg.x_max, n=fast_cfg.n_x)
    with pytest.raises(ConfigError, match="transport"):
        DuhamelPropagator(Symbols(fast_cfg), half, TimeGrid(1.0e9, 1.0, 4, 4))
