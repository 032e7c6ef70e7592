"""Method-of-lines reference discretization.

This arm must stay independent of the contour machinery, so its checks are
classical: a K-norm bound on the spectral radius of the implicit step, the
symbol-built operators against the dense PV matrix, an FFT crosscheck of the
dispersion matrix, step-doubling time convergence, exact wall handling, and
L2 conservation for a far-field packet.
"""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

import bo_halfline
from bo_halfline import RunConfig
from bo_halfline import mol as mol_module
from bo_halfline.halfline import make_profile, pv_matrix
from bo_halfline.mol import MethodOfLines


# ---------------------------------------------------------------------------
# Operator structure


class TestOperators:
    def test_dispersion_matrix_antisymmetric(self, mol):
        hilbert = mol_module._toeplitz(mol.symbol)
        assert np.array_equal(hilbert, -hilbert.T)

    def test_dispersion_matrix_is_its_symbol(self, mol):
        # exactly Toeplitz: every diagonal is one value of the symbol
        # c_k = -1/(pi k), c_0 = 0, and the operators read it through its
        # Toeplitz view
        h, n = mol_module._toeplitz(mol.symbol), mol.x.size
        assert np.array_equal(h[1:, 1:], h[:-1, :-1])
        assert np.array_equal(h[0], mol.symbol[n - 1:])
        assert np.array_equal(h[:, 0], mol.symbol[n - 1::-1])
        k = np.arange(1, n)
        assert np.allclose(h[0, 1:], -1.0 / (np.pi * k), rtol=1e-15, atol=0)
        assert np.all(np.diag(h) == 0.0)

    @pytest.mark.parametrize("n", [16, 64, 512])
    def test_symbol_operators_match_dense_pv_matrix(self, cfg, n):
        # A and H chi'' from the symbol against the dense midpoint PV matrix
        # and the three-point curvature on interior rows (measured 1.5e-16
        # and 1.6e-15 relative at n = 2048)
        m = MethodOfLines(cfg, mol_n=n)
        hilbert = -pv_matrix(m.x) / np.pi
        idx = np.arange(1, n)
        lap = np.zeros((n + 1, n + 1))
        lap[idx, idx - 1] = lap[idx, idx + 1] = 1.0 / m.dx**2
        lap[idx, idx] = -2.0 / m.dx**2
        amat = (-hilbert @ lap)[1:-1, 1:-1]
        assert np.max(np.abs(m.amat - amat)) <= 1e-14 * np.max(np.abs(amat))
        h_chi = hilbert @ m.chi_xx
        assert np.max(np.abs(m.h_chi_term - h_chi)) \
            <= 1e-14 * np.max(np.abs(h_chi))

    def test_build_holds_one_dense_matrix(self):
        # the symbol replaces the dense PV matrix and its temporaries: the
        # build peaks near one (n+1)^2 array, and A, (n-1)^2 on the interior,
        # is the only one it keeps
        n = 1024
        tracemalloc.start()
        try:
            m = MethodOfLines(RunConfig(), mol_n=n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * (n + 1) ** 2 * 8
        dense = [name for name, value in vars(m).items()
                 if isinstance(value, np.ndarray) and value.size >= (n - 1)**2]
        assert dense == ["amat"]

    def test_wall_rows_are_zero(self, mol):
        # Zero end rows keep the generator skew; extrapolated wall-curvature
        # rows create an unstable wall eigenpair.  Between its zero end rows
        # A is -H Lap with the three-point Lap on interior rows only, H the
        # dense midpoint PV matrix (measured 1.5e-16 relative).
        n = mol.x.size
        idx = np.arange(1, n - 1)
        lap = np.zeros((n, n))
        lap[idx, idx - 1] = 1.0
        lap[idx, idx] = -2.0
        lap[idx, idx + 1] = 1.0
        lap /= mol.dx**2
        hilbert = -pv_matrix(mol.x) / np.pi
        dense = (-hilbert @ lap)[1:-1, 1:-1]
        assert np.max(np.abs(mol.amat - dense)) \
            <= 1e-15 * np.max(np.abs(dense))

    def test_gradient_end_stencils(self, mol):
        # the gradient applied to the unit vectors, column by column
        dx, n = mol.dx, mol.x.size
        grad = mol.gradient(np.eye(n)) * dx
        assert np.allclose(grad[0, :3], [-1.5, 2.0, -0.5])
        assert np.all(grad[0, 3:] == 0.0)
        assert np.allclose(grad[-1, -3:], [0.5, -2.0, 1.5])
        assert np.all(grad[-1, :-3] == 0.0)
        interior = np.zeros((n - 2, n))
        interior[np.arange(n - 2), np.arange(n - 2)] = -0.5
        interior[np.arange(n - 2), np.arange(2, n)] = 0.5
        assert np.allclose(grad[1:-1], interior)

    def test_lifting_profile_normalized_at_wall(self, mol):
        assert mol.chi[0] == 1.0
        assert abs(mol.chi[-1]) < 1e-300  # gone long before the far end


# ---------------------------------------------------------------------------
# Certificates


class TestCertificates:
    def test_implicit_step_spectral_radius(self, mol):
        # A step that contracts the interior in the K-norm (A = H_ii K with
        # H_ii skew): the bound max(1, ||S||_K) reads 1 to round-off.
        assert mol.stability_certificate(mol.step_matrix()) <= 1.0 + 1e-9

    @pytest.mark.parametrize("n", [64, 128, 256])
    def test_certificate_bounds_dense_radius(self, cfg, n):
        # The K-norm is never below the spectral radius of the same S; the
        # dense nonsymmetric eigensolve is the oracle.
        m = MethodOfLines(cfg, mol_n=n)
        step = m.step_matrix()
        radius = float(np.max(np.abs(np.linalg.eigvals(step))))
        bound = m.stability_certificate(step=step)
        assert radius - 1e-12 <= bound <= 1.0 + 1e-9

    @pytest.mark.parametrize("n,dt", [(64, 1e-18), (64, 1e-16),
                                      (128, 1e-20), (128, 1e-18),
                                      (128, 1e-12)])
    def test_certificate_of_identity_to_rounding(self, cfg, n, dt):
        # Steps this small make S the identity to rounding.  The top value
        # of a Gram matrix so clustered at 1 made LAPACK's bisection fail
        # (dsyevr info > 0) and the bound read inf for a stable step; the
        # Cholesky test now certifies it without an eigenvalue.
        m = MethodOfLines(cfg, mol_n=n)
        step = m.step_matrix(dt)
        radius = float(np.max(np.abs(np.linalg.eigvals(step))))
        meta = {}
        bound = m.stability_certificate(step=step, meta=meta)
        assert radius - 1e-12 <= bound <= 1.0 + 1e-9
        assert meta["certificate_route"] == "cholesky"

    def test_certificate_catches_wall_instability(self, cfg):
        # The one-sided wall curvature row (2, -5, 4, -1)/dx^2 fed through
        # the PV matrix's wall column creates the unstable wall eigenpair
        # (max Re lambda(A) measured 9.6 at n = 256); measured bound 1.094
        # against a dense radius of 1.009.
        m = MethodOfLines(cfg, mol_n=256)
        stencil = np.array([2.0, -5.0, 4.0, -1.0]) / m.dx**2
        wall_column = m.symbol[m.x.size - 1::-1]    # H[:, 0]
        m.amat[:, :3] -= np.outer(wall_column[1:-1], stencil[1:])
        step = m.step_matrix()
        radius = float(np.max(np.abs(np.linalg.eigvals(step))))
        assert radius > 1.005
        assert m.stability_certificate(step=step) > 1.01

    def test_certificate_fails_closed(self, cfg):
        # a non-finite step leaves no bound
        m = MethodOfLines(cfg, mol_n=64)
        step = m.step_matrix()
        step[5, 7] = np.nan
        meta = {}
        assert m.stability_certificate(step=step, meta=meta) == float("inf")
        assert meta["certificate_route"] == "none"

    def test_stiff_grid_certifies(self, cfg):
        # n = 128 on L = 0.5 gives dt/dx^2 = 66, where a step inverted on all
        # nodes has end rows 1e-16 off the unit row: the interior step
        # certifies (measured bound 1 + 4.5e-13, dense radius 1 + 9e-16)
        m = MethodOfLines(cfg, mol_n=128, mol_length=0.5)
        step = m.step_matrix()
        radius = float(np.max(np.abs(np.linalg.eigvals(step))))
        meta = {}
        bound = m.stability_certificate(step=step, meta=meta)
        assert meta["certificate_route"] == "cholesky"
        assert radius - 1e-12 <= bound <= 1.0 + 1e-9

    def test_certificate_rejects_planted_instability(self, mol):
        # An interior scaled by 1 + 1e-8 puts ||S_ii||_K near 1 + 1e-8, far
        # above the Cholesky test's 1 + 32 n eps: the factorization must
        # fail, and the top eigenvalue must still bound the dense radius.
        step = mol.step_matrix()
        step[1:-1, 1:-1] *= 1.0 + 1e-8
        radius = float(np.max(np.abs(np.linalg.eigvals(step))))
        assert radius > 1.0 + 5e-9
        meta = {}
        bound = mol.stability_certificate(step=step, meta=meta)
        assert meta["certificate_route"] == "eigen"
        assert bound >= radius - 1e-12

    def test_production_certificate_needs_no_eigensolve(self, mol,
                                                         monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dsyevr called")

        monkeypatch.setattr(mol_module, "dsyevr", refuse)
        meta = {}
        n = mol.config.mol_n - 1                # the interior nodes
        bound = mol.stability_certificate(mol.step_matrix(), meta=meta)
        assert meta["certificate_route"] == "cholesky"
        assert bound == math.sqrt(1.0 + 32.0 * n * np.finfo(float).eps)
        assert bound <= 1.0 + 1e-9

    def test_failed_eigensolve_fails_closed(self, cfg, monkeypatch):
        # an interior scaled by 2 takes the eigenvalue route; a dsyevr that
        # reports failure leaves no bound
        def failing(a, **kwargs):
            return np.full(1, 0.5), None, None, None, 1

        m = MethodOfLines(cfg, mol_n=64)
        step = m.step_matrix()
        step[1:-1, 1:-1] *= 2.0
        monkeypatch.setattr(mol_module, "dsyevr", failing)
        assert m.stability_certificate(step=step) == float("inf")

    def test_accept_value_same_for_one_and_two_blas_threads(self):
        # the Cholesky route returns a constant of n, whatever order the
        # BLAS threads sum the Gram matrix in
        package_root = str(Path(bo_halfline.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [package_root,
                                             os.environ.get("PYTHONPATH")]))
        script = ("from bo_halfline import MethodOfLines, RunConfig\n"
                  "meta = {}\n"
                  "mol = MethodOfLines(RunConfig())\n"
                  "bound = mol.stability_certificate(mol.step_matrix(), "
                  "meta=meta)\n"
                  "print(repr(bound), meta['certificate_route'])")
        outs = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": path}
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS"):
                env[var] = threads
            proc = subprocess.run([sys.executable, "-c", script],
                                  capture_output=True, text=True,
                                  timeout=300, env=env)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout.split())
        assert outs[0] == outs[1]
        assert outs[0][1] == "cholesky"

    def test_certificate_allocates_one_gram_matrix(self, mol):
        # The certificate works in place on S's interior and hands LAPACK a
        # Fortran-ordered Gram matrix; a second (n-1)^2 copy would show here.
        step = mol.step_matrix()
        n_in = mol.x.size - 2
        tracemalloc.start()
        try:
            mol.stability_certificate(step=step)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * n_in**2 * 8

    def test_dispersion_fft_crosscheck(self, mol):
        # Dense PV matrix vs zero-extension FFT on a smooth interior bump
        # (measured 1.01e-2, dominated by the O(dx^2) quadrature defect).
        assert mol.hilbert_fft_crosscheck() < 2e-2

    def test_step_doubling_convergence(self, mol):
        # Halving dt moves the t = 0.5 state by < 1% (measured 9.1e-3).
        assert mol.step_doubling_error(0.5) < 2e-2

    def test_step_doubling_certifies_neither_run(self, cfg, monkeypatch):
        # the figure is exactly the end-state gap of the plain run and one at
        # half its step, and it pays for no spectral radius
        small = MethodOfLines(cfg, mol_n=128)
        save = np.array([0.0, 0.5])
        coarse = small.run(0.5, save).values[-1]
        fine = small._march(0.5, cfg.mol_dt / 2.0, save)[0].values[-1]
        expected = float(np.linalg.norm(fine - coarse)
                         / max(np.linalg.norm(fine), 1.0e-30))

        def refuse(*args, **kwargs):
            raise AssertionError("stability_certificate called")

        monkeypatch.setattr(MethodOfLines, "stability_certificate", refuse)
        assert small.step_doubling_error(0.5) == expected


# ---------------------------------------------------------------------------
# Evolution invariants


class TestEvolution:
    def test_zero_data_stays_zero(self, cfg):
        m = MethodOfLines(cfg, data_scale=0.0)
        res = m.run(0.25, save_times=np.array([0.0, 0.25]))
        assert np.max(np.abs(res.values)) == 0.0

    def test_far_field_packet_conserves_l2(self, cfg):
        # With h = 0 the continuum flow conserves the L2 norm exactly; a
        # packet away from both ends must conserve it on the lattice too
        # (measured drift 9.6e-4 over t in [0, 0.5]).
        m = MethodOfLines(cfg, data_scale=0.0)
        m.psi = lambda x: np.exp(-((x - 15.0) ** 2))
        res = m.run(0.5, save_times=np.array([0.0, 0.5]))
        assert res.l2_drift < 5e-3

    def test_boundary_trace_exact_at_save_nodes(self, mol):
        # The lifted unknown vanishes at the wall and chi(0) = 1, so the
        # reconstructed trace equals h(t) bit-for-bit.
        res = mol.run(0.25, save_times=np.array([0.0, 0.125, 0.25]))
        assert np.array_equal(res.values[:, 0], mol.h(res.times))

    def test_result_carries_certificate(self, mol):
        res = mol.run(0.125, save_times=np.array([0.0, 0.125]))
        assert res.spectral_radius <= 1.0 + 1e-9
        assert res.meta["n_steps"] == 125
        for key in ("build_s", "step_matrix_s", "steps_s", "certificate_s"):
            assert res.meta[key] >= 0.0
        assert res.meta["certificate_route"] == "cholesky"

    def test_energy_drift_of_saved_states(self, cfg):
        # relative change of (1/2) sum (u_{i+1} - u_i)^2 / dx from t = 0 to
        # the end of the run, like l2_drift for the L2 norm
        m = MethodOfLines(cfg, mol_n=128)
        res = m.run(0.25, save_times=np.array([0.0, 0.25]))
        energy = 0.5 * np.sum(np.diff(res.values, axis=1) ** 2, axis=1) / m.dx
        expect = abs(energy[1] - energy[0]) / energy[0]
        assert res.meta["energy_drift"] == pytest.approx(expect, rel=1e-12)

    def test_run_certifies_its_own_step_matrix(self, mol):
        # t_final = 8 dt keeps dt exact, so the run inverts the same matrix
        dt = mol.config.mol_dt
        res = mol.run(8 * dt, save_times=np.array([0.0, 8 * dt]))
        assert res.meta["dt"] == dt
        assert res.spectral_radius == mol.stability_certificate(
            mol.step_matrix())

    def test_step_matrix_matches_lu_solves(self, mol):
        # 50 steps with S = (I - dt A)^{-1} against the LU-solve loop
        dt, n, n_steps = mol.config.mol_dt, mol.x.size, 50
        lu = lu_factor(np.eye(n - 2) - dt * mol.amat)
        h = lambda t: float(mol.h(np.array([t]))[0])  # noqa: E731
        hp = lambda t: float(mol.h.deriv(np.array([t]))[0])  # noqa: E731
        v = mol.psi(mol.x) - h(0.0) * mol.chi
        v[0] = v[-1] = 0.0
        for step in range(n_steps):
            rhs = mol._rhs_explicit(v, h(step * dt), hp(step * dt))
            v[1:-1] = lu_solve(lu, v[1:-1] + dt * rhs)
        t_end = n_steps * dt
        expect = v + h(t_end) * mol.chi
        got = mol.run(t_end, save_times=np.array([0.0, t_end])).values[-1]
        assert np.linalg.norm(got - expect) <= 1e-12 * np.linalg.norm(expect)


# ---------------------------------------------------------------------------
# Balance laws


@pytest.mark.parametrize("profile,gap_bound,mass_ends", [
    ("gauss_bump", 0.05, (0.0783, 0.135)),
    ("poly_exp", 0.015, (0.375, 0.439)),
])
def test_mass_law_with_zero_boundary_data(cfg, profile, gap_bound, mass_ends):
    # H is skew on L^2(0, inf), so for h = 0 integration by parts gives
    # d/dt (1/2)||u||^2 = (u_x(0, t)/pi) int_0^inf u/x dx, with or without
    # the nonlinearity.  Centred differences on t = 0, 0.1, ..., 1 against
    # that flux, with the integrand's x -> 0 limit u_x(0) in the trapezoid
    # rule: measured max gaps on [0.2, 0.9] are 4.33e-2 (gauss_bump) and
    # 1.10e-2 (poly_exp), bounded at 5e-2 and 1.5e-2 (margins 0.67e-2 and
    # 0.40e-2).  The mass grows: these data gain it through the wall.  The
    # gap does not shrink with the grid (n = 512 -> 1024 at dt = 1e-3:
    # 4.33e-2 -> 4.86e-2 for gauss_bump, 1.10e-2 -> 0.94e-2 for poly_exp),
    # so the bound measures the backward-Euler time step, not the spatial
    # discretization.
    scale = 1e-6
    m = MethodOfLines(cfg, psi_profile=profile, data_scale=scale, mol_n=512)
    m.h = make_profile("ramp_exp", 0.0)
    times = np.linspace(0.0, 1.0, 11)
    u = m.run(1.0, save_times=times).values / scale
    mass = 0.5 * m.dx * np.sum(u**2, axis=1)
    ux0 = m.gradient(u.T)[0]
    over_x = np.empty_like(u)
    over_x[:, 0] = ux0
    over_x[:, 1:] = u[:, 1:] / m.x[1:]
    flux = ux0 * np.trapezoid(over_x, m.x, axis=1) / np.pi
    rate = (mass[2:] - mass[:-2]) / (times[2] - times[0])
    window = slice(1, 9)                    # centred t = 0.2 ... 0.9
    gap = np.abs(rate - flux[1:-1])[window] / np.abs(flux[1:-1][window])
    assert np.max(gap) <= gap_bound
    assert np.all(np.diff(mass) > 0.0)
    assert mass[0] == pytest.approx(mass_ends[0], rel=1e-3)
    assert mass[-1] == pytest.approx(mass_ends[1], rel=5e-3)


# ---------------------------------------------------------------------------
# Save-time bookkeeping


class TestSaveTimes:
    def test_off_step_save_time_rejected(self, mol):
        with pytest.raises(ValueError, match="not a multiple"):
            mol.run(0.25, save_times=np.array([0.0, 0.1001]))

    @pytest.mark.parametrize("saves,match", [
        ([0.0, 0.02], "outside"),
        ([-0.005, 0.01], "outside"),
        ([0.0, 0.005, 0.005], "given twice"),
    ])
    def test_unreachable_or_repeated_save_time_rejected(self, mol, saves,
                                                        match):
        # each would leave an all-zero row in the saved values
        with pytest.raises(ValueError, match=match):
            mol.run(0.01, save_times=np.array(saves))

    def test_horizon_below_half_step_takes_one_step(self, mol):
        res = mol.run(0.0004, save_times=np.array([0.0, 0.0004]))
        assert res.meta["n_steps"] == 1
        assert res.meta["dt"] == 0.0004
        assert np.all(np.isfinite(res.values))

    @pytest.mark.parametrize("t_final,steps", [
        (0.05, [0, 6, 12, 19, 25, 31, 38, 44, 50]),
        (0.0004, [0, 1]),
    ])
    def test_default_save_times_are_distinct_step_nodes(self, mol, t_final,
                                                        steps):
        # the step nodes nearest nine even times, each once; 0.05 is 50
        # steps, not a multiple of 8
        res = mol.run(t_final)
        want = np.array(steps) * res.meta["dt"]
        assert np.allclose(res.times, want, rtol=1e-15, atol=0.0)
        assert np.array_equal(res.values[:, 0], mol.h(res.times))

    @pytest.mark.parametrize("t_final", [1.0, 2.0])
    def test_default_save_times_divide_even_horizons(self, cfg, t_final):
        m = MethodOfLines(cfg, mol_n=64)
        assert np.array_equal(m.run(t_final).times,
                              np.linspace(0.0, t_final, 9))

    @pytest.mark.parametrize("dt", [0.0, -1e-3, float("nan")])
    def test_nonpositive_dt_rejected(self, mol, dt):
        with pytest.raises(ValueError, match="dt must be positive"):
            mol._march(0.25, dt, None)
        with pytest.raises(ValueError, match="dt must be positive"):
            mol.step_matrix(dt)

    @pytest.mark.parametrize("t_final", [0.0, -0.5])
    def test_nonpositive_horizon_rejected(self, mol, t_final):
        with pytest.raises(ValueError, match="t_final must be positive"):
            mol.run(t_final)

    def test_at_time_lookup(self, mol):
        res = mol.run(0.125, save_times=np.array([0.0, 0.125]))
        assert np.array_equal(res.at_time(0.125), res.values[-1])
        with pytest.raises(ValueError, match="not a lattice node"):
            res.at_time(0.0625)
