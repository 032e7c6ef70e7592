"""Method-of-lines reference discretization.

This arm must stay independent of the contour machinery, so its checks are
classical: a K-norm bound on the spectral radius of the implicit step, an FFT
crosscheck of the dense dispersion matrix, step-doubling time convergence,
exact wall handling, and L2 conservation for a far-field packet.
"""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

from bo_halfline.halfline import make_profile
from bo_halfline.mol import MethodOfLines


# ---------------------------------------------------------------------------
# Operator structure


class TestOperators:
    def test_dispersion_matrix_antisymmetric(self, mol):
        assert np.array_equal(mol.hilbert_mat, -mol.hilbert_mat.T)

    def test_wall_rows_are_zero(self, mol):
        # Zero end rows keep the generator skew; extrapolated wall-curvature
        # rows create an unstable wall eigenpair.  Between its zero end rows
        # A is -H Lap with the three-point Lap on interior rows only
        # (measured 5.7e-17 relative).
        n = mol.x.size
        idx = np.arange(1, n - 1)
        lap = np.zeros((n, n))
        lap[idx, idx - 1] = 1.0
        lap[idx, idx] = -2.0
        lap[idx, idx + 1] = 1.0
        lap /= mol.dx**2
        dense = (-mol.hilbert_mat @ lap)[1:-1]
        assert np.max(np.abs(mol.amat[1:-1] - dense)) \
            <= 1e-15 * np.max(np.abs(dense))
        assert np.all(mol.amat[0] == 0.0)
        assert np.all(mol.amat[-1] == 0.0)

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
        # Unit end rows plus a step that contracts the interior in the
        # K-norm (A_ii = H_ii K with H_ii skew): the bound max(1, ||S_ii||_K)
        # reads 1 to round-off.
        assert mol.stability_certificate() <= 1.0 + 1e-9

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
        # (dsyevr info > 0) and the bound read inf for a stable step.
        m = MethodOfLines(cfg, mol_n=n)
        step = m.step_matrix(dt)
        radius = float(np.max(np.abs(np.linalg.eigvals(step))))
        bound = m.stability_certificate(step=step)
        assert radius - 1e-12 <= bound <= 1.0 + 1e-9

    def test_certificate_catches_wall_instability(self, cfg):
        # The one-sided wall curvature row (2, -5, 4, -1)/dx^2 fed through
        # the PV matrix's wall column creates the unstable wall eigenpair
        # (max Re lambda(A) measured 9.6 at n = 256); measured bound 1.094
        # against a dense radius of 1.009.
        m = MethodOfLines(cfg, mol_n=256)
        stencil = np.array([2.0, -5.0, 4.0, -1.0]) / m.dx**2
        m.amat[:, :4] -= np.outer(m.hilbert_mat[:, 0], stencil)
        m.amat[0] = 0.0
        m.amat[-1] = 0.0
        step = m.step_matrix()
        radius = float(np.max(np.abs(np.linalg.eigvals(step))))
        assert radius > 1.005
        assert m.stability_certificate(step=step) > 1.01

    def test_certificate_fails_closed(self, cfg):
        # an end row that is not exactly a unit row, or a non-finite
        # interior, leaves no bound
        m = MethodOfLines(cfg, mol_n=64)
        for row, col, value in ((0, 1, 1e-300),
                                (-1, -1, np.nextafter(1.0, 2.0)),
                                (5, 7, np.nan)):
            step = m.step_matrix()
            step[row, col] = value
            assert m.stability_certificate(step=step) == float("inf")

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
        # the figure is exactly the end-state gap of two plain runs, and it
        # pays for no spectral radius
        small = MethodOfLines(cfg, mol_n=128)
        save = np.array([0.0, 0.5])
        coarse = small.run(0.5, cfg.mol_dt, save).values[-1]
        fine = small.run(0.5, cfg.mol_dt / 2.0, save).values[-1]
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
        for key in ("step_matrix_s", "steps_s", "certificate_s"):
            assert res.meta[key] >= 0.0

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
        assert res.spectral_radius == mol.stability_certificate()

    def test_step_matrix_matches_lu_solves(self, mol):
        # 50 steps with S = (I - dt A)^{-1} against the LU-solve loop
        dt, n, n_steps = mol.config.mol_dt, mol.x.size, 50
        lu = lu_factor(np.eye(n) - dt * mol.amat)
        h = lambda t: float(mol.h(np.array([t]))[0])  # noqa: E731
        v = mol.psi(mol.x) - h(0.0) * mol.chi
        v[0] = v[-1] = 0.0
        for step in range(n_steps):
            v = lu_solve(lu, v + dt * mol._rhs_explicit(v, step * dt))
            v[0] = v[-1] = 0.0
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
    # 0.40e-2).  The mass grows: these data gain it through the wall.
    scale = 1e-6
    m = MethodOfLines(cfg, psi_profile=profile, data_scale=scale, mol_n=512)
    m.h = make_profile(cfg.h_profile, 0.0)
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

    @pytest.mark.parametrize("dt", [0.0, -1e-3, float("nan")])
    def test_nonpositive_dt_rejected(self, mol, dt):
        with pytest.raises(ValueError, match="dt must be positive"):
            mol.run(0.25, dt=dt)
        with pytest.raises(ValueError, match="dt must be positive"):
            mol.stability_certificate(dt)

    @pytest.mark.parametrize("t_final", [0.0, -0.5])
    def test_nonpositive_horizon_rejected(self, mol, t_final):
        with pytest.raises(ValueError, match="t_final must be positive"):
            mol.run(t_final)

    def test_at_time_lookup(self, mol):
        res = mol.run(0.125, save_times=np.array([0.0, 0.125]))
        assert np.array_equal(res.at_time(0.125), res.values[-1])
        with pytest.raises(ValueError, match="not a lattice node"):
            res.at_time(0.0625)
