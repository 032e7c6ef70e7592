"""Method-of-lines reference discretization.

This arm must stay independent of the contour machinery, so its checks are
classical: spectral-radius stability of the implicit step, an FFT crosscheck
of the dense dispersion matrix, step-doubling time convergence, exact wall
handling, and L2 conservation for a far-field packet.
"""

import numpy as np
import pytest

from bo_halfline.mol import MethodOfLines


# ---------------------------------------------------------------------------
# Operator structure


class TestOperators:
    def test_dispersion_matrix_antisymmetric(self, mol):
        assert np.array_equal(mol.hilbert_mat, -mol.hilbert_mat.T)

    def test_wall_rows_are_zero(self, mol):
        # Zero end rows keep the generator skew; extrapolated wall-curvature
        # rows create an unstable wall eigenpair.
        for m in (mol.lap, mol.amat):
            assert np.all(m[0] == 0.0)
            assert np.all(m[-1] == 0.0)

    def test_gradient_end_stencils(self, mol):
        dx = mol.dx
        assert np.allclose(mol.grad[0, :3] * dx, [-1.5, 2.0, -0.5])
        assert np.allclose(mol.grad[-1, -3:] * dx, [0.5, -2.0, 1.5])

    def test_lifting_profile_normalized_at_wall(self, mol):
        assert mol.chi[0] == 1.0
        assert abs(mol.chi[-1]) < 1e-300  # gone long before the far end


# ---------------------------------------------------------------------------
# Certificates


class TestCertificates:
    def test_implicit_step_spectral_radius(self, mol):
        # (I - dt A)^{-1} with skew A: radius exactly 1 to eig roundoff.
        assert mol.stability_certificate() <= 1.0 + 1e-9

    def test_dispersion_fft_crosscheck(self, mol):
        # Dense PV matrix vs zero-extension FFT on a smooth interior bump
        # (measured 1.01e-2, dominated by the O(dx^2) quadrature defect).
        assert mol.hilbert_fft_crosscheck() < 2e-2

    def test_step_doubling_convergence(self, mol):
        # Halving dt moves the t = 0.5 state by < 1% (measured 9.1e-3).
        assert mol.step_doubling_error(0.5) < 2e-2


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


# ---------------------------------------------------------------------------
# Save-time bookkeeping


class TestSaveTimes:
    def test_off_step_save_time_rejected(self, mol):
        with pytest.raises(ValueError, match="not a multiple"):
            mol.run(0.25, save_times=np.array([0.0, 0.1001]))

    def test_at_time_lookup(self, mol):
        res = mol.run(0.125, save_times=np.array([0.0, 0.125]))
        assert np.array_equal(res.at_time(0.125), res.values[-1])
        with pytest.raises(ValueError, match="not a lattice node"):
            res.at_time(0.0625)
