"""Method-of-lines reference discretization on a truncated half line.

This is the cross-validation arm: a plain finite-difference scheme that knows
nothing about contour integrals.  The nonlocal dispersion is a dense
principal-value matrix on the uniform grid (with an FFT crosscheck of the
zero-extension identity), the inhomogeneous boundary value is lifted with a
Gaussian cutoff so the evolved unknown vanishes at both ends, and time
stepping is semi-implicit: dense LU for the linear dispersive part, explicit
conservative transport for the rest.  The stepping matrix is small enough to
certify by direct spectral radius."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .config import RunConfig
from .halfline import (WholeLineGrid, hilbert_whole_line, make_profile,
                       node_index, pv_matrix)


@dataclass
class MolResult:
    x: np.ndarray
    times: np.ndarray
    values: np.ndarray          # (n_times, n_x)
    l2_drift: float
    spectral_radius: float
    meta: dict = field(default_factory=dict)

    def at_time(self, t: float) -> np.ndarray:
        return self.values[node_index(self.times, t)]


class MethodOfLines:
    """Semi-implicit finite-difference solver for the half-line problem."""

    def __init__(self, config: RunConfig | None = None, **overrides):
        cfg = (config or RunConfig()).replace(**overrides) if overrides \
            else (config or RunConfig())
        self.config = cfg
        n = cfg.mol_n
        self.x = np.linspace(0.0, cfg.mol_length, n + 1)
        self.dx = self.x[1] - self.x[0]
        self.psi = make_profile(cfg.psi_profile, cfg.data_scale)
        self.h = make_profile(cfg.h_profile, cfg.data_scale)
        self._build_operators()

    def _build_operators(self) -> None:
        x, dx = self.x, self.dx
        n = x.size
        self.hilbert_mat = -pv_matrix(x) / np.pi
        lap = np.zeros((n, n))
        idx = np.arange(1, n - 1)
        lap[idx, idx - 1] = 1.0
        lap[idx, idx] = -2.0
        lap[idx, idx + 1] = 1.0
        # End rows stay zero.  Extrapolated (or one-sided) curvature rows at
        # the wall, fed through the dense PV matrix, create a single
        # wall-localized eigenpair with Re(lambda) ~ +38 that destroys the
        # run by t ~ 1; with zero end rows the generator is skew to machine
        # precision.  The price is an O(dx^2) one-node quadrature defect in
        # the dispersion integral at each end.
        self.lap = lap / dx**2
        grad = np.zeros((n, n))
        grad[idx, idx + 1] = 0.5
        grad[idx, idx - 1] = -0.5
        grad[0, :3] = [-1.5, 2.0, -0.5]
        grad[-1, -3:] = [0.5, -2.0, 1.5]
        self.grad = grad / dx
        # lifting profile: chi(0) = 1, flat at the wall, gone by mid-domain
        self.chi = np.exp(-x**2)
        self.chi_xx = (4.0 * x**2 - 2.0) * np.exp(-x**2)
        self.h_chi_term = self.hilbert_mat @ self.chi_xx
        amat = -self.hilbert_mat @ self.lap
        amat[0, :] = 0.0
        amat[-1, :] = 0.0
        self.amat = amat

    # -- diagnostics -----------------------------------------------------------

    def hilbert_fft_crosscheck(self) -> float:
        """Relative mismatch between the dense PV route and the zero-extension
        FFT route for the dispersion operator, on a smooth test function."""
        f = self.x * np.exp(-((self.x - 6.0) / 2.0) ** 2)
        direct = self.hilbert_mat @ f
        wg = WholeLineGrid(n=1 << 15, dx=self.dx, x0=-self.dx * (1 << 14))
        ext = np.zeros(wg.n)
        i0 = wg.index_of(0.0)
        ext[i0:i0 + self.x.size] = f
        via_fft = hilbert_whole_line(wg, ext)[i0:i0 + self.x.size] / np.pi
        keep = slice(8, -8)
        return float(np.linalg.norm(direct[keep] - via_fft[keep])
                     / np.linalg.norm(via_fft[keep]))

    def stability_certificate(self, dt: float | None = None) -> float:
        """Spectral radius of the implicit stepping matrix (I - dt A)^{-1}."""
        dt = dt or self.config.mol_dt
        n = self.x.size
        step = np.linalg.inv(np.eye(n) - dt * self.amat)
        return float(np.max(np.abs(np.linalg.eigvals(step))))

    # -- stepping --------------------------------------------------------------

    def _rhs_explicit(self, v: np.ndarray, t: float) -> np.ndarray:
        h_t = float(self.h(np.array([t]))[0])
        hp_t = float(self.h.deriv(np.array([t]))[0])
        w = v + h_t * self.chi
        out = -0.5 * (self.grad @ w**2) - hp_t * self.chi - h_t * self.h_chi_term
        out[0] = 0.0
        out[-1] = 0.0
        return out

    def run(self, t_final: float | None = None, dt: float | None = None,
            save_times: np.ndarray | None = None) -> MolResult:
        cfg = self.config
        t_final = t_final if t_final is not None else cfg.t_final
        dt = dt or cfg.mol_dt
        n_steps = int(round(t_final / dt))
        dt = t_final / n_steps
        if save_times is None:
            save_times = np.linspace(0.0, t_final, 9)
        save_times = np.asarray(save_times, dtype=float)
        save_steps = {int(round(ts / dt)): k for k, ts in enumerate(save_times)}
        for ts in save_times:
            if abs(round(ts / dt) * dt - ts) > 1.0e-9 + 1.0e-9 * abs(ts):
                raise ValueError(f"save time {ts} is not a multiple of dt={dt}")

        n = self.x.size
        lu = lu_factor(np.eye(n) - dt * self.amat)
        h0 = float(self.h(np.array([0.0]))[0])
        v = self.psi(self.x) - h0 * self.chi
        v[0] = 0.0
        v[-1] = 0.0
        out = np.zeros((save_times.size, n))
        if 0 in save_steps:
            out[save_steps[0]] = v + h0 * self.chi

        l2_start = float(np.sqrt(self.dx) * np.linalg.norm(v + h0 * self.chi))
        for step in range(1, n_steps + 1):
            t_prev = (step - 1) * dt
            v = lu_solve(lu, v + dt * self._rhs_explicit(v, t_prev))
            v[0] = 0.0
            v[-1] = 0.0
            if step in save_steps:
                h_t = float(self.h(np.array([step * dt]))[0])
                out[save_steps[step]] = v + h_t * self.chi
        h_end = float(self.h(np.array([t_final]))[0])
        u_end = v + h_end * self.chi
        l2_end = float(np.sqrt(self.dx) * np.linalg.norm(u_end))
        drift = abs(l2_end - l2_start) / max(l2_start, 1.0e-30)
        rho = self.stability_certificate(dt)
        return MolResult(x=self.x.copy(), times=save_times, values=out,
                         l2_drift=drift, spectral_radius=rho,
                         meta={"dt": dt, "n_steps": n_steps})

    def step_doubling_error(self, t_final: float = 0.5) -> float:
        """Relative change at t_final when the step is halved; a time
        convergence certificate."""
        dt = self.config.mol_dt
        save = np.array([0.0, t_final])
        coarse = self.run(t_final, dt, save).values[-1]
        fine = self.run(t_final, dt / 2.0, save).values[-1]
        return float(np.linalg.norm(fine - coarse)
                     / max(np.linalg.norm(fine), 1.0e-30))
