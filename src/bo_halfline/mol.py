"""Method-of-lines reference discretization on a truncated half line.

This is the cross-validation arm: a plain finite-difference scheme that knows
nothing about contour integrals.  The nonlocal dispersion is a dense
principal-value matrix on the uniform grid (with an FFT crosscheck of the
zero-extension identity), the inhomogeneous boundary value is lifted with a
Gaussian cutoff so the evolved unknown vanishes at both ends, and time
stepping is semi-implicit: the linear dispersive part through one inverted
step matrix S = (I - dt A)^{-1}, explicit conservative transport for the rest.
Stepping with S is one matrix-vector product per step, cheaper than the two
triangular solves of an LU factorization.

The run certifies that same S by an upper bound on its spectral radius.  The
end rows of A are zero, so S has unit end rows and eig(S) = {1, 1} and the
eigenvalues of its interior block S_ii.  On the interior A = H K with H skew
and K = tridiag(-1, 2, -1)/dx^2 positive definite, so A is skew in the
energy <v, K v> and S_ii is a contraction in the K-norm (Crank & Nicolson
1947; Ascher, Ruuth & Wetton 1995).  max(1, ||S_ii||_K) is never below the
radius and reads 1 to round-off.  It costs an O(n^2) similarity by the
bidiagonal Cholesky factor of K, one Gram matrix and its top symmetric
eigenvalue, instead of a dense nonsymmetric eigensolve."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cholesky_banded, inv
from scipy.linalg.lapack import dsyevr

from .config import RunConfig
from .halfline import (WholeLineGrid, hilbert_whole_line, make_profile,
                       node_index, pv_matrix)


def _positive(name: str, value: float) -> float:
    if not value > 0.0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return value


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
    """Semi-implicit finite-difference solver for the half-line problem.

    Each run inverts its step matrix S = (I - dt A)^{-1} once, steps with
    v <- S (v + dt f(v)) and then certifies the same S by its K-norm bound
    on the spectral radius, which consumes S."""

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
        self.hilbert_mat = -pv_matrix(x) / np.pi
        # lifting profile: chi(0) = 1, flat at the wall, gone by mid-domain
        self.chi = np.exp(-x**2)
        self.chi_xx = (4.0 * x**2 - 2.0) * np.exp(-x**2)
        self.h_chi_term = self.hilbert_mat @ self.chi_xx
        # A = -H Lap with Lap the three-point curvature on the interior rows
        # k only, so column j of H Lap is sum_k H[:, k] Lap[k, j]: three
        # shifted slices of the interior columns of H.  End rows of Lap stay
        # zero.  Extrapolated (or one-sided) curvature rows at the wall, fed
        # through the dense PV matrix, create a single wall-localized
        # eigenpair with Re(lambda) ~ +38 that destroys the run by t ~ 1;
        # with zero end rows the generator is skew to machine precision.  The
        # price is an O(dx^2) one-node quadrature defect in the dispersion
        # integral at each end.
        inner = self.hilbert_mat[:, 1:-1] * (1.0 / dx**2)
        amat = np.zeros_like(self.hilbert_mat)
        amat[:, :-2] -= inner
        amat[:, 2:] -= inner
        amat[:, 1:-1] += 2.0 * inner
        amat[0, :] = 0.0
        amat[-1, :] = 0.0
        self.amat = amat

    def gradient(self, f: np.ndarray) -> np.ndarray:
        """d/dx along the first axis: central differences inside, one-sided
        three-point stencils at both ends."""
        dx = self.dx
        out = np.empty_like(f)
        out[1:-1] = (0.5 / dx) * f[2:] - (0.5 / dx) * f[:-2]
        out[0] = (-1.5 * f[0] + 2.0 * f[1] - 0.5 * f[2]) / dx
        out[-1] = (0.5 * f[-3] - 2.0 * f[-2] + 1.5 * f[-1]) / dx
        return out

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

    def step_matrix(self, dt: float | None = None) -> np.ndarray:
        """The implicit step matrix S = (I - dt A)^{-1}."""
        dt = _positive("dt", self.config.mol_dt if dt is None else dt)
        lhs = self.amat * -dt
        lhs.flat[::self.x.size + 1] += 1.0     # I - dt A with one temporary
        # LAPACK getrf + getri in place on the transpose, a Fortran-ordered
        # view: inv(M^T)^T = inv(M) with no copy, and getri takes fewer
        # flops than solving against the identity
        return inv(lhs.T, overwrite_a=True, check_finite=False).T

    def stability_certificate(self, dt: float | None = None,
                              step: np.ndarray | None = None) -> float:
        """Upper bound max(1, ||S_ii||_K) on the spectral radius of the
        implicit step matrix S = (I - dt A)^{-1}, where S_ii is S without its
        end rows and columns and ||.||_K the operator norm of the energy
        <v, K v>, K = tridiag(-1, 2, -1)/dx^2.  ``step`` passes an S already
        formed for this ``dt``; the certificate consumes it, overwriting its
        interior.  inf when an end row of S is not exactly a unit row (the
        bound then no longer covers the end eigenvalues) or when no finite
        bound comes out."""
        if step is None:
            step = self.step_matrix(dt)
        ends = step[[0, -1]]
        unit = np.zeros_like(ends)
        unit[0, 0] = unit[-1, -1] = 1.0
        if not np.array_equal(ends, unit):
            return float("inf")
        # K = L L^T with L lower bidiagonal (diagonal l, subdiagonal m);
        # ||S_ii||_K is the 2-norm of B = L^T S_ii L^{-T}, formed in place
        n_in = step.shape[0] - 2
        band = np.empty((2, n_in))
        band[0] = 2.0 / self.dx**2
        band[1] = -1.0 / self.dx**2
        l, m = cholesky_banded(band, lower=True)
        b = step[1:-1, 1:-1]
        for i in range(n_in - 1):          # rows: b_i <- l_i b_i + m_i b_i+1
            b[i] *= l[i]
            b[i] += m[i] * b[i + 1]
        b[-1] *= l[-1]
        b[:, 0] /= l[0]
        for j in range(1, n_in):           # columns: solve against L^T
            b[:, j] -= m[j - 1] * b[:, j - 1]
            b[:, j] /= l[j]
        # ||B||^2 is the top eigenvalue of the Gram matrix; its transpose is
        # Fortran-ordered, so LAPACK works on it in place with no copy
        gram = b.T @ b
        if not np.isfinite(np.trace(gram)):     # sums every b_ij^2
            return float("inf")
        top, _, _, _, info = dsyevr(gram.T, compute_v=0, range="I",
                                    il=n_in, iu=n_in, overwrite_a=1)
        if info != 0:
            # the bisection behind range "I" fails on a Gram matrix that is
            # the identity to rounding (its Sturm counts are not monotone in
            # a tight cluster at 1); it has overwritten the matrix, so rebuild
            # it in place and take the whole spectrum, which dsyevr then gets
            # from root-free QR (dsterf) at the same reduction cost
            np.matmul(b.T, b, out=gram)
            every, _, _, _, info = dsyevr(gram.T, compute_v=0, range="A",
                                          overwrite_a=1)
            top = every[-1:]
        return max(1.0, float(np.sqrt(top[0]))) if info == 0 else float("inf")

    # -- stepping --------------------------------------------------------------

    def _dirichlet_energy(self, u: np.ndarray) -> float:
        """The discrete Dirichlet energy (1/2) sum (u_{i+1} - u_i)^2 / dx."""
        return float(0.5 * np.sum(np.diff(u) ** 2) / self.dx)

    def _rhs_explicit(self, v: np.ndarray, t: float) -> np.ndarray:
        h_t = float(self.h(np.array([t]))[0])
        hp_t = float(self.h.deriv(np.array([t]))[0])
        w = v + h_t * self.chi
        out = -0.5 * self.gradient(w**2) - hp_t * self.chi - h_t * self.h_chi_term
        out[0] = 0.0
        out[-1] = 0.0
        return out

    def run(self, t_final: float | None = None, dt: float | None = None,
            save_times: np.ndarray | None = None) -> MolResult:
        result, step_mat = self._march(t_final, dt, save_times)
        t0 = time.perf_counter()
        result.spectral_radius = self.stability_certificate(
            result.meta["dt"], step=step_mat)
        result.meta["certificate_s"] = time.perf_counter() - t0
        return result

    def _march(self, t_final: float | None, dt: float | None,
               save_times: np.ndarray | None) -> tuple[MolResult, np.ndarray]:
        """The stepped run without its certificate (spectral radius NaN),
        and the step matrix it stepped with.  ``meta`` carries the relative
        drift of the discrete Dirichlet energy next to ``l2_drift``."""
        cfg = self.config
        t_final = t_final if t_final is not None else cfg.t_final
        t_final = _positive("t_final", t_final)
        dt = _positive("dt", cfg.mol_dt if dt is None else dt)
        n_steps = max(1, int(round(t_final / dt)))
        dt = t_final / n_steps
        if save_times is None:
            save_times = np.linspace(0.0, t_final, 9)
        save_times = np.asarray(save_times, dtype=float)
        save_steps = {}
        for k, ts in enumerate(save_times):
            step = int(round(ts / dt))
            if abs(step * dt - ts) > 1.0e-9 + 1.0e-9 * abs(ts):
                raise ValueError(f"save time {ts} is not a multiple of dt={dt}")
            if not 0 <= step <= n_steps:
                raise ValueError(f"save time {ts} is outside [0, {t_final}]")
            if step in save_steps:
                raise ValueError(f"save time {ts} is given twice")
            save_steps[step] = k

        n = self.x.size
        t0 = time.perf_counter()
        step_mat = self.step_matrix(dt)
        t1 = time.perf_counter()
        h0 = float(self.h(np.array([0.0]))[0])
        v = self.psi(self.x) - h0 * self.chi
        v[0] = 0.0
        v[-1] = 0.0
        out = np.zeros((save_times.size, n))
        u_start = v + h0 * self.chi
        if 0 in save_steps:
            out[save_steps[0]] = u_start

        l2_start = float(np.sqrt(self.dx) * np.linalg.norm(u_start))
        energy_start = self._dirichlet_energy(u_start)
        for step in range(1, n_steps + 1):
            t_prev = (step - 1) * dt
            v = step_mat @ (v + dt * self._rhs_explicit(v, t_prev))
            v[0] = 0.0
            v[-1] = 0.0
            if step in save_steps:
                h_t = float(self.h(np.array([step * dt]))[0])
                out[save_steps[step]] = v + h_t * self.chi
        h_end = float(self.h(np.array([t_final]))[0])
        u_end = v + h_end * self.chi
        l2_end = float(np.sqrt(self.dx) * np.linalg.norm(u_end))
        drift = abs(l2_end - l2_start) / max(l2_start, 1.0e-30)
        energy_end = self._dirichlet_energy(u_end)
        energy_drift = (abs(energy_end - energy_start)
                        / max(energy_start, 1.0e-30))
        return MolResult(x=self.x.copy(), times=save_times, values=out,
                         l2_drift=drift, spectral_radius=float("nan"),
                         meta={"dt": dt, "n_steps": n_steps,
                               "energy_drift": energy_drift,
                               "step_matrix_s": t1 - t0,
                               "steps_s": time.perf_counter() - t1}), step_mat

    def step_doubling_error(self, t_final: float = 0.5) -> float:
        """Relative change at t_final when the step is halved; a time
        convergence certificate.  Neither run is certified."""
        dt = self.config.mol_dt
        save = np.array([0.0, t_final])
        coarse = self._march(t_final, dt, save)[0].values[-1]
        fine = self._march(t_final, dt / 2.0, save)[0].values[-1]
        return float(np.linalg.norm(fine - coarse)
                     / max(np.linalg.norm(fine), 1.0e-30))
