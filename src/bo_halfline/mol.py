"""Method-of-lines reference discretization on a truncated half line.

This is the cross-validation arm: a plain finite-difference scheme that knows
nothing about contour integrals.  The nonlocal dispersion is the midpoint
principal-value matrix on the uniform grid, the Toeplitz matrix of the symbol
c_k = -1/(pi k), c_0 = 0, from which the operators are built (with an FFT
crosscheck of the zero-extension identity), the inhomogeneous boundary value
is lifted with a Gaussian cutoff so the evolved unknown vanishes at both ends,
and time stepping is semi-implicit: the linear dispersive part through one
inverted step matrix S = (I - dt A)^{-1}, explicit conservative transport for
the rest.  The unknown is zero at both ends, so A and S act on the
mol_n - 1 interior nodes only.  Stepping with S is one matrix-vector product
per step, cheaper than the two triangular solves of an LU factorization.

The run certifies that same S by an upper bound on its spectral radius.  On
the interior A = H K with H skew and K = tridiag(-1, 2, -1)/dx^2 positive
definite, so A is skew in the energy <v, K v> and S is a contraction in the
K-norm (Crank & Nicolson 1947; Ascher, Ruuth & Wetton 1995).  max(1,
||S||_K) is never below the radius, nor below that of the step on all
nodes, whose eigenvalues are 1, 1 and those of S.  It costs an O(n^2)
similarity by the bidiagonal Cholesky factor of K, one Gram triangle and one
Cholesky test instead of a dense eigensolve."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import cholesky_banded, inv
from scipy.linalg.blas import dsyrk
from scipy.linalg.lapack import dpotrf, dsyevr, dtbtrs

from .config import RunConfig
from .halfline import (RampExp, WholeLineGrid, hilbert_whole_line, l2_norm,
                       make_profile, node_index)


def _positive(name: str, value: float) -> float:
    if not value > 0.0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return value


def _toeplitz(seq: np.ndarray) -> np.ndarray:
    """The read-only m x m Toeplitz view T[i, j] = seq[j - i + m - 1] of a
    sequence of length 2m - 1, in the sequence's own O(m) memory."""
    return sliding_window_view(seq, (seq.size + 1) // 2)[::-1]


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
        self.h = RampExp(cfg.data_scale)
        t0 = time.perf_counter()
        self._build_operators()
        self.build_s = time.perf_counter() - t0

    def _build_operators(self) -> None:
        x, dx = self.x, self.dx
        # the symbol c_k = -1/(pi k) for |k| < x.size, exactly skew
        c = -1.0 / (np.pi * np.arange(1.0, x.size))
        c = self.symbol = np.concatenate([-c[::-1], [0.0], c])
        hilbert = _toeplitz(c)              # H[i, j] = c_{j-i}
        # lifting profile: chi(0) = 1, flat at the wall, gone by mid-domain
        self.chi = np.exp(-x**2)
        self.chi_xx = (4.0 * x**2 - 2.0) * np.exp(-x**2)
        self.h_chi_term = hilbert @ self.chi_xx
        # A = -H Lap on the interior rows and columns, with Lap the
        # three-point curvature, so column j of H Lap is sum_k H[:, k]
        # Lap[k, j] over interior k.  Where j - 1, j and j + 1 are all
        # interior that is Toeplitz too, with the second difference of c as
        # its symbol; the first and last columns lose the stencil entry on an
        # end node and are rebuilt from c.  Extrapolated (or one-sided)
        # curvature rows at the wall, fed through the PV matrix, create a
        # single wall-localized eigenpair with Re(lambda) ~ +38 that destroys
        # the run by t ~ 1; on the interior alone the generator is skew in
        # the energy to machine precision.  The price is an O(dx^2) one-node
        # quadrature defect in the dispersion integral at each end.
        amat = _toeplitz((2.0 * c[2:-2] - (c[3:-1] + c[1:-3])) / dx**2).copy()
        ends = hilbert[1:-1, [1, 2, -3, -2]] / dx**2
        amat[:, 0] = 2.0 * ends[:, 0] - ends[:, 1]
        amat[:, -1] = 2.0 * ends[:, 3] - ends[:, 2]
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
        """Relative mismatch between the PV matrix route and the
        zero-extension FFT route for the dispersion operator, on a smooth
        test function."""
        f = self.x * np.exp(-((self.x - 6.0) / 2.0) ** 2)
        direct = _toeplitz(self.symbol) @ f
        wg = WholeLineGrid(n=1 << 15, dx=self.dx, x0=-self.dx * (1 << 14))
        ext = np.zeros(wg.n)
        i0 = wg.index_of(0.0)
        ext[i0:i0 + self.x.size] = f
        via_fft = hilbert_whole_line(wg, ext)[i0:i0 + self.x.size] / np.pi
        keep = slice(8, -8)
        return float(np.linalg.norm(direct[keep] - via_fft[keep])
                     / np.linalg.norm(via_fft[keep]))

    def step_matrix(self, dt: float | None = None) -> np.ndarray:
        """The implicit step matrix S = (I - dt A)^{-1} on the interior."""
        dt = _positive("dt", self.config.mol_dt if dt is None else dt)
        lhs = self.amat * -dt
        lhs.flat[::lhs.shape[0] + 1] += 1.0    # I - dt A with one temporary
        # LAPACK getrf + getri in place on the transpose, a Fortran-ordered
        # view: inv(M^T)^T = inv(M) with no copy, and getri takes fewer
        # flops than solving against the identity
        return inv(lhs.T, overwrite_a=True, check_finite=False).T

    def stability_certificate(self, step: np.ndarray,
                              meta: dict | None = None) -> float:
        """Upper bound max(1, ||S||_K) on the spectral radius of the implicit
        step matrix ``step``, S = (I - dt A)^{-1} on the interior, where
        ||.||_K is the operator norm of the energy <v, K v>, K =
        tridiag(-1, 2, -1)/dx^2; it bounds the step on all nodes too, whose
        eigenvalues are 1, 1 and those of S.  The certificate consumes S
        (``step_matrix`` forms it).  With G the order-n Gram matrix of top
        eigenvalue max(1, ||S||_K)^2 and delta = 16 n eps, the bound is
        sqrt(1 + 2 delta) if I - G/(1 + delta) has a Cholesky factor, the
        second delta for rounding in G of typical size n eps (worst case
        n^2 eps; Higham 2002, ch. 10), to which the eigenvalue is also only
        accurate; else the eigenvalue's root.  inf when no finite bound
        comes out.  ``meta``, if given, gets ``certificate_route``:
        ``cholesky``, ``eigen``, or ``none`` for a non-finite Gram matrix."""
        meta = {} if meta is None else meta
        meta["certificate_route"] = "none"
        # K = L L^T with L lower bidiagonal (diagonal l, subdiagonal m);
        # ||S||_K is the 2-norm of B = L^T S L^{-T}, formed in place
        n = step.shape[0]
        band = np.outer([2.0, -1.0], np.full(n, 1.0 / self.dx**2))
        factor = cholesky_banded(band, lower=True)
        l, m = factor
        for i in range(n - 1):             # rows: s_i <- l_i s_i + m_i s_i+1
            step[i] *= l[i]
            step[i] += m[i] * step[i + 1]
        step[-1] *= l[-1]
        # columns: S <- S L^{-T}, one banded triangular solve in place on
        # the Fortran-ordered S^T, which dsyrk then reads to write the
        # triangle dpotrf and dsyevr read
        step = dtbtrs(factor, step.T, uplo="L", overwrite_b=1)[0].T
        delta = 16.0 * n * np.finfo(float).eps
        gram = dsyrk(-1.0 / (1.0 + delta), step.T, beta=1.0,
                     c=np.eye(n, order="F"), overwrite_c=1)
        if not np.isfinite(np.trace(gram)):     # n - sum s_ij^2 / (1 + delta)
            return float("inf")
        if dpotrf(gram, overwrite_a=1, clean=0)[1] == 0:
            meta["certificate_route"] = "cholesky"
            return float(np.sqrt(1.0 + 2.0 * delta))
        meta["certificate_route"] = "eigen"
        gram = dsyrk(1.0, step.T, c=gram, overwrite_c=1)
        top, _, _, _, info = dsyevr(gram, compute_v=0, range="I",
                                    il=n, iu=n, overwrite_a=1)
        return max(1.0, float(np.sqrt(top[0]))) if info == 0 else float("inf")

    # -- stepping --------------------------------------------------------------

    def _dirichlet_energy(self, u: np.ndarray) -> float:
        """The discrete Dirichlet energy (1/2) sum (u_{i+1} - u_i)^2 / dx."""
        return float(0.5 * np.sum(np.diff(u) ** 2) / self.dx)

    def _rhs_explicit(self, v: np.ndarray, h_t: float,
                      hp_t: float) -> np.ndarray:
        """The explicit part on the interior nodes at a time where h = h_t
        and h' = hp_t."""
        w = v + h_t * self.chi
        out = -0.5 * self.gradient(w**2) - hp_t * self.chi - h_t * self.h_chi_term
        return out[1:-1]

    def run(self, t_final: float | None = None,
            save_times: np.ndarray | None = None) -> MolResult:
        result, step_mat = self._march(t_final, self.config.mol_dt, save_times)
        t0 = time.perf_counter()
        result.spectral_radius = self.stability_certificate(
            step_mat, meta=result.meta)
        result.meta["certificate_s"] = time.perf_counter() - t0
        return result

    def _march(self, t_final: float | None, dt: float,
               save_times: np.ndarray | None) -> tuple[MolResult, np.ndarray]:
        """The stepped run without its certificate (spectral radius NaN),
        and the step matrix it stepped with.  ``meta`` carries the relative
        drift of the discrete Dirichlet energy next to ``l2_drift``."""
        t_final = _positive("t_final", self.config.t_final
                            if t_final is None else t_final)
        dt = _positive("dt", dt)
        n_steps = max(1, int(round(t_final / dt)))
        dt = t_final / n_steps
        if save_times is None:      # the distinct steps nearest 9 even times
            save_times = np.unique(np.rint(np.linspace(0.0, n_steps, 9))) * dt
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
        t_k = np.arange(n_steps + 1) * dt       # every step time, one call
        h_k, hp_k = self.h(t_k), self.h.deriv(t_k)
        v = np.zeros(n)                     # the lifted unknown: 0 at both ends
        v[1:-1] = (self.psi(self.x) - h_k[0] * self.chi)[1:-1]
        out = np.zeros((save_times.size, n))
        u_start = v + h_k[0] * self.chi
        if 0 in save_steps:
            out[save_steps[0]] = u_start

        # the rectangle rule: with u(0, t) = h(t) != 0 a trapezoid rule differs
        l2_start = float(l2_norm(u_start, self.dx))
        energy_start = self._dirichlet_energy(u_start)
        for step in range(1, n_steps + 1):
            v[1:-1] = step_mat @ (v[1:-1] + dt * self._rhs_explicit(
                v, h_k[step - 1], hp_k[step - 1]))
            if step in save_steps:
                out[save_steps[step]] = v + h_k[step] * self.chi
        h_end = float(self.h(np.array([t_final]))[0])
        u_end = v + h_end * self.chi
        l2_end = float(l2_norm(u_end, self.dx))
        drift = abs(l2_end - l2_start) / max(l2_start, 1.0e-30)
        energy_end = self._dirichlet_energy(u_end)
        energy_drift = (abs(energy_end - energy_start)
                        / max(energy_start, 1.0e-30))
        return MolResult(x=self.x.copy(), times=save_times, values=out,
                         l2_drift=drift, spectral_radius=float("nan"),
                         meta={"dt": dt, "n_steps": n_steps,
                               "energy_drift": energy_drift,
                               "build_s": self.build_s,
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
