"""Boundary-data operator: the map from Dirichlet data h to the solution.

In transform variables the operator is carried by the boundary symbol
psi_boundary(s) alone; undoing the transforms gives a causal space-time
convolution with a self-similar kernel,

    B(t) h (x) = int_0^t H(x, t - tau) h(tau) dtau,
    H(x, sigma) = sigma^{-1} hprofile(x sigma^{-1/2}),

so the L^2 decay rates t^{-3/4 - n/2} are exact once the profile norms are
known.  The profile itself has a closed form: pushing the oscillatory
u-integrals through the damped ray turns them into Gaussian-Laplace moments

    M_n(a, X) = int_0^infty u^n e^{-a u^2 - X u} du,

which satisfy a two-term recursion seeded by the Faddeeva function.  The
Dirichlet trace identity 2 int hprofile(X)/X dX = 1 (equivalently the
vanishing of hprofile at 0) is parameter-free and selects the boundary-symbol
variant; it is evaluated on the tabulated profile (``trace_profile_side``).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.interpolate import CubicSpline, PPoly
from scipy.special import wofz

from .contour import DampedRay, log_graded_nodes
from .green import GreenGrids, RayKernel, RayLayout
from .halfline import lattice_args
from .green import fresnel_weights  # noqa: F401  (the benchmark reads it here)
from .halfline import laplace_matrix  # noqa: F401  (the benchmark reads it here)
from .symbols import Symbols

#: Lags of the causal convolution on (0, 1]; H is self-similar, so time t
#: scales them by t.
_UNIT_LAGS = log_graded_nodes(1.0e-12, 1.0, 16)


def gaussian_laplace_moments(a, X, n_max: int = 2) -> list[np.ndarray]:
    """M_n(a, X) for n = 0..n_max, broadcasting a (..., 1) against X (1, ...).

    Requires Re a > 0; stable for all X >= 0 via the Faddeeva function
    evaluated in the upper half plane."""
    a = np.asarray(a, dtype=complex)
    X = np.asarray(X, dtype=float)
    sqa = np.sqrt(a)
    zeta = 0.5j * X / sqa
    m0 = 0.5 * math.sqrt(math.pi) / sqa * wofz(zeta)
    out = [m0]
    if n_max >= 1:
        out.append((1.0 - X * m0) / (2.0 * a))
    for n in range(1, n_max):
        out.append((n * out[n - 1] - X * out[n]) / (2.0 * a))
    return out


class BoundaryKernel:
    """Self-similar boundary kernel and its application routes."""

    X_MIN = 1.0e-3
    X_MAX = 1.0e3
    #: Angle of the damped ray of the u-moment inversions, pi/16 past the
    #: imaginary axis (a choice of the method, like ``green.RAY_THETA``).
    THETA_U = math.pi / 2.0 + math.pi / 16

    def __init__(self, symbols: Symbols):
        self.symbols = symbols
        # the 1/X tail of the profile is fed by ray radii r ~ X^2, so the ray
        # must extend well past X_MAX^2 or the tail table (and its fit) sag
        self.ray = DampedRay(*log_graded_nodes(1.0e-7, 1.0e11, 24),
                             self.THETA_U)
        self.psi_ray = symbols.direction(self.ray.phase).scalars(self.ray.r)["psi_b"]
        self.psi_unit = complex(symbols.direction(1j).scalars(np.array([1.0]))["psi_b"][0])
        self._build_profile()

    # -- profile construction ----------------------------------------------

    def _invert(self, f_unit, f_ray: np.ndarray) -> np.ndarray:
        """Damped-ray inversion of Psi_B f from f(i) and f on the ray (ray on
        axis 0): the common contraction for every u-moment of the kernel."""
        psi = self.psi_ray.reshape((-1,) + (1,) * (np.ndim(f_ray) - 1))
        return self.ray(self.psi_unit * f_unit, psi * f_ray)

    def _profile_values(self, X: np.ndarray, order: int) -> np.ndarray:
        """(1/pi) times the order-(order+1) u-moment contraction at each X."""
        n = order + 1
        m_unit = gaussian_laplace_moments(-1j, X, n)[n]
        m_ray = gaussian_laplace_moments(-self.ray.s[:, None], X[None, :], n)[n]
        return self._invert(m_unit, m_ray) / math.pi

    def _build_profile(self) -> None:
        X = np.concatenate([[0.0], np.geomspace(self.X_MIN, self.X_MAX,
                                                int(24 * 6) + 1)])
        h = self._profile_values(X, 0)
        hp = -self._profile_values(X, 1)
        self.h_at_zero = float(h[0])
        self.hp_at_zero = float(hp[0])
        self._X_grid = X
        # profile and slope tables on X > 0, indexed by derivative order, and
        # one piecewise cubic in log X whose columns are their splines
        self._tables = (h, hp)
        splines = [CubicSpline(np.log(X[1:]), v[1:]) for v in self._tables]
        self._spline = PPoly(np.stack([sp.c for sp in splines], axis=-1),
                             splines[0].x)
        # inverse-power tail fit over the last decade: hprofile ~ c1/X + c2/X^2
        tail = X >= self.X_MAX / 10.0
        basis = np.stack([1.0 / X[tail], 1.0 / X[tail] ** 2], axis=1)
        self._tail_h = np.linalg.lstsq(basis, h[tail], rcond=None)[0]

    def profile(self, X, deriv=0) -> np.ndarray:
        """hprofile(X) for order 0 and its slope for order 1: the shape of
        the kernel at unit time scale, at every order of ``deriv``, shape
        shape(deriv) + shape(X) (the ``lattice_args`` convention).  The
        orders share one log, one mask and one interval search."""
        X = np.asarray(X, dtype=float)
        orders = np.atleast_1d(deriv)
        out = np.empty(orders.shape + X.shape)
        lo = X < self.X_MIN
        hi = X > self.X_MAX
        mid = ~(lo | hi)
        c1, c2 = self._tail_h
        x_lo, x_hi = X[lo], X[hi]
        spline = self._spline(np.log(X[mid]))
        for row, d in zip(out, orders):
            if d == 0:
                row[lo] = self.h_at_zero + self.hp_at_zero * x_lo
                row[hi] = c1 / x_hi + c2 / x_hi ** 2
            else:
                row[lo] = self.hp_at_zero
                row[hi] = -c1 / x_hi ** 2 - 2.0 * c2 / x_hi ** 3
            row[mid] = spline[..., d]
        return out.reshape(np.shape(deriv) + X.shape)

    def kernel(self, x, sigma, deriv=0) -> np.ndarray:
        """H(x, sigma) or its x-derivative, sigma^{-1-d/2} h^{(d)}(x sigma^{-1/2}),
        at every order d of ``deriv``: x and sigma > 0 broadcast against each
        other, and the result is shape(deriv) + their shape."""
        orders = np.atleast_1d(deriv)
        sigma = np.asarray(sigma, dtype=float)
        out = self.profile(np.asarray(x, dtype=float) / np.sqrt(sigma), orders)
        for row, d in zip(out, orders.tolist()):
            row /= sigma ** (1 + d / 2)
        return out.reshape(np.shape(deriv) + out.shape[1:])

    # -- exact-rate norms ----------------------------------------------------

    def profile_l2(self, deriv: int = 0) -> float:
        core = float(np.trapezoid(self._tables[deriv]**2, self._X_grid))
        # the tail model's leading c1/X term, differentiated deriv times
        n = 2 * deriv + 1
        tail = self._tail_h[0]**2 / (n * self.X_MAX**n)
        return math.sqrt(core + tail)

    def kernel_l2(self, sigma: float, deriv: int = 0) -> float:
        """||H(., sigma)|| = sigma^{-(3 + 2 deriv)/4} ||h^{(deriv)}||, exactly."""
        return sigma ** (-(3.0 + 2.0 * deriv) / 4.0) * self.profile_l2(deriv)

    # -- trace identity (variant selector) -----------------------------------

    def trace_profile_side(self) -> float:
        """2 int_0^infty hprofile(X)/X dX via the tabulated profile."""
        X = self._X_grid[1:]
        vals = self._tables[0][1:]
        core = float(np.trapezoid(vals / X, X))
        # below X_MIN the profile is ~ h(0) + h'(0) X; the identity presumes
        # h(0) = 0 (checked separately), so only the linear part contributes.
        head = self.hp_at_zero * self.X_MIN
        tail = self._tail_h[0] / self.X_MAX + self._tail_h[1] / (2.0 * self.X_MAX**2)
        return 2.0 * (core + head + tail)

    # -- application routes ---------------------------------------------------

    def apply_convolution(self, h_callable, x: np.ndarray, t,
                          deriv=0) -> np.ndarray:
        """Causal convolution int_0^t H(x, sigma) h(t - sigma) dsigma at every
        time and order of a lattice call (see ``lattice_args``); rows with
        t <= 0 are zero.  Each time reads h and evaluates the kernel once
        for all orders."""
        x, times, orders, shape = lattice_args(x, t, deriv)
        out = np.zeros((orders.size, times.size, x.size))
        # x -> 0 limits: the Dirichlet trace for the value, zero for the
        # slope (the profile integrates to zero across scales)
        wall = x < 1.0e-7
        xs = x[~wall]
        trace = self.trace_profile_side()
        c1 = self._tail_h[0]
        for k in np.flatnonzero(times > 0.0):
            sig, wsig = times[k] * _UNIT_LAGS[0], times[k] * _UNIT_LAGS[1]
            h_end = float(np.asarray(h_callable(times[k:k + 1]), dtype=float)[0])
            hw = wsig * np.asarray(h_callable(times[k] - sig), dtype=float)
            kern = self.kernel(xs[:, None], sig[None, :], orders)
            for i, d in enumerate(orders):
                vals = kern[i] @ hw
                # analytic head below the smallest sigma node, using the tail model
                if d == 0:
                    out[i, k, wall] = trace * h_end
                    vals = vals + h_end * 2.0 * c1 * math.sqrt(sig[0]) / xs
                else:
                    vals = vals - h_end * (2.0 / 3.0) * c1 * sig[0]**1.5 / xs**2
                out[i, k, ~wall] = vals
        return out.reshape(shape)

    def spectral_kernel(self, h_hat) -> RayKernel:
        """The spectral route's kernel on the Green layout, from the rows
        f(p, s) = p Psi_B(s) h_hat(s p^2); its tail rows stay zero (the
        corner model describes E-, not Psi_B h_hat).  It holds for data whose
        transform h_hat(s p^2) is analytic on the swept sector arg s in
        [pi/2, green.RAY_THETA]: the pole of ``ramp_exp`` at arg s = pi lies
        outside."""

        def rows_at(s_hat, moduli: np.ndarray, p: np.ndarray) -> np.ndarray:
            psi = self.symbols.direction(s_hat).scalars(moduli)["psi_b"]
            return p * psi[:, None] * h_hat((moduli * s_hat)[:, None] * (p * p))

        return RayKernel(RayLayout(GreenGrids()), rows_at)

    def apply_spectral(self, h_hat, x: np.ndarray, t, deriv=0) -> np.ndarray:
        """Damped-ray spectral route at every time and order of a lattice
        call; rows with t <= 0 are zero.

        B(t)h(x) = (1/pi)(-1)^d int_0^infty e^{-p x} p^{1+d} Bker(p, t) dp with
        Bker(p,t) = Im[e^{i p^2 t} Psi_B(i) h_hat(i p^2)]
                  + (1/pi) Im int e^{s p^2 t} Psi_B(s) h_hat(s p^2)/(1+s^2) ds:
        minus the Green field of the rows p Bker (``spectral_kernel``)."""
        x, times, orders, shape = lattice_args(x, t, deriv)
        out = np.zeros((orders.size, times.size, x.size))
        live = times > 0.0
        if live.any():
            out[:, live] = -self.spectral_kernel(h_hat).field(x, times[live], orders)
        return out.reshape(shape)
