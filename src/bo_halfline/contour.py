"""Contour quadrature primitives: rays, axis samplings, Cauchy/Plemelj limits.

Everything downstream (symbol integrals, operator kernels) is built from two
node generators -- log-graded Gauss-Legendre panels along a ray, and a
two-sided sampling of the imaginary axis -- the damped-ray inversion both
operator kernels share, and two classical operations:
the off-axis Cauchy transform and its one-sided boundary values.  The
boundary values take the principal value with the singular point on the
contour, pole-subtracted, on nodes paired symmetrically about it, with
excision radius ``1e-6 * scale``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PV_EXCISION_FACTOR = 1.0e-6
#: Relative tail an AxisSampling discards, for a unit-scale integrand.
AXIS_TAIL_TOL = 1.0e-10


#: Gauss-Legendre points on every panel of ``log_graded_nodes``, and the rule.
POINTS_PER_PANEL = 10
_GL_X, _GL_W = np.polynomial.legendre.leggauss(POINTS_PER_PANEL)


def log_graded_nodes(r_min: float, r_max: float, points_per_decade: int):
    """Gauss-Legendre nodes and weights on geometrically spaced panels of
    [r_min, r_max], as many panels as give the density points_per_decade."""
    decades = np.log10(r_max / r_min)
    n_panels = max(1, int(np.ceil(decades * points_per_decade / POINTS_PER_PANEL)))
    edges = r_min * (r_max / r_min) ** (np.arange(n_panels + 1) / n_panels)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * _GL_X[None, :]).ravel()
    weights = (half[:, None] * _GL_W[None, :]).ravel()
    return nodes, weights


def symbol_contour(angle: float, r_min: float = 1.0e-6, r_max: float = 1.0e6,
                   points_per_decade: int = 24) -> tuple[np.ndarray, np.ndarray]:
    """Nodes q and dq-weights of the keyhole-free chain: the down-ray at
    -angle traversed inward, then the up-ray at +angle outward.  ``angle`` is
    measured from the positive real axis."""
    r, wr = log_graded_nodes(r_min, r_max, points_per_decade)
    down = np.exp(-1j * angle)
    up = np.exp(1j * angle)
    q = np.concatenate([(r * down)[::-1], r * up])
    dq = np.concatenate([(-wr * down)[::-1], wr * up])
    return q, dq


class DampedRay:
    """Damped-ray inversion shared by the Green and boundary kernels:

        R[f] = Im f(i) + (1/pi) Im int_0^infty f(s) e^{i theta}/(1+s^2) dr,

    with s = r e^{i theta} -- the residue bracket at s = i plus the damped
    integral along the rotated ray.  ``r, wr`` are the radial nodes and
    weights; ``coef`` is the whole ray weight wr e^{i theta}/(1+s^2)."""

    def __init__(self, r: np.ndarray, wr: np.ndarray, theta: float):
        self.r = r
        self.phase = np.exp(1j * theta)
        self.s = r * self.phase
        self.coef = wr * self.phase / (1.0 + self.s**2)

    def smooth(self, rows: np.ndarray) -> np.ndarray:
        """(1/pi) Im int f(s) e^{i theta}/(1+s^2) dr for samples f(s) with
        the ray on axis 0."""
        return np.imag(self.coef @ rows) / math.pi

    def __call__(self, at_i, rows: np.ndarray) -> np.ndarray:
        """R[f] from f(i) and the ray samples ``rows``."""
        return np.imag(at_i) + self.smooth(rows)


@dataclass(frozen=True)
class AxisSampling:
    """Two-sided sampling of the imaginary axis, graded about a center.

    ``decay_exponent`` is the integrand's large-|q| power decay; the outer
    truncation radius is chosen adaptively so the discarded tail is below
    AXIS_TAIL_TOL, capped at 1e12*scale.
    """

    scale: float = 1.0
    decay_exponent: float = 2.0
    points_per_decade: int = 24

    @property
    def r_max(self) -> float:
        if self.decay_exponent <= 1.0:
            raise ValueError("decay_exponent must exceed 1 for an adaptive tail")
        # Cap in log space: for decay exponents barely above 1 the adaptive
        # radius overflows a double long before the cap would apply.
        log_r = -math.log10(AXIS_TAIL_TOL) / (self.decay_exponent - 1.0)
        if log_r >= 12.0:
            return 1.0e12 * self.scale
        return self.scale * 10.0 ** log_r

    def nodes(self, center: float, u_min: float):
        """Nodes q = iy and dq-weights paired about y = center, traversal
        order -i*inf -> +i*inf, reaching past both the adaptive radius and
        |center|."""
        u_max = max(self.r_max, 10.0 * abs(center) + self.scale)
        return axis_nodes(center, u_min, u_max, self.points_per_decade)


def axis_nodes(center: float, u_min: float, u_max: float,
               points_per_decade: int):
    """Nodes q = iy and dq-weights for log-graded y = center +/- u, u in
    [u_min, u_max], paired exactly about the center."""
    r, wr = log_graded_nodes(u_min, u_max, points_per_decade)
    y = np.concatenate([center - r[::-1], center + r])
    wy = np.concatenate([wr[::-1], wr])
    return 1j * y, 1j * wy


def cauchy_transform(phi, z: complex, sampling: AxisSampling) -> complex:
    """(1/2 pi i) * integral over the upward imaginary axis of phi(q)/(q - z).

    ``z`` must sit off the axis; the quadrature grid is re-centered on Im z so
    the near-pole scale |Re z| is resolved, and the short symmetric gap across
    the center is patched with the analytic log term.
    """
    d = float(np.real(z))
    if d == 0.0:
        raise ValueError("cauchy_transform requires Re z != 0; use plemelj_limits")
    c = float(np.imag(z))
    u_min = abs(d) / 10.0
    q, w = sampling.nodes(c, u_min)
    total = np.sum(phi(q) * w / (q - z))
    # Analytic patch for the excised segment q = i(c-u_min) .. i(c+u_min):
    # the antiderivative log(q - z) changes by 2i atan(u_min / -d) along the
    # vertical segment (the endpoint moduli agree, and the continuous
    # argument increment never wraps).  A principal-log difference would add
    # a spurious full residue when the segment crosses the cut (Re z > 0).
    gap = phi(1j * c) * 2j * math.atan(u_min / -d)
    return complex((total + gap) / (2j * np.pi))


def plemelj_limits(phi, p: complex, sampling: AxisSampling):
    """One-sided boundary values (P_plus, P_minus) of the Cauchy transform at
    p on the imaginary axis; plus = limit from Re z < 0 (left of upward travel).

    Computed as principal value (pole-subtracted) plus/minus half the density.
    """
    c = float(np.imag(p))
    p = 1j * c
    q, w = sampling.nodes(c, sampling.scale * PV_EXCISION_FACTOR)
    phi_p = phi(np.array([p]))[0]
    pv = np.sum((phi(q) - phi_p) * w / (q - p)) / (2j * np.pi)
    return complex(pv + 0.5 * phi_p), complex(pv - 0.5 * phi_p)


def winding_index(values: np.ndarray) -> float:
    """Total argument increment / 2 pi along an ordered sample of a non-vanishing
    function (append the first sample to close a loop).  Consecutive jumps at
    or above pi mean the sampling cannot be unwrapped reliably and raise
    ValueError (refine the sampling instead)."""
    values = np.asarray(values)
    if np.any(values == 0) or not np.all(np.isfinite(values)):
        raise ValueError("winding_index requires finite nonzero samples")
    increments = np.angle(values[1:] / values[:-1])
    if np.any(np.abs(increments) >= np.pi * (1.0 - 1.0e-9)):
        raise ValueError("argument jump >= pi between samples; sampling too coarse")
    return float(np.sum(increments) / (2.0 * np.pi))
