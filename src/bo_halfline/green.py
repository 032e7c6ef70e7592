"""Green operator of the linearized half-line flow.

The solution map splits as G = G1 + G2: G1 is the whole-line group acting on
the zero extension of the datum (an FFT multiplier), and G2 is the half-line
correction, a Laplace integral

    G2(t) psi(x) = -(1/pi) int_0^infty e^{-p x} K(p, t) dp,

whose kernel K is assembled from the transformed datum E-(p, s) by a damped
(rotated) Laplace inversion plus the residue bracket at s = +-i:

    K(p,t) = Im[e^{i p^2 t} E-(p, i)]
           + (1/pi) Im int_0^infty e^{s(r) p^2 t} E-(p, s(r)) / (1+s(r)^2)
                    e^{i theta0} dr,        s(r) = r e^{i theta0},

with theta0 = RAY_THETA = pi/2 + pi/8.  The equivalent principal-value form
on the imaginary axis (half residues at +-i) is kept as an independent oracle.

E- itself is evaluated through the scale-covariant split: all gamma_tilde
data comes from per-direction caches, the modulus |s| enters only through
m = p sqrt(|s|) and rho = sqrt(|s|), and the axis integral is one weight
formula (e_minus_weights).  The Green lattice takes it as a trapezoid rule
in ln V whose step is the p lattice's own, so p V lies on one geometric
lattice and each ray's row is a correlation of psi_hat samples on it
(e_minus_rows, a discrete Mellin correlation); the Duhamel propagator keeps
Gauss panels on its fixed z lattice (solver.DUHAMEL_AXIS).  Beyond the
tabulated |s| range the kernel uses the fitted asymptotic E- ~ lam1 p^{-1/2}
s^{3/4} + lam0 s (GreenGrids), and FieldAssembly turns kernel samples into the
correction field; RayKernel holds K(p, t) and that map for the E- lattice and
the boundary spectral route, and the Duhamel propagator runs them on its grid.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import gamma as gamma_fn
from scipy.special import gammainc, wofz

from .contour import DampedRay, log_graded_nodes
from .halfline import (EXP_UNDERFLOW, Profile, WholeLineGrid, laplace_matrix,
                       lattice_args)
from .symbols import TWO_PI_I, DirectionCache, Symbols

#: Prefactor of the half-line correction G2 = -(1/pi) int e^{-px} K dp.
G2_SIGN = -1.0 / np.pi

#: Angle theta0 of the damped rays s = r e^{i theta0} of every GreenGrids
#: layout, pi/8 past the imaginary axis.  The rotation inside the sector of
#: analyticity is a choice of the method: the continuum kernel K(p, t) does
#: not depend on it.
RAY_THETA = math.pi / 2.0 + math.pi / 8

# The corner model E- ~ lam1 p^{-1/2} s^{3/4} + lam0 s holds only before the
# rollover at m = p |s|^{1/2} = O(1); past it the true rows decay, and the
# damped weight 1/(1+s^2) makes their tail negligible.  Extrapolating the
# linear-in-s term past the rollover would instead inject a spurious
# p-independent constant ~ Im(lam0) log(r_top/R_MAX) into the kernel at t=0.
_TAIL_M_CUT = 0.3


#: What every GreenGrids shares: p nodes on [P_MIN, P_MAX], the ray on
#: [R_MIN, R_MAX], its tail on to TAIL_R_MAX at TAIL_PPD points per decade
#: and the E- rows' imaginary axis on [AXIS_MIN, AXIS_MAX].  P_MIN
#: sqrt(R_MAX) <= 0.1 puts the first p node in the corner that GreenGrids
#: fits.
P_MIN, P_MAX, R_MIN, R_MAX = 1.0e-6, 2.0e4, 1.0e-7, 1.0e7
TAIL_R_MAX, TAIL_PPD, AXIS_MIN, AXIS_MAX = 1.0e13, 4, 1.0e-5, 1.0e8


class GreenGrids:
    """Quadrature layout of one kernel assembly: the p nodes, the damped ray
    and its tail, the corner model of the tail rows, and the imaginary
    transform axis the E- rows integrate over.

    Rows 0..n_ray-1 of ``ray`` are the tabulated rays s = r e^{i RAY_THETA};
    the tail rows beyond R_MAX carry the corner model E- ~ lam1 p^{-1/2}
    s^{3/4} + lam0 s, fitted on the large-|s|, small-m corner of the ray
    rows.  The smooth part of K(p, t) is ``ray.smooth`` of the rows
    E-(p, s) e^{s p^2 t}.  The p nodes are the lattice P_MIN rho^j, with
    ``log_ratio`` = ln rho.

    The keywords, the p and ray densities, are what the layouts differ in;
    the rest is the constants above.  The defaults are the single-shot
    Green layout; the Duhamel propagator runs a coarser instance of the
    same class.  The axis is built on first use."""

    def __init__(self, p_ppd: int = 32, r_ppd: int = 20):
        count = int(math.ceil(math.log10(P_MAX / P_MIN) * p_ppd)) + 1
        p = self.p_nodes = np.geomspace(P_MIN, P_MAX, count)
        self.log_ratio = math.log(P_MAX / P_MIN) / (count - 1)
        r, wr = log_graded_nodes(R_MIN, R_MAX, r_ppd)
        rt, wrt = log_graded_nodes(R_MAX, TAIL_R_MAX, TAIL_PPD)
        self.n_ray = r.size
        self.ray = DampedRay(np.concatenate([r, rt]), np.concatenate([wr, wrt]),
                             RAY_THETA)
        s = self.ray.s
        self.sp2 = s[:, None] * (p**2)[None, :]
        # tail basis rows, valid only before the rollover at m = p sqrt(r) = O(1)
        s_tail = s[r.size:, None]
        valid = np.sqrt(rt)[:, None] * p[None, :] <= _TAIL_M_CUT
        self._tail_b1 = valid * s_tail ** 0.75 / np.sqrt(p)[None, :]
        self._tail_b0 = valid * s_tail
        rows = r >= R_MAX / 1.0e2
        cols = p * np.sqrt(r[rows].max()) <= 0.1
        self.corner = np.ix_(rows, cols)
        s_c = s[:r.size][rows][:, None]
        p_c = p[cols][None, :]
        self.corner_basis = np.stack([(s_c ** 0.75 / np.sqrt(p_c)).ravel(),
                                      (s_c * np.ones_like(p_c)).ravel()], axis=1)
        self._pinv = np.linalg.pinv(self.corner_basis)

    @cached_property
    def log_axis(self) -> tuple[np.ndarray, np.ndarray]:
        """The trapezoid rule in ln V at the p lattice's step, for the E-
        rows: upward nodes iV and weights i dV, V_q = AXIS_MIN rho^q from
        AXIS_MIN to the first node at or past AXIS_MAX, weights V_q ln rho
        halved at both ends, paired exactly about 0."""
        count = int(math.ceil(math.log(AXIS_MAX / AXIS_MIN)
                              / self.log_ratio)) + 1
        big_v = AXIS_MIN * np.exp(self.log_ratio * np.arange(count))
        w = big_v * self.log_ratio
        w[[0, -1]] *= 0.5
        y = np.concatenate([-big_v[::-1], big_v])
        wy = np.concatenate([w[::-1], w])
        return 1j * y, 1j * wy

    def fit_corner(self, corner: np.ndarray) -> np.ndarray:
        """Least-squares (lam1, lam0), shape (..., 2), of the corner model for
        the corner samples (..., n_corner) of filled rows, ray by ray."""
        return corner @ self._pinv.T

    def fill_tail(self, lam: np.ndarray, out: np.ndarray,
                  rows=slice(None)) -> None:
        """The corner model's tail rows ``rows`` (counted from the first tail
        row) for constants lam (..., 2), written into out (..., rows, n_p)."""
        np.multiply(lam[..., 0, None, None], self._tail_b1[rows], out=out)
        out += lam[..., 1, None, None] * self._tail_b0[rows]

    def damping(self, t: float, rows=slice(None)) -> np.ndarray:
        """e^{s p^2 t} on the rows ``rows`` of the layout and every p node
        (each entry on its own, so a chunk of rows is bitwise those rows of
        the whole lattice).  Where the real exponent is below EXP_UNDERFLOW
        the exponential is exactly 0 and is not evaluated: those entries
        have the largest imaginary parts, so they are also the slowest, and
        they are 20-40% of the production lattices."""
        z = self.sp2[rows] * t
        out = np.zeros(z.shape, dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            return np.exp(z, out=out, where=~(z.real < EXP_UNDERFLOW))


def e_minus_weights(cache: DirectionCache, mod_s, v: np.ndarray,
                    wv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature weights of E-(p, s) at s = s_hat |s| on imaginary nodes v.

    With m = p |s|^{1/2}, rho = |s|^{1/2} and jump(v) = e^{-gamma_tilde(v)} -
    e^{-gamma_tilde(0)} on the direction s_hat of ``cache``,

        E-(p, s) = sum_v w(v) psi_hat(m v) - root psi_hat(phi_hat m),
        w(v) = C e^{gamma_ref} jump(v) (B - 1/(v + 1/rho)) wv / (2 pi i (v - phi_hat)),
        root = C e^{gamma_ref} e^{-gamma_tilde(0)} (B - (phi - k)/(phi + 1)).

    ``mod_s`` broadcasts against v and wv: the Green lattice passes one fixed
    axis for every modulus, the propagator the fixed lattice z = m v (so
    v = z/m, wv = wz/m) of one modulus, on which psi_hat(m v) = psi_hat(z)."""
    mod_s = np.asarray(mod_s, dtype=float)
    sc = cache.scalars(mod_s)
    big_b = sc["B"]
    ce = sc["C"] * np.exp(sc["gamma_ref"])
    e0 = np.exp(-cache.gamma0)
    jump = np.exp(-cache.gamma_axis(v.imag)) - e0
    w = ce * jump * (big_b - 1.0 / (v + 1.0 / np.sqrt(mod_s))) * wv \
        / (TWO_PI_I * (v - cache.phi_hat))
    root = ce * e0 * (big_b - (sc["phi"] - sc["k"]) / (sc["phi"] + 1.0))
    return w, root


class RayKernel:
    """K(p, t) and its field from t-independent samples of the row function
    ``rows_at(s_hat, moduli, p)``, f(p, s) at s = s_hat moduli with shape
    (moduli, p): ``rows`` on the ray rows of ``layout`` (its tail rows left
    zero) and ``row_brk`` at s = i.  f = E- gives the Green correction,
    f = p Psi_B(s) h_hat(s p^2) the boundary spectral route."""

    def __init__(self, layout: GreenGrids, rows_at):
        self.layout, self.p_nodes, self.rows_at = layout, layout.p_nodes, rows_at
        p, n = layout.p_nodes, layout.n_ray
        self.rows = np.zeros((layout.ray.s.size, p.size), dtype=complex)
        self.rows[:n] = rows_at(layout.ray.phase, layout.ray.r[:n], p)
        self.row_brk = rows_at(1j, np.array([1.0]), p)[0]

    def bracket(self, t, cols=slice(None)) -> np.ndarray:
        """Residue bracket Im[e^{i p^2 t} f(p, i)] on the p node columns cols."""
        return np.imag(np.exp(1j * self.p_nodes[cols]**2 * t) * self.row_brk[cols])

    def smooth_kernel(self, t: float) -> np.ndarray:
        """Damped-ray plus tail part of K(p, t)."""
        # explicit operand order here and in field: numpy may evaluate
        # ``a * temporary`` as ``temporary *= a``, which rounds differently
        d = self.layout.damping(t)
        np.multiply(d, self.rows, out=d)
        return self.layout.ray.smooth(d)

    def kernel(self, t: float) -> np.ndarray:
        """K(p, t) on p_nodes (real array)."""
        return self.bracket(t) + self.smooth_kernel(t)

    def field(self, x: np.ndarray, times: np.ndarray, orders) -> np.ndarray:
        """G2^{(d)}, shape (len(orders), len(times), len(x)): every time's smooth
        kernel, Filon-weighted bracket row and K(p0, t) through one field map."""
        k_smooth = np.stack([self.smooth_kernel(tk) for tk in times])
        k0 = self.bracket(times, 0) + k_smooth[:, 0]
        w_brk = fresnel_table(self.p_nodes, times)
        np.multiply(self.row_brk, w_brk, out=w_brk)
        assembly = FieldAssembly(x, self.p_nodes)
        return np.stack([assembly(d, k_smooth, w_brk, k0) for d in orders])

    def kernel_axis_reference(self, t, p_values: np.ndarray,
                              bracket_coefficient: complex = 0.25 / 1j) -> np.ndarray:
        """Independent principal-value route on the (undeformed) imaginary axis,
        shape(t) + shape(p_values).

        K = (1/pi) Re PV int_0^infty e^{i y p^2 t} f(p, iy)/(1-y^2) dy plus
        the half-residue bracket at s = +-i; the pole at y = 1 is handled by
        symmetric pairing.  The rows f(p, iy) are evaluated once for every
        time of t, and each time's kernel is bitwise its one-time call.
        Slow; cross-checks the rotated-ray assembly, and holds at any real
        t.  A bracket_coefficient of 0.5/i (full residues with the principal
        value) is the negative control."""
        p_values = np.asarray(p_values, dtype=float)
        times = np.atleast_1d(np.asarray(t, dtype=float))
        u, wu = log_graded_nodes(1.0e-7, 1.0 - 1.0e-9, 32)
        y_hi, wy_hi = log_graded_nodes(2.0, 1.0e6, 32)
        y_all = np.concatenate([1.0 - u, 1.0 + u, y_hi, [1.0]])
        rows = self.rows_at(1j, y_all, p_values)
        n = u.size
        g_lo, g_hi, g_far, e_brk = rows[:n], rows[n:2 * n], rows[2 * n:-1], rows[-1]

        def f(y_vals, e_rows, p2t):
            return np.exp(1j * y_vals[:, None] * p2t[None, :]) * e_rows \
                / (1.0 + y_vals[:, None])

        out = np.empty((times.size, p_values.size))
        for k, tk in enumerate(times):
            p2t = p_values**2 * tk
            pv = np.sum(wu[:, None] * (f(1.0 - u, g_lo, p2t) - f(1.0 + u, g_hi, p2t))
                        / u[:, None], axis=0)
            far = np.sum(wy_hi[:, None] * f(y_hi, g_far, p2t)
                         / (1.0 - y_hi)[:, None], axis=0)
            bracket = 2.0 * np.real(bracket_coefficient * np.exp(1j * p2t) * e_brk)
            out[k] = np.real(pv + far) / np.pi + bracket
        return out.reshape(np.shape(t) + p_values.shape)


def e_minus_rows(cache: DirectionCache, psi_hat, grids: GreenGrids,
                 mod_s: np.ndarray, p: np.ndarray) -> np.ndarray:
    """E- rows (n_s, n_p) of psi_hat at s = s_hat mod_s (s_hat the direction
    of ``cache``) on the geometric imaginary axis (v, wv) of
    ``grids.log_axis``, for p on the lattice P_MIN rho^j of the layout,
    ln rho = ``grids.log_ratio``.

    The axis pairs its nodes exactly, v[:n] = -v[n:][::-1] with mirrored
    weights, and the datum is real, so psi_hat(m v_lower) is the reversed
    conj psi_hat(m v_upper) (m > 0): only the upper half is sampled, and the
    lower weights are contracted against the conjugate.  On the upper half
    v_q = i V_0 rho^q, so p_j sqrt|s| v_q = i sqrt|s| P_MIN V_0 rho^{j+q}:
    each row samples psi_hat on the n_p + n - 1 points of that one lattice
    and is a correlation of those samples with the weights (a sliding window
    contracted with them); the contractions are ``np.einsum`` sums.  Raises
    ValueError for a p off the layout's lattice."""
    v, wv = grids.log_axis
    n = v.size // 2
    big_v = v[n:].imag
    log_ratio = grids.log_ratio
    j = np.log(p / P_MIN) / log_ratio
    lattice = np.rint(j).astype(int)
    if np.any(np.abs(j - lattice) > 1.0e-6) or np.any(lattice < 0):
        raise ValueError("e_minus_rows needs p on the lattice P_MIN rho^j of "
                         "the layout's ratio rho")
    first = int(lattice.min())
    ladder = np.exp(log_ratio * np.arange(first, lattice.max() + n))
    w, root = e_minus_weights(cache, mod_s[:, None], v, wv)
    w_up = w[:, n:]
    w_lo = np.conj(w[:, n - 1::-1])
    out = np.empty((mod_s.size, p.size), dtype=complex)
    for i in range(mod_s.size):
        rs = math.sqrt(mod_s[i])
        window = sliding_window_view(psi_hat(1j * (rs * P_MIN * big_v[0]) * ladder), n)
        out[i] = (np.einsum("kq,q->k", window, w_up[i])
                  + np.conj(np.einsum("kq,q->k", window, w_lo[i])))[lattice - first] \
            - root[i, 0] * psi_hat(cache.phi_hat * (p * rs))
    return out


class EMinusLattice(RayKernel):
    """E-(p, s) tabulated on the rotated ray (plus s = i) for one datum.

    psi_hat is the Laplace transform of the datum, callable on complex arrays
    with Re z >= 0.  The lattice is profile-specific but t-independent.  Its
    tail rows are the corner model fitted to the ray rows, written in place;
    ``tail_fit_residual`` is the fit's largest gap on the corner relative to
    the corner's largest sample.

    The rows are correlations on the geometric axis ``GreenGrids.log_axis``
    (see ``e_minus_rows``), so every p they are asked for, the p nodes and
    any p of ``kernel_axis_reference``, lies on the p lattice.  They fold
    the axis integral onto its upper half, which needs a real datum, so
    that psi_hat(conj z) = conj psi_hat(z): every shipped profile is real.

    ``kernel(0.0)``, zero in the continuum, is the contour-closure defect
    of the E-layer.  It is not subtracted: its time carrier is unknown, and
    a frozen subtraction trades the far-field error at early times for an
    equally large wall-trace error at late times.
    """

    def __init__(self, symbols: Symbols, psi_hat, grids: GreenGrids):
        super().__init__(grids, lambda s_hat, mod_s, p: e_minus_rows(
            symbols.direction(s_hat), psi_hat, grids, mod_s, p))
        layout = self.layout
        corner = self.rows[layout.corner].ravel()
        lam = layout.fit_corner(corner)
        layout.fill_tail(lam, self.rows[layout.n_ray:])
        scale = float(np.max(np.abs(corner)))
        gap = float(np.max(np.abs(corner - layout.corner_basis @ lam)))
        self.tail_fit_residual = gap / scale if scale else 0.0


# ---------------------------------------------------------------------------
# Filon moments for the oscillatory residue pieces


#: Rows of a Filon table evaluated per block, so that its temporaries stay
#: near 2.5 MB (at 125 p nodes) however many sigmas a caller asks for.
FRESNEL_BLOCK_ROWS = 128


def fresnel_table(p_nodes: np.ndarray, sigmas, dtype=complex) -> np.ndarray:
    """Filon rows for every sigma of a 1-D array, shape (len(sigmas), n_p):
    row i holds the per-node weights w with sum_q w_q A(p_q) = int A(p)
    e^{i sigma_i p^2} dp, exact for piecewise-linear A between the nodes.

    Stable for any real sigma (trapezoid limit as sigma -> 0); the
    oscillatory panels use Fresnel moments built from the Faddeeva function
    evaluated in the upper half plane.  Each node's e^{i sigma p^2} and
    Faddeeva factor is evaluated once and shared by the two panels that meet
    there.  The rows are formed in complex128 in blocks of
    FRESNEL_BLOCK_ROWS and rounded once into the output of the given dtype.
    A row does not depend on the other sigmas of the call: every entry goes
    through the same elementwise operations, and the complex products are
    explicit ``np.multiply`` calls, because an operator on a large temporary
    may be evaluated in place with its operands swapped, which moves the
    last bit of a fused multiply-add."""
    p = np.asarray(p_nodes, dtype=float)
    sigmas = np.asarray(sigmas, dtype=float)
    out = np.empty((sigmas.size, p.size), dtype=dtype)
    for lo in range(0, sigmas.size, FRESNEL_BLOCK_ROWS):
        rows = slice(lo, lo + FRESNEL_BLOCK_ROWS)
        out[rows] = _fresnel_rows(p, sigmas[rows])
    return out


def _fresnel_rows(p: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """The complex128 rows of ``fresnel_table`` for one block of sigmas."""
    sig = np.abs(sigmas)            # a negative sigma takes the conjugate row
    a, b = p[:-1], p[1:]
    h = b - a
    m0 = np.empty((sig.size, h.size), dtype=complex)
    m1 = np.empty_like(m0)
    small = sig[:, None] * b * b < 1.0e-4
    row, col = np.nonzero(small)
    if row.size:
        s, aa, bb = sig[row], a[col], b[col]
        js = 1j * s
        m0[row, col] = (bb - aa) + js * (bb**3 - aa**3) / 3.0 \
            - s**2 * (bb**5 - aa**5) / 10.0
        m1[row, col] = (bb**2 - aa**2) / 2.0 + js * (bb**4 - aa**4) / 4.0 \
            - s**2 * (bb**6 - aa**6) / 12.0
    row, col = np.nonzero(~small)
    if row.size:
        # e^{i sigma p^2} and its product with w(i c p) on every node of an
        # oscillatory panel, c = sqrt(-i sigma) the principal root (Re c > 0)
        node = np.zeros((sig.size, p.size), dtype=bool)
        node[row, col] = node[row, col + 1] = True
        nr, nc = np.nonzero(node)
        c = np.sqrt(-1j * sig)
        f = np.zeros(node.shape, dtype=complex)
        g = np.zeros(node.shape, dtype=complex)
        pn = p[nc]
        f[nr, nc] = fn = np.exp(1j * sig[nr] * pn * pn)
        g[nr, nc] = np.multiply(fn, wofz(1j * c[nr] * pn))
        # c = 0 only on rows whose panels are all small, which never read it
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = 0.5 * math.sqrt(math.pi) / c
        m0[row, col] = np.multiply(scale[row], g[row, col] - g[row, col + 1])
        m1[row, col] = (f[row, col + 1] - f[row, col]) / (2j * sig[row])
    w = np.zeros((sig.size, p.size), dtype=complex)
    w[:, :-1] += (b * m0 - m1) / h
    w[:, 1:] += (m1 - a * m0) / h
    return np.conjugate(w, out=w, where=sigmas[:, None] < 0)


def fresnel_weights(p_nodes: np.ndarray, sigma: float) -> np.ndarray:
    """The Filon row of one real sigma: ``fresnel_table`` of [sigma]."""
    return fresnel_table(p_nodes, [sigma])[0]


# ---------------------------------------------------------------------------
# head weights for the p -> 0 end of the Laplace assembly


def _head_weight(x: np.ndarray, p0: float, deriv: int) -> np.ndarray:
    """int_0^{p0} p^d e^{-p x} (p/p0)^{-1/2} dp, the sqrt-model head that
    captures the integrable p^{-1/2} growth of K below the first node."""
    x = np.asarray(x, dtype=float)
    a = deriv + 0.5
    u = p0 * x
    small = u < 1.0e-8
    out = np.empty(x.shape, dtype=float)
    out[small] = p0 ** (deriv + 1) / a * (1.0 - a * u[small] / (a + 1.0))
    xs = x[~small]
    out[~small] = math.sqrt(p0) * gamma_fn(a) * gammainc(a, p0 * xs) / xs**a
    return out


class FieldAssembly:
    """Kernel -> field map G2^{(d)} = -(1/pi) (-1)^d int_0^inf p^d e^{-px} K dp
    at fixed points x, from kernel samples on the p nodes:

        g2 (-1)^d [Re(L @ p^d K_smooth) + Im(e^{-xp} @ p^d w_brk) + head_d(x) K(p0)].

    L is the piecewise-linear Laplace matrix in p, w_brk the Filon-weighted
    residue bracket row (E-(p, i) times its Fresnel weights), and head_d the
    sqrt-model integral below the first node."""

    def __init__(self, x: np.ndarray, p: np.ndarray):
        self.x = np.array(x, dtype=float)
        self.p = p
        # transform points x are real, so L is real (its imaginary part is 0)
        self._lap_t = np.ascontiguousarray(laplace_matrix(self.x, p).real.T)
        self._exp_t = np.exp(-np.outer(p, self.x))

    def __call__(self, deriv: int, k_smooth: np.ndarray, w_brk: np.ndarray,
                 k0) -> np.ndarray:
        """The field (..., n_x) for kernel pieces with any leading shape:
        k_smooth and w_brk (..., n_p), k0 (...)."""
        pd = self.p**deriv
        smooth = (pd * k_smooth) @ self._lap_t
        brk = (pd * w_brk).imag @ self._exp_t
        head = _head_weight(self.x, self.p[0], deriv) * np.asarray(k0)[..., None]
        return G2_SIGN * (-1.0) ** deriv * (smooth + brk + head)


# ---------------------------------------------------------------------------
# the operator


class GreenOperator:
    """Full linear solution map for one initial profile.

    Wraps the free FFT part on a whole-line grid and the lattice-based
    correction; evaluation points are arbitrary x > 0 arrays.  Each method
    takes a time t or an array of times and a derivative order or a
    sequence of orders, and returns shape(deriv) + shape(t) + shape(x) from
    one pass over the times; the operator keeps nothing between calls."""

    def __init__(self, symbols: Symbols, profile: Profile,
                 whole_grid: WholeLineGrid | None = None):
        self.symbols = symbols
        self.profile = profile
        self.whole_grid = whole_grid or WholeLineGrid()
        wg = self.whole_grid
        samples = np.where(wg.nodes >= 0.0, profile(wg.nodes), 0.0)
        # the datum is real, so its spectrum is Hermitian, and the odd phase
        # of the group e^{-i xi|xi| t} keeps it so: the half spectrum (xi >= 0
        # and the Nyquist node) carries the free part
        self._free_spectrum = np.fft.rfft(samples)
        mags = np.abs(self._free_spectrum)
        alive = mags > 1.0e-12 * mags.max()
        self._xi_eff = float(np.max(np.abs(wg.xi_half[alive]))) if alive.any() else 0.0

    @cached_property
    def lattice(self) -> EMinusLattice:
        return EMinusLattice(self.symbols, self.profile.hat, GreenGrids())

    def free(self, x: np.ndarray, t, deriv=0) -> np.ndarray:
        """G1^{(d)}(t) psi, the whole-line group on the zero extension."""
        x, times, orders, shape = lattice_args(x, t, deriv)
        x_need = float(np.max(x)) if x.size else 0.0
        self.whole_grid.check_transport(float(np.max(times)), x_need, self._xi_eff)
        spectra = np.broadcast_to(self._free_spectrum,
                                  (times.size, self._free_spectrum.size))
        phase = self.whole_grid.phase
        out = self.whole_grid.free_field(
            spectra, lambda k: np.exp(phase * times[k]), x, orders)
        return out.reshape(shape)

    def correction(self, x: np.ndarray, t, deriv=0) -> np.ndarray:
        """G2^{(d)}(t) psi at the points x (x >= 0): the E- lattice's field."""
        x, times, orders, shape = lattice_args(x, t, deriv)
        return self.lattice.field(x, times, orders).reshape(shape)

    def apply(self, x: np.ndarray, t, deriv=0) -> np.ndarray:
        """G^{(d)}(t) psi = G1 + G2; at t = 0 the datum itself stands in for
        the free part of orders 0 and 1."""
        x, times, orders, shape = lattice_args(x, t, deriv)
        free = self.free(x, times, orders)
        datum = {0: self.profile, 1: self.profile.deriv}
        for i, d in enumerate(orders):
            if d in datum:
                free[i, times == 0.0] = datum[d](x)
        return (free + self.correction(x, times, orders)).reshape(shape)
