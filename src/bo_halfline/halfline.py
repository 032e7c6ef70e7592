"""Half-line and whole-line function spaces: grids, transforms, norms.

The half line carries a quadratically graded grid (dense near the boundary),
Laplace transforms assembled from exact piecewise-linear panel weights, and
the weighted norms used by the decay estimates.  The whole line carries an
FFT grid for the convolution/multiplier operators (Hilbert transform, the
free evolution group) and the Sobolev norms.  ``for_each_row`` runs the
independent rows of the lattice builds across the usable CPUs.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.special import wofz

from .config import ConfigError

# ---------------------------------------------------------------------------
# independent rows across the usable CPUs


def cpu_workers() -> int:
    """CPUs this process may run on: its affinity set where the platform
    reports one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()
_in_block = threading.local()


def _run_block(row, lo: int, hi: int) -> None:
    outer = getattr(_in_block, "active", False)
    _in_block.active = True
    try:
        for i in range(lo, hi):
            row(i)
    finally:
        _in_block.active = outer


def for_each_row(n: int, row) -> None:
    """Call ``row(i)`` for every i in range(n), split into one contiguous
    block of rows per usable CPU (``cpu_workers``).  The calling thread
    takes the first block; the others run on a module-level thread pool,
    created on first use.  Every block runs to its end, then the exception
    of the first block that raised, if any, is raised here.  A split inside
    a block runs as one block, on the thread that reached it.

    The rows must write disjoint outputs, and each must be the same
    elementwise computation whichever thread runs it; then the result is
    bitwise that of one block, whatever the CPU count.  Two more rules hold:

    * A block makes no BLAS call.  A BLAS library with threads of its own
      keeps them spinning on the other cores, and small products inside
      concurrent blocks then took up to twice as long; contract with
      ``np.einsum`` (without ``optimize``) or elementwise sums instead.
    * A block calls no layer that ``benchmark/tracer.py`` wraps (the E-
      lattice, the propagator build, ``fresnel_weights``, ...): the tracer
      keeps one span stack, and a span opened on a second thread breaks it.
    """
    global _pool
    workers = min(cpu_workers(), n)
    if workers <= 1 or getattr(_in_block, "active", False):
        _run_block(row, 0, n)
        return
    edges = [n * i // workers for i in range(workers + 1)]
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max(cpu_workers() - 1, 1),
                                       thread_name_prefix="bo_halfline-rows")
        futures = [_pool.submit(_run_block, row, edges[i], edges[i + 1])
                   for i in range(1, workers)]
    try:
        _run_block(row, edges[0], edges[1])
    finally:
        # every block runs to its end before anything is raised
        errors = [f.exception() for f in futures]
    for exc in errors:
        if exc is not None:
            raise exc


# ---------------------------------------------------------------------------
# grids


def trapezoid_weights(nodes: np.ndarray) -> np.ndarray:
    """Trapezoid-rule weights on the (sorted) nodes; zero for a single node."""
    w = np.zeros_like(nodes)
    h = np.diff(nodes)
    w[:-1] += 0.5 * h
    w[1:] += 0.5 * h
    return w


def node_index(nodes: np.ndarray, t: float) -> int:
    """Index of the node equal to t up to 1e-9 + 1e-6 |t|; ValueError if
    there is none.  Shared lookup of the time lattices and saved-time sets."""
    idx = int(np.argmin(np.abs(nodes - t)))
    if abs(nodes[idx] - t) > 1.0e-9 + 1.0e-6 * abs(t):
        raise ValueError(f"time {t} is not a lattice node")
    return idx


def lattice_args(x, t, deriv) -> tuple:
    """Points, times and orders (each 1-D) of a time-lattice operator call,
    and the shape(deriv) + shape(t) + shape(x) of its result."""
    x = np.asarray(x, dtype=float)
    shape = np.shape(deriv) + np.shape(t) + x.shape
    return x.ravel(), np.atleast_1d(t).astype(float), np.atleast_1d(deriv), shape


def l2_norm(values: np.ndarray, quad_weights, weight: np.ndarray | None = None):
    """sqrt(int |f|^2 weight dx) by ``quad_weights`` over the last axis (one
    scalar is the rectangle rule): one norm per row, a scalar for one row."""
    density = np.abs(values) ** 2
    if weight is not None:
        density = density * weight
    return np.sqrt(np.sum(density * quad_weights, axis=-1))


@dataclass(frozen=True)
class HalfLineGrid:
    """Nodes x_j = x_max (j/J)^2, j = 0..J: quadratic grading toward x = 0."""

    x_max: float = 40.0
    n: int = 256

    @cached_property
    def nodes(self) -> np.ndarray:
        j = np.arange(self.n + 1, dtype=float)
        return self.x_max * (j / self.n) ** 2

    @cached_property
    def quad_weights(self) -> np.ndarray:
        return trapezoid_weights(self.nodes)

    def l2_norm(self, values: np.ndarray, weight: np.ndarray | None = None):
        """The module's ``l2_norm`` by this grid's quadrature weights."""
        return l2_norm(values, self.quad_weights, weight)

    def weighted_norm(self, values: np.ndarray, r: float):
        """L^{2,r} norm with the Japanese bracket weight <x>^{2r}."""
        return self.l2_norm(values, (1.0 + self.nodes**2) ** r)


#: Whole-line nodes kept past each end of [0, max x] when a free field is
#: splined off its inverse FFT: the spline's end effect dies out within a
#: few nodes, so the margin shows only at round-off.
FREE_WINDOW_MARGIN = 130


@dataclass(frozen=True)
class WholeLineGrid:
    """Uniform periodic FFT grid on [x0, x0 + n dx)."""

    n: int = 1 << 16
    dx: float = 0.0625
    x0: float = -256.0

    @cached_property
    def nodes(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.n)

    @property
    def quad_weights(self) -> float:
        """The periodic rectangle rule: every node weighs dx."""
        return self.dx

    # the half line's norms, with these weights
    l2_norm = HalfLineGrid.l2_norm
    weighted_norm = HalfLineGrid.weighted_norm

    @cached_property
    def xi(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)

    @cached_property
    def xi_half(self) -> np.ndarray:
        """Frequencies of the half spectrum ``np.fft.rfft`` returns: xi >= 0
        and, for even n, the Nyquist node."""
        return self.xi[:self.n // 2 + 1]

    @property
    def phase(self) -> np.ndarray:
        """-i xi|xi| on the half spectrum: the free group is e^{phase t}.
        Formed at each read, so the grid keeps no copy."""
        xi = self.xi_half
        return -1j * xi * np.abs(xi)

    def free_field(self, spectra: np.ndarray, phases, x: np.ndarray,
                   orders) -> np.ndarray:
        """Order-d x-derivatives at x >= 0 of the real fields whose half
        spectra ``spectra`` (one row per time) are evolved by ``phases(k)``,
        the row e^{phase t_k} of time k: shape (len(orders), len(spectra),
        len(x)).  Each row's phases are asked for in that row's turn, so no
        table of them need exist.  Of each inverse real FFT only a window
        FREE_WINDOW_MARGIN nodes past [0, max x] is kept; one vector-valued
        spline per order reads it at x.  A window that overflowed has no
        spline: its field is NaN.  The times are independent rows, split by
        ``for_each_row``."""
        xi = self.xi_half
        n_t = len(spectra)
        x_top = float(np.max(x)) if x.size else 0.0
        first = max(self.index_of(0.0) - FREE_WINDOW_MARGIN, 0)
        last = min(self.index_of(x_top) + FREE_WINDOW_MARGIN, self.n)
        mults = [(1j * xi) ** d for d in orders]
        window = np.empty((len(orders), n_t, last - first))

        def evolve(k: int) -> None:
            spec = phases(k) * spectra[k]
            for i, mult in enumerate(mults):
                window[i, k] = np.fft.irfft(spec * mult, self.n)[first:last]

        for_each_row(n_t, evolve)
        if not np.isfinite(window).all():
            return np.full((len(orders), n_t, x.size), np.nan)
        return np.stack([CubicSpline(self.nodes[first:last], w, axis=1)(x)
                         for w in window])

    def index_of(self, x: float) -> int:
        return int(round((x - self.x0) / self.dx))

    def check_transport(self, t: float, x_need: float, xi_max: float) -> None:
        """Raise ConfigError unless a signal on [0, x_need] whose modes move at
        group speed up to 2 xi_max stays clear of the periodic wrap until time
        t, with a margin of 16 on each side."""
        right = self.x0 + self.n * self.dx
        need = x_need + 2.0 * xi_max * t + 16.0
        if self.x0 > -16.0 or right < need:
            raise ConfigError(
                f"whole-line grid [{self.x0}, {right:.0f}] cannot hold the "
                f"transport to t={t} (needs {need:.0f})")

    def sobolev_norm(self, values: np.ndarray, s: float) -> float:
        spec = np.fft.fft(values)
        mult = (1.0 + self.xi**2) ** (s / 2.0)
        return float(np.sqrt(self.dx / self.n) * np.linalg.norm(mult * spec))

    def z_norm(self, values: np.ndarray, s: float, r: float) -> float:
        """Z^{s,r} = H^s cap L^{2,r} norm (sum of the two pieces)."""
        return self.sobolev_norm(values, s) + self.weighted_norm(values, r)


# ---------------------------------------------------------------------------
# truncated weight


@dataclass(frozen=True)
class TruncatedWeight:
    """Bounded substitute for <x>: equals sqrt(1+x^2) below N, the constant 2N
    above 3N, with a C^2 quintic blend in between.  Its slope stays <= 1, so
    commutators with the Hilbert transform remain uniformly bounded in N."""

    cutoff: float = 8.0

    def __call__(self, x) -> np.ndarray:
        x = np.abs(np.asarray(x, dtype=float))
        n = self.cutoff
        out = np.where(x <= n, np.hypot(1.0, x), 2.0 * n)
        mid = (x > n) & (x < 3.0 * n)
        if np.any(mid):
            out = np.array(out, dtype=float)
            out[mid] = self._blend(x[mid])
        return out

    def _blend(self, x: np.ndarray) -> np.ndarray:
        n = self.cutoff
        v0 = math.hypot(1.0, n)
        d0 = n / v0
        c0 = 1.0 / v0**3
        h = 2.0 * n
        t = (x - n) / h
        # quintic Hermite basis: value/slope/curvature at t=0, value 2N flat at t=1
        h00 = 1 - 10 * t**3 + 15 * t**4 - 6 * t**5
        h10 = t - 6 * t**3 + 8 * t**4 - 3 * t**5
        h20 = 0.5 * t**2 - 1.5 * t**3 + 1.5 * t**4 - 0.5 * t**5
        h01 = 10 * t**3 - 15 * t**4 + 6 * t**5
        return v0 * h00 + d0 * h * h10 + c0 * h * h * h20 + 2.0 * n * h01


def ap_characteristic(weight, n_cutoff: float, exponent: float = 2.0) -> float:
    """A_p characteristic of weight^exponent over dyadic intervals up to 16N.

    Returns sup_I avg_I(w^p) ^ {1/ (p-1)}-normalized pair product for p = 2:
    avg(w^2) * avg(w^-2)."""
    best = 0.0
    scale = 0.25
    while scale <= 16.0 * n_cutoff:
        left = -16.0 * n_cutoff
        while left < 16.0 * n_cutoff:
            x = np.linspace(left, left + scale, 65)
            wv = np.asarray(weight(x), dtype=float) ** exponent
            best = max(best, float(np.mean(wv) * np.mean(1.0 / wv)))
            left += scale
        scale *= 2.0
    return best


def convolution_decay(a: float, b: float) -> tuple[float, float]:
    """Measured vs predicted tail exponent of <x>^-a * <x>^-b.

    The product's tail is <x>^-delta with delta = min(a, b, a+b-1); returns
    (predicted, fitted) where fitted is a log-log slope over x in [50, 800]."""
    if a + b <= 1.0:
        raise ValueError("convolution_decay requires a + b > 1 (integrability)")
    grid = WholeLineGrid(n=1 << 17, dx=0.125, x0=-8192.0)
    x = grid.nodes
    fa = (1.0 + x * x) ** (-a / 2.0)
    fb = (1.0 + x * x) ** (-b / 2.0)
    conv = np.fft.ifft(np.fft.fft(np.fft.ifftshift(fa)) * np.fft.fft(np.fft.ifftshift(fb))).real
    conv = np.fft.fftshift(conv) * grid.dx
    lo, hi = grid.index_of(50.0), grid.index_of(800.0)
    xs = x[lo:hi]
    ys = conv[lo:hi]
    slope = np.polyfit(np.log(xs), np.log(np.abs(ys)), 1)[0]
    return min(a, b, a + b - 1.0), float(-slope)


# ---------------------------------------------------------------------------
# Laplace transforms


def _filon_laplace_ab(beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact piecewise-linear panel weights for int_0^1 (1-t, t) e^{-beta t} dt."""
    beta = np.asarray(beta, dtype=complex)
    small = np.abs(beta) < 1.0e-4
    bs = np.where(small, 1.0, beta)  # avoid 0/0 in the exact branch
    with np.errstate(over="ignore", invalid="ignore"):
        eb = np.exp(-bs)
        a_exact = (bs - 1.0 + eb) / bs**2
        b_exact = (1.0 - (1.0 + bs) * eb) / bs**2
    a_series = 0.5 - beta / 6.0 + beta**2 / 24.0
    b_series = 0.5 - beta / 3.0 + beta**2 / 8.0
    return (np.where(small, a_series, a_exact),
            np.where(small, b_series, b_exact))


#: Rows of the Laplace matrix filled per block: the panel temporaries then
#: stay near 1.5 MB (at 257 nodes) however many transform points a caller
#: asks for, also with one block in flight per CPU.
LAPLACE_BLOCK_ROWS = 64

#: e^x rounds to exactly 0 in double precision for x below about -745.13
#: (half the smallest subnormal), so a complex exponential whose real part
#: lies below this bound is an exact zero as well.
EXP_UNDERFLOW = -746.0


def laplace_matrix(z_values: np.ndarray, x_nodes: np.ndarray,
                   dtype=complex) -> np.ndarray:
    """Weights W with (W @ f) = int e^{-z x} f(x) dx for piecewise-linear f.

    Exact per panel for any complex z with Re z >= 0 (raises otherwise: the
    exponential factors overflow and the transform is not used there).  The
    weights are formed in complex128 in blocks of LAPLACE_BLOCK_ROWS rows,
    each rounded once into the output of the given dtype, so a single-
    precision matrix never exists in double precision.  The blocks take the
    rows in order of Re z, and each stops at the first panel where the front
    factor e^{-z x} underflows to exactly 0 for all of its rows (the nodes
    increase, so it stays 0 beyond): the weights past it are exact zeros and
    are not evaluated.  Every evaluated entry is an elementwise formula in
    its own z, so neither the blocking nor the row order changes a bit.
    ``for_each_row`` runs the blocks in bit-reversed order, which spreads the
    costly blocks of small Re z evenly over the CPUs' contiguous shares."""
    z = np.atleast_1d(np.asarray(z_values, dtype=complex))
    if np.any(z.real < -1.0e-12 * (1.0 + np.abs(z))):
        raise ValueError("laplace_matrix requires Re z >= 0")
    x = np.asarray(x_nodes, dtype=float)
    h = np.diff(x)                                    # (nx-1,)
    out = np.zeros((z.size, x.size), dtype=dtype)
    order = np.argsort(z.real, kind="stable")
    n_blocks = -(-z.size // LAPLACE_BLOCK_ROWS)
    bits = max(n_blocks - 1, 1).bit_length()
    spread = sorted(range(n_blocks), key=lambda b: f"{b:0{bits}b}"[::-1])

    def fill(b: int) -> None:
        rows = order[b * LAPLACE_BLOCK_ROWS:(b + 1) * LAPLACE_BLOCK_ROWS]
        zb = z[rows, None]
        # panels whose left node keeps e^{-z x} > 0 for some row of the block
        n = int(np.count_nonzero(zb.real.min() * x[:-1] <= -EXP_UNDERFLOW))
        wa, wb = _filon_laplace_ab(zb * h[None, :n])
        front = h[None, :n] * np.exp(-zb * x[None, :n])
        block = np.zeros((zb.size, n + 1), dtype=complex)
        block[:, :-1] += front * wa
        block[:, 1:] += front * wb
        out[rows, :n + 1] = block

    for_each_row(n_blocks, lambda i: fill(spread[i]))
    return out


# ---------------------------------------------------------------------------
# reference profiles with closed-form transforms


class Profile:
    """A profile scaled by ``amplitude``: samples plus its exact Laplace
    transform."""

    def __init__(self, amplitude: float = 1.0):
        self.amplitude = amplitude

    def __call__(self, x):
        raise NotImplementedError

    def deriv(self, x):
        raise NotImplementedError

    def hat(self, z):
        raise NotImplementedError


class GaussBump(Profile):
    """psi(x) = amplitude * x exp(-x^2); hat via the scaled complementary
    error function (Faddeeva w), stable for Re z >= 0."""

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return self.amplitude * x * np.exp(-x * x)

    def deriv(self, x):
        x = np.asarray(x, dtype=float)
        return self.amplitude * (1.0 - 2.0 * x * x) * np.exp(-x * x)

    def hat(self, z):
        z = np.asarray(z, dtype=complex)
        return self.amplitude * (0.5 - 0.25 * math.sqrt(math.pi) * z * wofz(0.5j * z))


class PolyExp(Profile):
    """psi(x) = amplitude * x^2 exp(-x); hat(z) = 2 amplitude/(1+z)^3."""

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return self.amplitude * x * x * np.exp(-x)

    def deriv(self, x):
        x = np.asarray(x, dtype=float)
        return self.amplitude * (2.0 * x - x * x) * np.exp(-x)

    def hat(self, z):
        z = np.asarray(z, dtype=complex)
        return 2.0 * self.amplitude / (1.0 + z) ** 3


class RampExp(Profile):
    """h(t) = amplitude * t exp(-t); hat(z) = amplitude/(1+z)^2."""

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return self.amplitude * t * np.exp(-t)

    def deriv(self, t):
        t = np.asarray(t, dtype=float)
        return self.amplitude * (1.0 - t) * np.exp(-t)

    def hat(self, z):
        z = np.asarray(z, dtype=complex)
        return self.amplitude / (1.0 + z) ** 2


PROFILES = {"gauss_bump": GaussBump, "poly_exp": PolyExp, "ramp_exp": RampExp}


def make_profile(name: str, amplitude: float = 1.0) -> Profile:
    try:
        return PROFILES[name](amplitude)
    except KeyError:
        raise ValueError(f"unknown profile {name!r}") from None


# ---------------------------------------------------------------------------
# Hilbert transforms


def hilbert_whole_line(grid: WholeLineGrid, values: np.ndarray) -> np.ndarray:
    """PV int f(y)/(x-y) dy on the FFT grid: multiplier -i pi sgn(xi)."""
    mult = -1j * np.pi * np.sign(grid.xi)
    out = np.fft.ifft(mult * np.fft.fft(values))
    return out.real if np.isrealobj(values) else out


def pv_matrix(x: np.ndarray) -> np.ndarray:
    """Midpoint PV matrix for f -> PV int f(y)/(y - x) dy on a uniform grid
    (diagonal excluded: the midpoint rule pairs symmetric neighbours, so the
    principal value is the plain sum with the singular node dropped)."""
    x = np.asarray(x, dtype=float)
    dx = x[1] - x[0]
    diff = x[None, :] - x[:, None]          # y - x
    with np.errstate(divide="ignore"):
        kernel = 1.0 / diff
    np.fill_diagonal(kernel, 0.0)
    return kernel * dx
