"""Nonlinear half-line solver.

Picard iteration on the Duhamel integral equation

    u(t) = G(t) psi + B(t) h - int_0^t G(t - tau) (u u_x)(tau) dtau,

with the linear part assembled once from the Green and boundary operators and
the memory integral evaluated by an amortized propagator.  The propagator
exploits that the kernel lattice is *linear* in the forcing: a fixed map,
a third-order tensor on the Laplace samples of one imaginary lattice folded
together with the Laplace matrices, takes forcing samples straight to
kernel rows, so each Picard sweep costs a handful of matrix products
instead of thousands of kernel rebuilds.
"""

from __future__ import annotations

import math
import resource
import sys
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

from .boundary import BoundaryKernel
from .config import RunConfig
from .contour import axis_nodes
from .green import (FieldAssembly, GreenGrids, GreenOperator,
                    e_minus_weights, fresnel_table)
# the one-row Filon helper stays importable from this module too
from .green import fresnel_weights  # noqa: F401
from .halfline import (HalfLineGrid, RampExp, WholeLineGrid, cpu_workers,
                       for_each_row, l2_norm, laplace_matrix, make_profile,
                       node_index, trapezoid_weights)
from .mol import MethodOfLines
from .symbols import Symbols


# ---------------------------------------------------------------------------
# time lattice


class TimeGrid:
    """Geometric nodes up to the switch time, uniform afterwards.

    Node 0 is exactly t = 0; ``weights`` are the trapezoid weights on every
    node, and weights[:k] those of the nodes l < k on nodes 0..k.
    """

    def __init__(self, t_final: float, t_switch: float, n_geometric: int,
                 n_uniform: int):
        t_switch = min(t_switch, t_final)
        geo = t_switch * np.geomspace(1.0e-3, 1.0, n_geometric)
        # a one-point geomspace is its start; the switch node must survive
        geo[-1] = t_switch
        parts = [np.array([0.0]), geo]
        if t_final > t_switch:
            parts.append(np.linspace(t_switch, t_final, n_uniform + 1)[1:])
        self.nodes = np.concatenate(parts)
        self.n = self.nodes.size
        self.weights = trapezoid_weights(self.nodes)


# ---------------------------------------------------------------------------
# norms


class XNorm:
    """sup_t [ <t>^{1/4} ||v||_{L2} + <t>^{3/4} ||v_x||_{L2} ] on the lattice."""

    def __init__(self, half_grid: HalfLineGrid, times: np.ndarray):
        self.grid = half_grid
        bracket = np.sqrt(1.0 + times**2)
        self.w0 = bracket**0.25
        self.w1 = bracket**0.75

    def __call__(self, values: np.ndarray, derivs: np.ndarray) -> float:
        return float(np.max(self.w0 * self.grid.l2_norm(values)
                            + self.w1 * self.grid.l2_norm(derivs)))


# ---------------------------------------------------------------------------
# the amortized propagator


def damped_sums(nodes: np.ndarray, w: np.ndarray, e: np.ndarray, damping):
    """Yields k and A_k = D(h_{k-1}) (A_{k-1} + w_{k-1} e_{k-1}) for k = 1 to
    n - 1, A_0 = 0, h_k = t_{k+1} - t_k: the memory sum sum_{l<k} w_l e_l
    D(t_k - t_l) of samples e (n, ...) on the nodes t, for a factor with
    D(a + b) = D(a) D(b).  D = damping(h) is evaluated once per run of equal
    steps.  A_k is one buffer, overwritten by the next step."""
    acc = np.zeros(e.shape[1:], dtype=complex)
    h = damp = None
    for k in range(1, nodes.size):
        if nodes[k] - nodes[k - 1] != h:
            h = nodes[k] - nodes[k - 1]
            damp = damping(h)
        # explicit operand order, so a row rounds the same in any chunk:
        # see RayKernel.smooth_kernel
        acc += w[k - 1] * e[k - 1]
        np.multiply(acc, damp, out=acc)
        yield k, acc


@dataclass
class ForcingTransforms:
    """Per-sweep free part of the forcing history and what its kernel
    lattice is formed from (one row or column per node).

    The damped-ray and tail rows of the kernel lattice are never held
    whole: ``accumulate`` fits the tail's corner model to the corner rows
    of the ray map's product with fc, then forms the rows SWEEP_CHUNK_RAYS
    rays at a time and folds each chunk into the memory sum before the
    next.  The bracket rows are one row per node and are kept; the axis
    samples they are formed from are not."""

    free: np.ndarray        # (2, n_t, n_x) free part: values, x-derivatives
    fc: np.ndarray          # (n_t, n_x) the forcing in single precision
    e_brk: np.ndarray       # (n_t, n_p) bracket-direction rows


#: Layout of the memory-integral corrections.  Coarser than the single-shot
#: Green layout, because each lattice cell is carried through every time
#: step of the accumulation.  On the Green correction of gauss_bump at
#: t = 0.25, 1, 2 and 10 this layout differs from GreenGrids() by 6e-3 in
#: value and 2.4e-2 in slope (max relative change); the time-quadrature
#: error of the accumulation is unmeasured.
DUHAMEL_GRIDS = GreenGrids(p_ppd=12, r_ppd=8)

#: The Duhamel propagator's fixed z lattice: upward imaginary-axis nodes iV
#: and weights i dV on Gauss panels, 20 points per decade on [1e-6, 1e6].
#: It stays on Gauss panels, not on the Green lattice's trapezoid in ln V
#: (``GreenGrids.log_axis``): on the production solve, Gauss panels at 20,
#: 40 and 80 points per decade differ from each other by 5e-5 to 6.6e-5 in
#: the Duhamel term, and a trapezoid in ln z at this layout's p step moves
#: that term by 1.2e-5 to 1.8e-4, which moves the recorded benchmark
#: figures past their tolerance (contraction-ratio[0] 0.0961341 ->
#: 0.0961543, rel-l2[t=1] 0.636065 -> 0.636273, and the solution table).
#: Moving it needs a re-recorded benchmark snapshot (ROADMAP items 5, 12
#: and 18).
DUHAMEL_AXIS = axis_nodes(0.0, 1.0e-6, 1.0e6, 20)

#: Rays of the kernel lattice formed and folded into the memory sum at a
#: time in a sweep, so that a chunk's complex64 product and its complex128
#: rows stay near 2 and 4 MB (at 125 p nodes and 129 time nodes), and no
#: whole 36.9 MB lattice is formed; and rays of the ray map M built at a
#: time, so that a chunk's tensor rows stay near 7 MB (480 axis nodes) and
#: the whole 57.6 MB tensor is never formed.  The chunks are rows of the
#: products, and each row of a matrix product is the same dot products in
#: any chunk (chunks of 4 to 150 rays are bitwise the whole product);
#: chunks over the time nodes, the columns, are not (64 columns already
#: differ).  The constant also fixes the order of the ray sum of the smooth
#: kernel, one partial sum per chunk, so it moves that sum's round-off (not
#: the products, M or the recurrence).
SWEEP_CHUNK_RAYS = 15

#: Time rows of the free part's whole-line arrays formed at a time in a
#: sweep: its samples, spectra and running sums then stay near 1 MB each
#: (8,192 whole-line nodes), not 8.5 MB at 129 time nodes.  Each row's FFT,
#: phase, spline and evolution are its own, and the running sum is carried
#: across blocks in node order, so any block size gives the same bits.
FREE_BLOCK_ROWS = 16


class DuhamelPropagator:
    """Sum_l w_l G(t_k - tau_l) N_l for gridded forcings, amortized.

    The kernel row for modulus |s| and transform psi_hat is the shared E-
    formula (green.e_minus_weights)

        E(p, s) = sum_v w(v) psi_hat(m v) - root psi_hat(phi_hat m),   m = p |s|^{1/2},

    and substituting z = m v turns the axis integral into a *fixed*
    imaginary lattice in z with m-dependent weights w(z/m) evaluated at
    wv = wz/m.  Everything except psi_hat(z_q) is forcing-independent, so it
    freezes into a tensor T[row, p, q] against Laplace samples
    psi_hat(z_q) = L_axis f of each forcing row f.  The root term is a
    Laplace matrix L_scat at the scattered points phi_hat m, so the ray
    rows are one fixed map of the forcing samples,
    M = T L_axis - bt (x) L_scat, and a sweep reduces to M against each
    forcing row.  The bracket row keeps T_brk and its scatter term apart
    (see transform_forcing).  Free parts factor through unitary phases,
    e^{is'|s'|(t-tau)} = e^{is'|s'|t} e^{-is'|s'|tau}, giving an O(n_t)
    running-sum recurrence on the whole-line spectra.

    The damped-ray part of the memory sum is O(n_t) too.  For l < k the
    trapezoid weight W_l of node l on nodes 0..k does not depend on k, and
    the kernel carries time only through e^{s p^2 sigma}, so with
    h_k = t_{k+1} - t_k

        A_k = sum_{l<k} W_l E_l e^{s p^2 (t_k - t_l)}
            = e^{s p^2 h_{k-1}} (A_{k-1} + W_{k-1} E_{k-1}),   A_0 = 0,

    exactly (``damped_sums``); the p_0 bracket sum runs the same recurrence
    with e^{i p_0^2 h}.  It is stable because s = r e^{i RAY_THETA} gives
    Re(s p^2) <= 0: every factor has modulus <= 1, so round-off is never
    amplified.  The split e^{s p^2 t_k} e^{-s p^2 t_l} would overflow.  The
    factor e^{s p^2 h} of a chunk of rows is evaluated (GreenGrids.damping)
    whenever the step h changes, so each entry once per distinct step of
    the time lattice (the uniform half repeats one step), and no table of
    them is kept.  The Filon-weighted
    bracket row has no such recurrence (the weights are not multiplicative
    in sigma) and is one contraction per node against the table of weights:
    one single-precision row per distinct gap t_k - t_l, read through an
    (n_t, n_t) integer index, so no (n_t, n_t, n_p) array is ever formed.

    The forcing is real, so its spectra are half spectra (real FFTs).  The
    free part is WholeLineGrid.free_field on their running sums (the Green
    operator uses it too), one call per block of FREE_BLOCK_ROWS time rows,
    made by transform_forcing.  The recurrence only records the kernel
    pieces per node; the field of the whole lattice then follows in one
    FieldAssembly call on the stacked (n_t, n_p) kernel rows.  The phases
    e^{i tau xi|xi|} of every node are built once; their conjugates are the
    evolutions e^{-i t_k xi|xi|} the free part reads.

    Memory: the propagator keeps the complex64 ray map M (30.8 MB at
    production), the Filon table and the phases, about 45 MB at production
    (``kept_mb``), and the bracket row's maps and indices.  M is built
    SWEEP_CHUNK_RAYS rays at a time over the scattered Laplace matrix in its
    own storage, so the ray rows' tensor (57.6 MB) never exists whole; the
    single-precision Laplace matrices are filled in their own dtype
    (``laplace_matrix``), never in double precision first.  A sweep never
    holds its whole (n_t, n_ray + n_tail, n_p) kernel lattice:
    ``accumulate`` fits the tail's corner model first, from the corner
    rows of the ray map alone, then streams the lattice SWEEP_CHUNK_RAYS
    rays at a time, forming a chunk's product, running the damped
    recurrence of its rows (each row's recurrence is independent of the
    others) and adding its part of the ray sum, so only one chunk and the
    ray sum are alive; the free part's whole-line arrays are formed
    FREE_BLOCK_ROWS time rows at a time.  A sweep's allocation peak is then
    about 0.52 of one whole lattice on the test grid and 9.3 MB at
    production.  A chunk
    is bitwise those rows of the whole (n_t, n_ray + n_tail, n_p) lattice:
    each row's product, cast and recurrence depend on that row alone, so
    only the order of the ray sum moves the values (by round-off).
    """

    def __init__(self, symbols: Symbols, half_grid: HalfLineGrid,
                 times: TimeGrid):
        self.layout = DUHAMEL_GRIDS
        self.half = half_grid
        self.times = times
        self.whole = WholeLineGrid(n=8192, dx=0.0625, x0=-64.0)
        xs = half_grid.nodes
        # forcings carry a wall jump, so their spectra reach the grid's cutoff
        self.whole.check_transport(float(times.nodes[-1]), float(xs[-1]),
                                   float(np.max(np.abs(self.whole.xi))))
        p = self.layout.p_nodes

        z, _ = DUHAMEL_AXIS
        self._lap_axis = laplace_matrix(z, xs, np.complex64)
        self._m_ray = self._ray_map(symbols.direction(self.layout.ray.phase))
        brk = symbols.direction(1j)
        t_brk, bt_brk = self._build_tensor(brk, np.array([1.0]))
        self._t_brk = t_brk[0]                       # (n_p, nz)
        self._bt_brk = complex(bt_brk[0])
        self._lap_scat_brk = self._scattered_laplace(brk, np.array([1.0]))
        self.field = FieldAssembly(xs, p)

        # oscillatory quadrature weights for every (t_k, tau_l) gap, one
        # table row per distinct gap (the uniform half repeats them), all
        # from one Filon table build; _fw_of[k, l] is the row of gap
        # t_k - t_l for l <= k and one past the table (no row) for l > k
        nt = times.n
        lower = np.tril_indices(nt)
        gaps = (times.nodes[:, None] - times.nodes[None, :])[lower]
        distinct, which = np.unique(gaps, return_inverse=True)
        self._fw = fresnel_table(p, distinct, np.complex64)
        self._fw_of = np.full((nt, nt), distinct.size)
        self._fw_of[lower] = which

        # e^{i tau xi|xi|} at every node, on the half spectrum
        xi = self.whole.xi_half
        self._back = 1j * np.outer(times.nodes, xi * np.abs(xi))
        np.exp(self._back, out=self._back)
        self._support = slice(self.whole.index_of(0.0),
                              self.whole.index_of(float(xs[-1])) + 1)

    # -- construction helpers ------------------------------------------------

    def _build_tensor(self, cache, moduli: np.ndarray):
        """Tensor and root-term coefficients for one unit direction, rows
        indexed by |s|."""
        p = self.layout.p_nodes
        z, wz = DUHAMEL_AXIS
        m = np.sqrt(moduli)[:, None] * p[None, :]            # (n_s, n_p)
        tensor = np.empty((moduli.size, p.size, z.size), dtype=np.complex64)
        bt = np.empty(moduli.size, dtype=complex)

        def fill(i: int) -> None:
            mi = m[i][:, None]                               # (n_p, 1)
            tensor[i], bt[i] = e_minus_weights(cache, moduli[i],
                                               z[None, :] / mi, wz[None, :] / mi)

        for_each_row(moduli.size, fill)
        return tensor, bt

    def _scattered_laplace(self, cache, moduli: np.ndarray) -> np.ndarray:
        """Complex64 Laplace matrix at the scattered points phi_hat m of the
        root term, m = p |s|^{1/2}, rows (|s|, p) flattened."""
        m = np.sqrt(moduli)[:, None] * self.layout.p_nodes[None, :]
        return laplace_matrix((cache.phi_hat * m).ravel(), self.half.nodes,
                              np.complex64)

    def _ray_map(self, cache) -> np.ndarray:
        """The ray rows' map from forcing samples to kernel rows,
        M = T L_axis - bt (x) L_scat, (n_ray n_p, n_x) complex64.  L_scat is
        formed first, in M's own storage; then SWEEP_CHUNK_RAYS rays at a
        time, the chunk's tensor rows are built, the scatter term of its
        rows taken, root coefficient first, in complex128, the complex64
        product T L_axis written over those rows and the scatter term
        subtracted from it in complex128 and rounded once.  So the whole
        tensor never exists, and each row depends on its own ray alone."""
        r = self.layout.ray.r[:self.layout.n_ray]
        n_p = self.layout.p_nodes.size
        m_ray = self._scattered_laplace(cache, r)
        for lo in range(0, r.size, SWEEP_CHUNK_RAYS):
            rays = slice(lo, min(lo + SWEEP_CHUNK_RAYS, r.size))
            tensor, bt = self._build_tensor(cache, r[rays])
            rows = m_ray[lo * n_p:rays.stop * n_p]
            scatter = np.repeat(bt, n_p)[:, None] * rows
            np.matmul(tensor.reshape(rows.shape[0], -1), self._lap_axis,
                      out=rows)
            rows -= scatter
        return m_ray

    # -- per-sweep stages ------------------------------------------------------

    def transform_forcing(self, forcing: np.ndarray) -> ForcingTransforms:
        """Free part, single-precision samples and bracket rows for every
        forcing row (n_t, n_x)."""
        nt = self.times.n
        nodes = self.times.nodes
        xs = self.half.nodes
        # half the step into each node, 0 into node 0
        half_steps = 0.5 * np.diff(nodes, prepend=nodes[0])

        # the free part: zero-extended spectra, anti-evolved so the sums
        # telescope over tau, their trapezoid running sums over nodes 0..k,
        # evolved to every t_k; FREE_BLOCK_ROWS time rows at a time, each
        # block carrying the last spectrum and running sum of the one before
        # (zero rows before the first block)
        at_support = CubicSpline(xs, forcing, axis=1)(
            self.whole.nodes[self._support])
        samples = np.zeros((min(FREE_BLOCK_ROWS, nt), self.whole.n))
        last_spectrum = last_sum = np.zeros(self._back.shape[1], dtype=complex)
        free = np.empty((2, nt, xs.size))
        for lo in range(0, nt, FREE_BLOCK_ROWS):
            rows = slice(lo, min(lo + FREE_BLOCK_ROWS, nt))
            block = samples[:rows.stop - lo]
            block[:, self._support] = at_support[rows]
            back = self._back[rows]
            spectra = np.fft.rfft(block, axis=1)
            spectra *= back
            running = np.empty_like(spectra)
            np.add(spectra[:-1], spectra[1:], out=running[1:])
            np.add(last_spectrum, spectra[0], out=running[0])
            running *= half_steps[rows, None]
            running[0] += last_sum
            np.cumsum(running, axis=0, out=running)
            last_spectrum, last_sum = spectra[-1].copy(), running[-1].copy()
            # the evolution to node k, e^{-i t_k xi|xi|}, is conj(_back[k])
            free[:, rows] = self.whole.free_field(
                running, lambda k: np.conj(back[k]), xs, (0, 1))

        # the bracket row stays two maps, T_brk against the axis samples and
        # the scatter term, unlike the ray rows' fused M: do not fuse it.
        # Fused as well, it moved the production solve's contraction-ratio[1]
        # by -2.4e-6 relative with its product in complex64 and by -2.3e-6
        # in complex128 (-1.5e-6 with M also formed in complex128), past the
        # 1e-6 RTOL of benchmark/gate.py; M alone moves it by -4.9e-7
        # (seed 0, 2 BLAS threads)
        fc = forcing.astype(np.complex64)
        fz = self._lap_axis @ fc.T                            # (nz, nt)
        e_brk = (self._t_brk @ fz).T.astype(complex)
        e_brk -= self._bt_brk * (self._lap_scat_brk @ fc.T).T
        return ForcingTransforms(free=free, fc=fc, e_brk=e_brk)

    def accumulate(self, lat: ForcingTransforms) -> tuple[np.ndarray, np.ndarray]:
        """Value and derivative lattices (n_t, n_x) of the memory integral:
        the free part of ``lat`` plus the kernel field, by the damped
        recurrence of the class docstring, one chunk of SWEEP_CHUNK_RAYS
        kernel lattice rows at a time."""
        nodes = self.times.nodes
        nt = nodes.size
        layout = self.layout
        n_p = layout.p_nodes.size
        n_ray, n_rows = layout.n_ray, layout.ray.s.size
        chunk = SWEEP_CHUNK_RAYS
        # W_l for every l < k, whatever k (the last weight is never used)
        w = self.times.weights
        # sum over the rays of coef A_k, one partial sum per chunk; row 0 is
        # A_0 = 0: the l == k slice is the correction at zero gap,
        # identically zero by the t -> 0 identity of the propagator, and
        # only the free part keeps that endpoint
        ray_sum = np.zeros((nt, n_p), dtype=complex)

        # the tail's corner model, fitted up front to the corner rows of the
        # fused map's product, bitwise those rows of the chunk products
        fc_t = lat.fc.T
        corner_rays, corner_p = layout.corner
        corner = (self._m_ray[(corner_rays * n_p + corner_p).ravel()] @ fc_t).T
        lam = layout.fit_corner(corner.astype(complex, order="C"))
        # the chunks of the ray rows, then of the tail rows, so the ray sum
        # adds its partial sums in layout order.  A ray chunk is one
        # complex64 product of the fused map, cast once into the chunk
        # buffer; a tail chunk is the corner model's rows
        buf = np.empty((nt, min(chunk, n_rows), n_p), dtype=complex)
        for lo in [*range(0, n_ray, chunk), *range(n_ray, n_rows, chunk)]:
            hi = min(lo + chunk, n_ray if lo < n_ray else n_rows)
            e = buf[:, :hi - lo]
            if lo < n_ray:
                # the (rays * n_p, nt) product, read as (nt, rays, n_p), and
                # freed before the chunk's recurrence
                e[...] = np.moveaxis((self._m_ray[lo * n_p:hi * n_p] @ fc_t)
                                     .reshape(-1, n_p, nt), -1, 0)
            else:
                layout.fill_tail(lam, e, slice(lo - n_ray, hi - n_ray))
            rows = slice(lo, hi)
            coef = layout.ray.coef[rows]
            for k, acc in damped_sums(nodes, w, e,
                                      lambda h: layout.damping(h, rows)):
                ray_sum[k] += coef @ acc
        k_smooth = np.imag(ray_sum) / math.pi

        p0sq = layout.p_nodes[0] ** 2
        k0 = k_smooth[:, 0].copy()
        for k, acc in damped_sums(nodes, w, lat.e_brk[:, 0],
                                  lambda h: np.exp(1j * p0sq * h)):
            k0[k] += np.imag(acc)
        w_e_brk = w[:, None] * lat.e_brk
        w_brk = np.empty((nt, n_p), dtype=complex)
        for k in range(nt):
            w_brk[k] = np.sum(w_e_brk[:k] * self._fw[self._fw_of[k, :k]], axis=0)
        return tuple(lat.free[d] + self.field(d, k_smooth, w_brk, k0)
                     for d in (0, 1))


# ---------------------------------------------------------------------------
# fixed-point driver


@dataclass
class SpaceTimeSolution:
    """Picard iterate history and the converged space-time lattice."""

    x: np.ndarray
    times: np.ndarray
    values: np.ndarray                    # (n_t, n_x)
    derivs: np.ndarray                    # (n_t, n_x)
    boundary_values: np.ndarray           # h(t_k)
    contraction_ratios: list
    fixed_point_residual_rel: float       # the residual sweep's step / X-norm
    solution_xnorm: float
    converged: bool
    aborted: bool
    n_iter: int
    trace_error: float
    form_discrepancy: float
    # the CPU count that independent rows are split across (workers), stage
    # seconds and the process peak RSS (MB) at the end of each stage:
    # linear_lattice_s and _peak_rss_mb, propagator_build_s (0 for a supplied
    # propagator) and _peak_rss_mb, propagator_mb (the arrays the propagator
    # keeps, kept_mb), and lists with one entry per Duhamel sweep
    # (the Picard iterations, then the residual sweep): transform_forcing_s,
    # accumulate_s, sweep_s, which adds the X-norm of the step, that
    # step_norm, and sweep_peak_rss_mb
    meta: dict = field(default_factory=dict)

    def at_time(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        k = node_index(self.times, t)
        return self.values[k], self.derivs[k]

    def interpolate(self, x_new: np.ndarray, t: float) -> np.ndarray:
        vals, _ = self.at_time(t)
        return CubicSpline(self.x, vals)(np.asarray(x_new, dtype=float))


def kept_mb(obj) -> float:
    """MB (2^20 bytes) of the ndarrays that ``obj`` holds as attributes;
    arrays of the objects it holds (a propagator's layout and field
    assembly, about 1 MB at production) are not counted."""
    return sum(a.nbytes for a in vars(obj).values()
               if isinstance(a, np.ndarray)) / 2.0**20


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB (2^20 bytes):
    ``ru_maxrss`` counts KiB on Linux and bytes on macOS."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (2.0**20 if sys.platform == "darwin" else 2.0**10)


def advective_forcing(values: np.ndarray, derivs: np.ndarray) -> np.ndarray:
    """Pointwise u u_x on the lattice."""
    return values * derivs


def _divergence_gap(values: np.ndarray, derivs: np.ndarray,
                    grid: HalfLineGrid) -> float:
    """Mismatch between u u_x and (1/2) d/dx u^2 with an independent
    finite-difference derivative; a lattice self-consistency figure."""
    adv = values * derivs
    div = 0.5 * np.gradient(values**2, grid.nodes, axis=-1)
    return float(np.max(grid.l2_norm(adv - div))
                 / max(np.max(grid.l2_norm(adv)), 1.0e-30))


def picard_solve(config: RunConfig | None = None,
                 propagator: DuhamelPropagator | None = None) -> SpaceTimeSolution:
    """Solve the nonlinear problem by Picard iteration on the Duhamel map."""
    cfg = config or RunConfig()
    symbols = Symbols(cfg)
    half = HalfLineGrid(x_max=cfg.x_max, n=cfg.n_x)
    times = TimeGrid(cfg.t_final, cfg.t_switch, cfg.n_time_geometric,
                     cfg.n_time_uniform)
    xs = half.nodes
    psi = make_profile(cfg.psi_profile, cfg.data_scale)
    h = RampExp(cfg.data_scale)
    h_values = h(times.nodes)

    clock = time.perf_counter()
    green = GreenOperator(symbols, psi)
    bker = BoundaryKernel(symbols)
    lin = np.empty((2, times.n, xs.size))
    # node 0 is t = 0 exactly: G(0) psi = psi and B(0) h = 0
    lin[:, 0] = psi(xs), psi.deriv(xs)
    lin[:, 1:] = (green.apply(xs, times.nodes[1:], (0, 1))
                  + bker.apply_convolution(h, xs, times.nodes[1:], (0, 1)))

    timings = {"workers": cpu_workers(),
               "linear_lattice_s": time.perf_counter() - clock,
               "linear_lattice_peak_rss_mb": peak_rss_mb(),
               "propagator_build_s": 0.0, "transform_forcing_s": [],
               "accumulate_s": [], "sweep_s": [], "step_norm": [],
               "sweep_peak_rss_mb": []}
    if propagator is None:
        clock = time.perf_counter()
        propagator = DuhamelPropagator(symbols, half, times)
        timings["propagator_build_s"] = time.perf_counter() - clock
    timings["propagator_build_peak_rss_mb"] = peak_rss_mb()
    timings["propagator_mb"] = kept_mb(propagator)
    xnorm = XNorm(half, times.nodes)

    def sweep(values: np.ndarray, derivs: np.ndarray):
        """One application of the Duhamel map and the X-norm of its step,
        timed per stage.  A forcing u u_x has a transform only if max|u u_x|
        <= np.finfo(np.float32).max, the range of its single-precision
        products; else the step is NaN, untimed, and the iteration aborts on
        it."""
        t0 = time.perf_counter()
        with np.errstate(over="ignore"):
            forcing = advective_forcing(values, derivs)
        if not np.max(np.abs(forcing)) <= np.finfo(np.float32).max:
            return values, derivs, float("nan")
        lat = propagator.transform_forcing(forcing)
        t1 = time.perf_counter()
        duh_val, duh_der = propagator.accumulate(lat)
        t2 = time.perf_counter()
        new_val, new_der = lin[0] - duh_val, lin[1] - duh_der
        step = xnorm(new_val - values, new_der - derivs)
        timings["transform_forcing_s"].append(t1 - t0)
        timings["accumulate_s"].append(t2 - t1)
        timings["sweep_s"].append(time.perf_counter() - t0)
        timings["step_norm"].append(step)
        timings["sweep_peak_rss_mb"].append(peak_rss_mb())
        return new_val, new_der, step

    u_val, u_der = lin[0].copy(), lin[1].copy()
    ratios: list[float] = []
    converged = False
    aborted = False
    n_iter = 0
    for n_iter in range(1, cfg.picard_max_iter + 1):
        new_val, new_der, step = sweep(u_val, u_der)
        if not math.isfinite(step):
            aborted = True
            break
        if n_iter > 1:  # the previous step did not converge, so it is > 0
            ratios.append(step / timings["step_norm"][-2])
        u_val, u_der = new_val, new_der
        u_norm = xnorm(u_val, u_der)
        if step <= cfg.picard_tol * max(u_norm, 1.0e-30):
            converged = True
            break
        if len(ratios) >= 2 and ratios[-1] > 1.0 and ratios[-2] > 1.0 \
                and step > 50.0 * max(timings["step_norm"][0], 1.0e-30):
            aborted = True
            break

    # an aborted lattice's figures may overflow: they read inf or NaN
    with np.errstate(over="ignore", invalid="ignore"):
        u_norm = xnorm(u_val, u_der)
        gap = _divergence_gap(u_val, u_der, half)
    residual_rel = float("nan") if aborted \
        else sweep(u_val, u_der)[2] / max(u_norm, 1.0e-30)

    # TimeGrid has nodes t > 0: t_switch >= MIN_T_SWITCH > 0
    interior = times.nodes > 0.0
    trace_err = float(np.max(np.abs(u_val[interior, 0] - h_values[interior])))

    return SpaceTimeSolution(
        x=xs, times=times.nodes.copy(), values=u_val, derivs=u_der,
        boundary_values=h_values, contraction_ratios=ratios,
        fixed_point_residual_rel=residual_rel,
        solution_xnorm=u_norm, converged=converged, aborted=aborted,
        n_iter=n_iter, trace_error=trace_err, form_discrepancy=gap,
        meta=timings)


def cross_validate(config: RunConfig, t_compare: float,
                   solution: SpaceTimeSolution) -> dict:
    """Relative L2 gap between the Picard solution and an independent
    finite-difference run at one comparison time, both norms taken on the
    reference nodes inside the solution's grid, x <= x_max (the solution's
    spline is not read past its last node); ``reference`` holds that run's
    size, stage seconds and certificates."""
    mol = MethodOfLines(config)
    saves = np.array([0.0, t_compare])
    res = mol.run(t_final=t_compare, save_times=saves)
    common = mol.x <= solution.x[-1]
    u_mol = res.at_time(t_compare)[common]
    u_pic = solution.interpolate(mol.x[common], t_compare)
    diff = float(l2_norm(u_pic - u_mol, mol.dx))
    ref = float(l2_norm(u_mol, mol.dx))
    return {
        "rel_l2": diff / max(ref, 1.0e-30),
        "mol_norm": ref,
        "picard_norm": float(l2_norm(u_pic, mol.dx)),
        "reference": {"n": config.mol_n, "spectral_radius": res.spectral_radius,
                      "l2_drift": res.l2_drift, **res.meta},
    }
