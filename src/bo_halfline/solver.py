"""Nonlinear half-line solver.

Picard iteration on the Duhamel integral equation

    u(t) = G(t) psi + B(t) h - int_0^t G(t - tau) (u u_x)(tau) dtau,

with the linear part assembled once from the Green and boundary operators and
the memory integral evaluated by an amortized propagator.  The propagator
exploits that the kernel lattice is *linear* in the Laplace transform of the
forcing: a fixed third-order tensor maps transform samples on one imaginary
lattice straight to kernel rows, so each Picard sweep costs a handful of
matrix products instead of thousands of kernel rebuilds.
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
from .green import (FieldAssembly, GreenGrids, GreenOperator, RayLayout,
                    e_minus_weights, fresnel_table)
# the one-row Filon helper stays importable from this module too
from .green import fresnel_weights  # noqa: F401
from .halfline import (HalfLineGrid, WholeLineGrid, cpu_workers, for_each_row,
                       l2_norm, laplace_matrix, make_profile, node_index,
                       trapezoid_weights)
from .mol import MethodOfLines
from .symbols import Symbols


# ---------------------------------------------------------------------------
# time lattice


class TimeGrid:
    """Geometric nodes up to the switch time, uniform afterwards.

    Node 0 is exactly t = 0; trapezoid weights over the leading k+1 nodes
    discretize int_0^{t_k}.
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

    def index_of(self, t: float) -> int:
        return node_index(self.nodes, t)

    def weights_upto(self, k: int) -> np.ndarray:
        """Trapezoid weights for int_0^{t_k} on nodes 0..k."""
        return trapezoid_weights(self.nodes[:k + 1])


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


@dataclass
class ForcingTransforms:
    """Per-sweep free part and kernel lattices of the forcing history (one
    row per node).

    Each array is allocated once and filled in place, so a sweep holds
    little beyond them: e_full's ray rows take the cast single-precision
    products, its tail rows the corner model fitted to them.  The free
    part is finished before e_full is allocated, so its whole-line spectra
    never coexist with the kernel lattice."""

    free: np.ndarray        # (2, n_t, n_x) free part: values, x-derivatives
    e_full: np.ndarray      # (n_t, n_ray + n_tail, n_p) damped-ray + tail rows
    e_brk: np.ndarray       # (n_t, n_p) bracket-direction rows


#: Layout of the memory-integral corrections.  Coarser than the single-shot
#: Green layout: each lattice cell is carried through every time step of the
#: accumulation, and the time quadrature error (~1e-3) would swamp finer
#: spatial resolution anyway.
DUHAMEL_GRIDS = GreenGrids(p_ppd=12, r_ppd=8, axis_min=1.0e-6, axis_max=1.0e6)


class DuhamelPropagator:
    """Sum_l w_l G(t_k - tau_l) N_l for gridded forcings, amortized.

    The kernel row for modulus |s| and transform psi_hat is the shared E-
    formula (green.e_minus_weights)

        E(p, s) = sum_v w(v) psi_hat(m v) - root psi_hat(phi_hat m),   m = p |s|^{1/2},

    and substituting z = m v turns the axis integral into a *fixed*
    imaginary lattice in z with m-dependent weights w(z/m) evaluated at
    wv = wz/m.  Everything except psi_hat(z_q) is forcing-independent, so it
    freezes into a tensor T[row, p, q]; a sweep reduces to T contracted
    against Laplace samples of each forcing row.  Free parts factor through
    unitary phases, e^{is'|s'|(t-tau)} = e^{is'|s'|t} e^{-is'|s'|tau},
    giving an O(n_t) running-sum recurrence on the whole-line spectra.

    The damped-ray part of the memory sum is O(n_t) too.  For l < k the
    trapezoid weight W_l of node l on nodes 0..k does not depend on k, and
    the kernel carries time only through e^{s p^2 sigma}, so with
    h_k = t_{k+1} - t_k

        A_k = sum_{l<k} W_l E_l e^{s p^2 (t_k - t_l)}
            = e^{s p^2 h_{k-1}} (A_{k-1} + W_{k-1} E_{k-1}),   A_0 = 0,

    exactly; the p_0 bracket sum follows the same recurrence with
    e^{i p_0^2 h}.  It is stable because s = r e^{i RAY_THETA} gives
    Re(s p^2) <= 0: every factor has modulus <= 1, so round-off is never
    amplified.  The split e^{s p^2 t_k} e^{-s p^2 t_l} would overflow.  The
    factors e^{s p^2 h} come from a table built once, one entry per distinct
    step h of the time lattice (the uniform half repeats one step).  The
    Filon-weighted bracket row has no such recurrence (the weights are not
    multiplicative in sigma) and is one contraction per node against the
    table of weights: one single-precision row per distinct gap t_k - t_l,
    read through an (n_t, n_t) integer index, so no (n_t, n_t, n_p) array
    is ever formed.

    The forcing is real, so its spectra are half spectra (real FFTs).  The
    free part of the whole lattice is one WholeLineGrid.free_field call on
    their running sums (the Green operator uses it too), made by
    transform_forcing before the kernel lattice is allocated.  The
    recurrence only records the kernel pieces per node; the field of the
    whole lattice then follows in one FieldAssembly call on the stacked
    (n_t, n_p) kernel rows.  The phases e^{i tau xi|xi|} of every node are
    built once.

    Memory: the single-precision Laplace matrices are filled in their own
    dtype (``laplace_matrix``), never in double precision first, and a sweep
    allocates its ForcingTransforms once and writes every product into it.
    The products, casts and their order are those of the whole-lattice
    formulation, so the values are the same to the bit.
    """

    def __init__(self, symbols: Symbols, half_grid: HalfLineGrid,
                 times: TimeGrid):
        self.symbols = symbols
        self.grids = DUHAMEL_GRIDS
        self.half = half_grid
        self.times = times
        self.whole = WholeLineGrid(n=8192, dx=0.0625, x0=-64.0)
        xs = half_grid.nodes
        # forcings carry a wall jump, so their spectra reach the grid's cutoff
        self.whole.check_transport(float(times.nodes[-1]), float(xs[-1]),
                                   float(np.max(np.abs(self.whole.xi))))
        self.layout = RayLayout(self.grids)
        p = self.layout.p_nodes

        r, _ = self.grids.ray
        z, _ = self.grids.axis
        t_ray, bt_ray, scat_ray = self._build_tensor(
            symbols.direction(self.layout.ray.phase), r)
        t_brk, bt_brk, scat_brk = self._build_tensor(symbols.direction(1j),
                                                     np.array([1.0]))
        self._t_ray = t_ray.reshape(-1, z.size)      # (n_ray*n_p, nz) complex64
        self._t_brk = t_brk[0]                       # (n_p, nz)
        self._bt_ray = bt_ray                        # (n_ray,)
        self._bt_brk = complex(bt_brk[0])
        self._lap_axis = laplace_matrix(z, xs, np.complex64)
        self._lap_scat_ray = laplace_matrix(scat_ray.ravel(), xs, np.complex64)
        self._lap_scat_brk = laplace_matrix(scat_brk[0], xs, np.complex64)
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

        # e^{s p^2 h} for every distinct step h = t_{k+1} - t_k
        steps, self._step_of = np.unique(np.diff(times.nodes), return_inverse=True)
        self._damping = self.layout.damping_table(steps)

        # e^{i tau xi|xi|} at every node, on the half spectrum
        xi = self.whole.xi_half
        self._back = 1j * np.outer(times.nodes, xi * np.abs(xi))
        np.exp(self._back, out=self._back)
        self._support = slice(self.whole.index_of(0.0),
                              self.whole.index_of(float(xs[-1])) + 1)

    # -- construction helpers ------------------------------------------------

    def _build_tensor(self, cache, moduli: np.ndarray):
        """Tensor, root-term coefficients and scattered Laplace points
        phi_hat m for one unit direction, rows indexed by |s|."""
        p = self.layout.p_nodes
        z, wz = self.grids.axis
        m = np.sqrt(moduli)[:, None] * p[None, :]            # (n_s, n_p)
        tensor = np.empty((moduli.size, p.size, z.size), dtype=np.complex64)
        bt = np.empty(moduli.size, dtype=complex)

        def fill(i: int) -> None:
            mi = m[i][:, None]                               # (n_p, 1)
            tensor[i], bt[i] = e_minus_weights(cache, moduli[i],
                                               z[None, :] / mi, wz[None, :] / mi)

        for_each_row(moduli.size, fill)
        return tensor, bt, cache.phi_hat * m

    # -- per-sweep stages ------------------------------------------------------

    def transform_forcing(self, forcing: np.ndarray) -> ForcingTransforms:
        """Free part and kernel lattices for every forcing row (n_t, n_x)."""
        nt = self.times.n
        nodes = self.times.nodes
        layout = self.layout
        n_p = layout.p_nodes.size
        n_ray = layout.n_ray

        # the free part first, so that its spectra are gone before the
        # kernel lattice exists: zero-extended spectra, anti-evolved so the
        # sums telescope over tau, their trapezoid running sums over nodes
        # 0..k formed in one array, evolved to every t_k
        samples = np.zeros((nt, self.whole.n))
        spline = CubicSpline(self.half.nodes, forcing, axis=1)
        samples[:, self._support] = spline(self.whole.nodes[self._support])
        spectra = np.fft.rfft(samples, axis=1)
        del samples
        spectra *= self._back
        running = np.empty_like(spectra)
        running[0] = 0.0
        np.add(spectra[:-1], spectra[1:], out=running[1:])
        del spectra
        running[1:] *= 0.5 * np.diff(nodes)[:, None]
        np.cumsum(running[1:], axis=0, out=running[1:])
        free = self.whole.free_field(running, nodes, self.half.nodes, (0, 1))
        del running

        def by_node(prod: np.ndarray) -> np.ndarray:
            """(n_ray*n_p, nt) product as an (nt, n_ray, n_p) view."""
            return np.moveaxis(prod.reshape(n_ray, n_p, nt), -1, 0)

        # complex64 products, each cast once into the ray rows of the one
        # output lattice; the scatter term is subtracted in complex128 one
        # ray row at a time
        fc = forcing.astype(np.complex64)
        fz = self._lap_axis @ fc.T                            # (nz, nt)
        e_full = np.empty((nt, layout.ray.s.size, n_p), dtype=complex)
        e_ray = e_full[:, :n_ray]
        e_ray[...] = by_node(self._t_ray @ fz)
        scat_ray = by_node(self._lap_scat_ray @ fc.T)
        for i, bt in enumerate(self._bt_ray):
            e_ray[:, i] -= bt * scat_ray[:, i]
        del scat_ray
        e_brk = (self._t_brk @ fz).T.astype(complex)
        e_brk -= self._bt_brk * (self._lap_scat_brk @ fc.T).T
        layout.fit_tail(e_full)
        return ForcingTransforms(free=free, e_full=e_full, e_brk=e_brk)

    def accumulate(self, lat: ForcingTransforms) -> tuple[np.ndarray, np.ndarray]:
        """Value and derivative lattices (n_t, n_x) of the memory integral:
        the free part of ``lat`` plus the kernel field, by the damped
        recurrence of the class docstring."""
        nodes = self.times.nodes
        nt = nodes.size
        layout = self.layout
        n_p = layout.p_nodes.size
        p0sq = layout.p_nodes[0] ** 2
        # W_l for every l < k, whatever k (the last weight is never used)
        w = self.times.weights_upto(nt - 1)
        w_e_brk = w[:, None] * lat.e_brk
        acc = np.zeros_like(layout.sp2)
        k0_brk = 0.0j
        k_smooth = np.empty((nt, n_p))
        w_brk = np.empty((nt, n_p), dtype=complex)
        k0 = np.empty(nt)
        # the l == k slice is the correction at zero gap, identically zero by
        # the t -> 0 identity of the propagator; only the free part keeps
        # that endpoint
        for k in range(nt):
            if k > 0:
                hstep = nodes[k] - nodes[k - 1]
                acc = self._damping[self._step_of[k - 1]] \
                    * (acc + w[k - 1] * lat.e_full[k - 1])
                k0_brk = np.exp(1j * p0sq * hstep) \
                    * (k0_brk + w_e_brk[k - 1, 0])
            w_brk[k] = np.sum(w_e_brk[:k] * self._fw[self._fw_of[k, :k]], axis=0)
            k_smooth[k] = layout.ray.smooth(acc)
            k0[k] = k_smooth[k, 0] + np.imag(k0_brk)
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
    linear_values: np.ndarray             # G psi + B h lattice
    contraction_ratios: list
    step_norms: list                      # X-norm of successive differences
    fixed_point_residual: float
    fixed_point_residual_rel: float
    solution_xnorm: float
    converged: bool
    aborted: bool
    n_iter: int
    trace_error: float
    form_discrepancy: float
    # run labels, the CPU count that independent rows are split across
    # (workers), stage seconds and the process peak RSS (MB) at the end of
    # each stage: linear_lattice_s and _peak_rss_mb, propagator_build_s (0
    # for a supplied propagator) and _peak_rss_mb, and lists with one entry
    # per Duhamel sweep (the Picard iterations, then the residual sweep):
    # transform_forcing_s, accumulate_s, sweep_s, which adds the X-norm of
    # the step, and sweep_peak_rss_mb
    meta: dict = field(default_factory=dict)

    def at_time(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        k = node_index(self.times, t)
        return self.values[k], self.derivs[k]

    def interpolate(self, x_new: np.ndarray, t: float) -> np.ndarray:
        vals, _ = self.at_time(t)
        return CubicSpline(self.x, vals)(np.asarray(x_new, dtype=float))

    def norm_history(self, grid: HalfLineGrid, kind: str = "l2",
                     weight_power: float = 1.0) -> np.ndarray:
        """Per-node norms: 'l2', 'h1', or polynomially 'weighted' L2."""
        if kind == "l2":
            return grid.l2_norm(self.values)
        if kind == "h1":
            return np.hypot(grid.l2_norm(self.values), grid.l2_norm(self.derivs))
        if kind == "weighted":
            return grid.weighted_norm(self.values, weight_power)
        raise ValueError(f"unknown norm kind {kind!r}")


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
    h = make_profile(cfg.h_profile, cfg.data_scale)
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
               "accumulate_s": [], "sweep_s": [], "sweep_peak_rss_mb": []}
    if propagator is None:
        clock = time.perf_counter()
        propagator = DuhamelPropagator(symbols, half, times)
        timings["propagator_build_s"] = time.perf_counter() - clock
    timings["propagator_build_peak_rss_mb"] = peak_rss_mb()
    xnorm = XNorm(half, times.nodes)

    def sweep(values: np.ndarray, derivs: np.ndarray):
        """One application of the Duhamel map and the X-norm of its step,
        timed per stage.  A forcing u u_x that overflowed has no transform:
        the step is then NaN, untimed, and the iteration aborts on it."""
        t0 = time.perf_counter()
        forcing = advective_forcing(values, derivs)
        if not np.isfinite(forcing).all():
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
        timings["sweep_peak_rss_mb"].append(peak_rss_mb())
        return new_val, new_der, step

    u_val, u_der = lin[0].copy(), lin[1].copy()
    step_norms: list[float] = []
    ratios: list[float] = []
    converged = False
    aborted = False
    n_iter = 0
    data_zero = xnorm(u_val, u_der) < 1.0e-30
    if not data_zero:
        for n_iter in range(1, cfg.picard_max_iter + 1):
            new_val, new_der, step = sweep(u_val, u_der)
            if not math.isfinite(step):
                aborted = True
                break
            if step_norms:
                prev = step_norms[-1]
                ratios.append(step / prev if prev > 0.0 else 0.0)
            step_norms.append(step)
            u_val, u_der = new_val, new_der
            u_norm = xnorm(u_val, u_der)
            if step <= cfg.picard_tol * max(u_norm, 1.0e-30):
                converged = True
                break
            if len(ratios) >= 2 and ratios[-1] > 1.0 and ratios[-2] > 1.0 \
                    and step > 50.0 * max(step_norms[0], 1.0e-30):
                aborted = True
                break

    u_norm = xnorm(u_val, u_der)
    if data_zero:
        residual = 0.0
        converged = True
    elif aborted:
        residual = float("nan")
    else:
        residual = sweep(u_val, u_der)[2]
    residual_rel = residual / max(u_norm, 1.0e-30)

    interior = times.nodes > 0.0
    trace_err = float(np.max(np.abs(u_val[interior, 0] - h_values[interior]))) \
        if interior.any() else 0.0
    gap = _divergence_gap(u_val, u_der, half)

    return SpaceTimeSolution(
        x=xs, times=times.nodes.copy(), values=u_val, derivs=u_der,
        boundary_values=h_values, linear_values=lin[0].copy(),
        contraction_ratios=ratios, step_norms=step_norms,
        fixed_point_residual=residual, fixed_point_residual_rel=residual_rel,
        solution_xnorm=u_norm, converged=converged, aborted=aborted,
        n_iter=n_iter, trace_error=trace_err, form_discrepancy=gap,
        meta={"data_scale": cfg.data_scale, "psi": cfg.psi_profile,
              "h": cfg.h_profile, **timings})


def cross_validate(config: RunConfig | None = None, t_compare: float = 1.0,
                   solution: SpaceTimeSolution | None = None) -> dict:
    """Relative L2 gap between the Picard solution and an independent
    finite-difference run at one comparison time; ``reference`` holds that
    run's size, stage seconds and certificates."""
    cfg = config or RunConfig()
    sol = solution if solution is not None else picard_solve(cfg)
    mol = MethodOfLines(cfg)
    saves = np.array([0.0, t_compare])
    res = mol.run(t_final=t_compare, save_times=saves)
    u_mol = res.at_time(t_compare)
    u_pic = sol.interpolate(mol.x, t_compare)
    diff = float(l2_norm(u_pic - u_mol, mol.dx))
    ref = float(l2_norm(u_mol, mol.dx))
    return {
        "rel_l2": diff / max(ref, 1.0e-30),
        "mol_norm": ref,
        "picard_norm": float(l2_norm(u_pic, mol.dx)),
        "reference": {"n": cfg.mol_n, "spectral_radius": res.spectral_radius,
                      "l2_drift": res.l2_drift, **res.meta},
    }
