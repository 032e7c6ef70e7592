"""Grids, norms, profiles, Hilbert/Laplace transforms, weights.

Closed-form oracles:
  ||x e^{-x^2}||_{L2(0,inf)}     = (2 pi)^{1/4} / 4
  ||x^2 e^{-x}||_{L2(0,inf)}     = sqrt(3)/2
  ||t e^{-t}||_{L2,1}            = 1            (weight <x>^1)
  H[1/(1+x^2)](x)                = pi x/(1+x^2) (whole-line, kernel 1/(x-y))
  Laplace[e^{-x}](q)             = 1/(1+q)
On the discrete torus the Fourier-multiplier Hilbert transform annihilates
the mean, so the isometry/involution identities hold for f - mean(f); that
form is exact to machine precision and is what is asserted.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bo_halfline import (HalfLineGrid, TruncatedWeight, WholeLineGrid,
                         ap_characteristic, convolution_decay,
                         hilbert_whole_line, laplace_matrix, make_profile)
from bo_halfline.halfline import pv_matrix

GAUSS_L2 = (2.0 * math.pi) ** 0.25 / 4.0


# ---------------------------------------------------------------------------
# half-line grid and norms

def test_l2_norm_exponential(half_grid):
    x = half_grid.nodes
    got = half_grid.l2_norm(np.exp(-x))
    assert abs(got - math.sqrt(0.5)) < 5e-4


def test_l2_norm_gauss_profile(half_grid):
    psi = make_profile("gauss_bump", 1.0)
    got = half_grid.l2_norm(psi(half_grid.nodes))
    assert abs(got - GAUSS_L2) < 5e-4


def test_weighted_norm_ramp(half_grid):
    x = half_grid.nodes
    got = half_grid.weighted_norm(x * np.exp(-x), 1.0)
    assert abs(got - 1.0) < 1e-3


def test_weighted_norm_reduces_to_l2(half_grid):
    x = half_grid.nodes
    f = np.exp(-x)
    assert half_grid.weighted_norm(f, 0.0) == pytest.approx(half_grid.l2_norm(f))


def test_lattice_norms_are_row_norms(half_grid):
    # an (n_t, n_x) lattice gets one norm per row, bitwise the one-row
    # norm of each row, which is a float
    x = half_grid.nodes
    lattice = np.stack([np.exp(-x) * np.cos(k * x) for k in range(5)])
    for norm in (half_grid.l2_norm, lambda f: half_grid.weighted_norm(f, 1.0)):
        assert isinstance(norm(lattice[0]), float)
        assert np.array_equal(norm(lattice), [norm(f) for f in lattice])


@settings(max_examples=25, deadline=None)
@given(a=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
       b=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
def test_l2_norm_is_a_norm(a, b):
    grid = HalfLineGrid(x_max=20.0, n=64)
    x = grid.nodes
    f = a * np.exp(-x)
    g = b * x * np.exp(-x)
    # homogeneity and triangle inequality
    assert grid.l2_norm(2.5 * f) == pytest.approx(2.5 * abs(a) * grid.l2_norm(np.exp(-x)))
    assert grid.l2_norm(f + g) <= grid.l2_norm(f) + grid.l2_norm(g) + 1e-12


# ---------------------------------------------------------------------------
# profiles

@pytest.mark.parametrize("name,l2", [
    ("gauss_bump", GAUSS_L2),
    ("poly_exp", math.sqrt(3.0) / 2.0),
])
def test_profile_l2_closed_forms(name, l2):
    grid = HalfLineGrid(x_max=40.0, n=512)
    prof = make_profile(name, 2.0)
    assert grid.l2_norm(prof(grid.nodes)) == pytest.approx(2.0 * l2, rel=1e-3)


@pytest.mark.parametrize("name", ["gauss_bump", "poly_exp", "ramp_exp"])
def test_profile_derivative_consistent(name):
    prof = make_profile(name, 1.3)
    x = np.linspace(0.05, 8.0, 200)
    eps = 1e-6
    fd = (prof(x + eps) - prof(x - eps)) / (2.0 * eps)
    assert np.max(np.abs(fd - prof.deriv(x))) < 1e-8


@pytest.mark.parametrize("name", ["gauss_bump", "poly_exp", "ramp_exp"])
def test_profile_hat_is_laplace_transform(name):
    prof = make_profile(name, 0.7)
    x = np.linspace(0.0, 60.0, 60001)
    for z in (0.0, 0.8, 2.0 + 1.5j, 4j):
        direct = np.trapezoid(prof(x) * np.exp(-z * x), x)
        assert abs(prof.hat(np.array([z]))[0] - direct) < 5e-6, z


def test_profile_vanishes_at_origin():
    # boundary data must satisfy the h(0) = 0 compatibility condition
    for name in ("gauss_bump", "poly_exp", "ramp_exp"):
        assert make_profile(name, 1.0)(np.array([0.0]))[0] == 0.0


def test_unknown_profile_rejected():
    with pytest.raises(ValueError, match="unknown profile"):
        make_profile("square_wave", 1.0)


# ---------------------------------------------------------------------------
# Hilbert transforms

WGRID = WholeLineGrid(n=8192, dx=0.05, x0=-204.8)


def test_hilbert_whole_line_closed_form():
    x = WGRID.nodes
    hf = hilbert_whole_line(WGRID, 1.0 / (1.0 + x * x))
    ref = np.pi * x / (1.0 + x * x)
    inner = np.abs(x) <= 20.0
    assert np.max(np.abs(hf - ref)[inner]) < 5e-3


def test_hilbert_whole_line_antisymmetry():
    x = WGRID.nodes
    f = np.exp(-((x - 3.0) / 2.0) ** 2)
    g = f[::-1]  # reflection about the grid midpoint
    hf = hilbert_whole_line(WGRID, f)
    hg = hilbert_whole_line(WGRID, g)
    assert np.max(np.abs(hg + hf[::-1])) < 1e-10


def test_hilbert_isometry_mod_mean():
    x = WGRID.nodes
    f = np.exp(-((x - 3.0) / 2.0) ** 2)
    hf = hilbert_whole_line(WGRID, f)
    assert WGRID.l2_norm(hf) == pytest.approx(
        np.pi * WGRID.l2_norm(f - f.mean()), rel=1e-12)


def test_hilbert_involution_mod_mean():
    x = WGRID.nodes
    f = np.exp(-((x - 3.0) / 2.0) ** 2)
    hhf = hilbert_whole_line(WGRID, hilbert_whole_line(WGRID, f))
    assert np.max(np.abs(hhf + np.pi**2 * (f - f.mean()))) < 1e-10


def test_hilbert_half_line_vs_direct_quadrature():
    # multiplier route (zero extension) against the dense PV-sum oracle
    grid = WholeLineGrid(n=1 << 14, dx=0.05, x0=-float(1 << 13) * 0.05)
    prof = make_profile("poly_exp", 1.0)
    vals = np.where(grid.nodes >= 0.0, prof(grid.nodes), 0.0)
    hm = -hilbert_whole_line(grid, vals)
    xd = np.arange(0.025, 30.0, 0.05)
    hd = pv_matrix(xd) @ prof(xd)
    got = np.interp(xd, grid.nodes, hm)
    scale = np.max(np.abs(hd))
    # the direct oracle truncates at x=30 where the tail is ~1e-11
    assert np.max(np.abs(got - hd)[20:-20]) / scale < 2e-2


# ---------------------------------------------------------------------------
# Laplace helpers

def test_laplace_matrix_exponential(half_grid):
    x = half_grid.nodes
    q = 1j * np.array([0.3, 1.0, 4.0])
    got = laplace_matrix(q, x) @ np.exp(-x)
    assert np.max(np.abs(got - 1.0 / (1.0 + q))) < 1e-3


def test_laplace_matrix_rejects_left_half_plane():
    with pytest.raises(ValueError, match="Re z >= 0"):
        laplace_matrix(np.array([-0.1 + 1j]), np.linspace(0.0, 10.0, 64))


def test_laplace_matrix_linearity(half_grid):
    x = half_grid.nodes
    mat = laplace_matrix(np.array([0.5, 1.0 + 2j]), x)
    f, g = np.exp(-x), x * np.exp(-x)
    assert np.allclose(mat @ (2.0 * f + g), 2.0 * (mat @ f) + mat @ g)


# ---------------------------------------------------------------------------
# truncated weights and the characteristic

def test_truncated_weight_plateaus():
    w = TruncatedWeight(8.0)
    x = np.linspace(-40.0, 40.0, 1601)
    vals = w(x)
    inside = np.abs(x) <= 8.0
    outside = np.abs(x) >= 24.0
    assert np.array_equal(vals[inside], np.hypot(1.0, x[inside]))
    assert np.array_equal(vals[outside], np.full(outside.sum(), 16.0))


def test_truncated_weight_slope_bounded():
    w = TruncatedWeight(8.0)
    x = np.linspace(-40.0, 40.0, 16001)
    slopes = np.diff(w(x)) / np.diff(x)
    assert np.max(np.abs(slopes)) <= 1.0 + 1e-9


def test_truncated_weight_even_and_monotone():
    w = TruncatedWeight(8.0)
    x = np.linspace(0.0, 40.0, 4001)
    vals = w(x)
    assert np.array_equal(w(-x), vals)
    assert np.all(np.diff(vals) >= -1e-12)


def test_ap_characteristic_flat_weight_is_one():
    assert ap_characteristic(TruncatedWeight(8.0), 8.0, exponent=0.0) == 1.0


def test_ap_characteristic_frozen_value():
    got = ap_characteristic(TruncatedWeight(8.0), 8.0, exponent=1.0)
    assert got == pytest.approx(1.7630133049944683, rel=1e-9)


def test_ap_characteristic_at_least_one():
    for ex in (0.25, 0.5, 1.0):
        assert ap_characteristic(TruncatedWeight(4.0), 4.0, exponent=ex) >= 1.0


# ---------------------------------------------------------------------------
# convolution decay exponents

def test_convolution_decay_rejects_nonintegrable():
    with pytest.raises(ValueError, match="a \\+ b > 1"):
        convolution_decay(0.5, 0.5)


def test_convolution_decay_simple_pair():
    delta, _ = convolution_decay(2.0, 2.0)
    # <x>^-2 * <x>^-2 decays like <x>^-2: min{a, b, a+b-1} = 2
    assert abs(delta - 2.0) < 0.1


def _laplace_points(n: int) -> np.ndarray:
    """n points on the closed right half plane, spread over many decades."""
    r = np.geomspace(1.0e-6, 1.0e6, n)
    return r * np.exp(1j * np.linspace(-0.5 * np.pi, 0.5 * np.pi, n))


@pytest.mark.parametrize("offset", [-1, 0, 1, 259])
def test_laplace_matrix_row_blocks_bitwise(half_grid, monkeypatch, offset):
    # below, at and above the block size, the blocked fill equals one block
    import bo_halfline.halfline as halfline
    z = _laplace_points(halfline.LAPLACE_BLOCK_ROWS + offset)
    blocked = laplace_matrix(z, half_grid.nodes)
    single = laplace_matrix(z, half_grid.nodes, np.complex64)
    monkeypatch.setattr(halfline, "LAPLACE_BLOCK_ROWS", z.size + 1)
    assert np.array_equal(blocked, laplace_matrix(z, half_grid.nodes))
    # a single-precision matrix is the double one rounded once, entrywise
    assert single.dtype == np.complex64
    assert np.array_equal(single, blocked.astype(np.complex64))


@pytest.mark.parametrize("block_rows", [None, 7])
def test_laplace_matrix_skips_only_exact_zeros(half_grid, monkeypatch,
                                               block_rows):
    # rows sorted by Re z from 0 to 6e7, as on the propagator's scattered
    # ray points, stop at the panel where e^{-z x} underflows for the whole
    # block; every row still equals the panel formula evaluated on its own.
    # Small blocks put a block's smallest Re z at every scale.
    import bo_halfline.halfline as halfline
    from bo_halfline.halfline import _filon_laplace_ab
    if block_rows is not None:
        monkeypatch.setattr(halfline, "LAPLACE_BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(11)
    r = np.geomspace(1.0e-6, 1.0e8, 700)
    z = r * np.exp(1j * rng.uniform(-0.5 * np.pi, 0.5 * np.pi, r.size))
    z = np.concatenate([z, 1j * r[::50], [6.0e7 + 1.0e7j]])
    assert 0.0 <= z.real.min() and z.real.max() > 6.0e7
    # the grid shifted off the origin: its last row underflows on every panel
    x = half_grid.nodes + 1.0
    h = np.diff(x)
    want = np.zeros((z.size, x.size), dtype=complex)
    for i, zi in enumerate(z):
        wa, wb = _filon_laplace_ab(zi * h)
        with np.errstate(under="ignore"):
            front = h * np.exp(-zi * x[:-1])
        want[i, :-1] += front * wa
        want[i, 1:] += front * wb
    got = laplace_matrix(z, x)
    assert np.array_equal(got, want)
    assert not got[-1].any()
    assert 0.2 < np.mean(got == 0.0) < 0.9


def test_laplace_matrix_allocation_peak(half_grid):
    # the propagator's scattered-point matrix: 15,000 points x the production
    # grid; the row blocks keep the peak near the output itself (the
    # whole-matrix temporaries put it at about 8.5x)
    import tracemalloc
    z = _laplace_points(15000)
    out_bytes = z.size * half_grid.nodes.size * 16
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        laplace_matrix(z, half_grid.nodes)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * out_bytes


def test_laplace_matrix_single_precision_peak(half_grid):
    # filled in the caller's dtype: a complex64 matrix never exists in
    # complex128, so the peak stays near its own 8-byte entries
    import tracemalloc
    z = _laplace_points(15000)
    out_bytes = z.size * half_grid.nodes.size * 8
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        laplace_matrix(z, half_grid.nodes, np.complex64)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * out_bytes
