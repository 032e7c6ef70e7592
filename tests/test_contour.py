"""Contour primitives: node generators, Cauchy transform, Plemelj limits,
winding.

Oracle values are closed forms computed independently (residue calculus on
rational test functions); quadrature tolerances were measured once and frozen
with a safety factor.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bo_halfline import (AxisSampling, cauchy_transform, log_graded_nodes,
                         plemelj_limits, symbol_contour, winding_index)
from bo_halfline.contour import PV_EXCISION_FACTOR, DampedRay


# ---------------------------------------------------------------------------
# node generators

def test_log_graded_nodes_integrate_power():
    r, w = log_graded_nodes(1e-6, 1e6, 24)
    # int_1e-6^1e6 r^-2 dr = 1e6 - 1e-6
    got = float(np.sum(r**-2.0 * w))
    assert abs(got / (1e6 - 1e-6) - 1.0) < 1e-10


def test_symbol_contour_integrates_closed_form():
    # The chain integral of 1/q^2 is a sum of endpoint differences of -1/q:
    # down-ray traversed inward, up-ray outward, which collapses to
    # 2i sin(theta) (1/r_max - 1/r_min).  Pins the traversal convention.
    q, dq = symbol_contour(np.pi / 4, r_min=1e-3, r_max=1e3,
                           points_per_decade=24)
    got = np.sum(q**-2.0 * dq)
    want = 2j * np.sin(np.pi / 4) * (1.0 / 1e3 - 1.0 / 1e-3)
    assert abs(got - want) / abs(want) < 1e-10


# ---------------------------------------------------------------------------
# DampedRay: R[f] = Im f(i) + (1/pi) Im int f(s) e^{i theta}/(1+s^2) dr.
# For f(s) = i/(s+2)^2, deforming the ray onto the positive real axis (past
# the pole of 1/(1+s^2) at s = i) gives the closed form
#   R[f] = (1/pi) (3 pi/50 + 1/10 - (4/25) log 2) = 0.0565293...
# Measured errors: 1.3e-8 on the Green-default ray, 1.5e-5 on the boundary
# kernel's ray, whose angle passes closer to s = i.

RAY_F = lambda s: 1j / (s + 2.0) ** 2
RAY_WANT = (3.0 * np.pi / 50.0 + 0.1 - 0.16 * np.log(2.0)) / np.pi


def test_damped_ray_against_closed_form():
    ray = DampedRay(*log_graded_nodes(1e-7, 1e7, 24), np.pi / 2 + np.pi / 8)
    assert abs(ray(RAY_F(1j), RAY_F(ray.s)) - RAY_WANT) < 1e-7
    # rows carry the ray on axis 0; columns are inverted independently
    cols = ray(RAY_F(1j) * np.array([1.0, 2.0]),
               RAY_F(ray.s)[:, None] * np.array([1.0, 2.0]))
    assert np.max(np.abs(cols - RAY_WANT * np.array([1.0, 2.0]))) < 2e-7


def test_boundary_kernel_ray_against_closed_form(boundary_op):
    ray = boundary_op.ray
    assert abs(ray(RAY_F(1j), RAY_F(ray.s)) - RAY_WANT) < 1e-4


def test_axis_sampling_adaptive_truncation():
    s = AxisSampling(scale=1.0, decay_exponent=2.0)
    assert s.r_max == pytest.approx(1e10)
    capped = AxisSampling(scale=1.0, decay_exponent=1.01)
    assert capped.r_max == pytest.approx(1e12)


def test_axis_sampling_rejects_nonintegrable_tail():
    with pytest.raises(ValueError, match="decay_exponent"):
        _ = AxisSampling(scale=1.0, decay_exponent=1.0).r_max


# ---------------------------------------------------------------------------
# cauchy_transform: phi(q) = 1/(q - 2).  For the upward axis the transform
# closes over the LEFT half plane for Re z < 0 (picks the pole at z itself,
# giving back phi(z)) and over the right for Re z > 0, where phi's own pole
# at q = 2 is off-axis-analytic, so the transform vanishes... the two cases:
#   Re z < 0:  C[phi](z) = phi(z)
#   Re z > 0:  C[phi](z) = 0
# This pins the branch handling of the near-axis analytic patch (a principal
# log here once injected a spurious full residue for Re z > 0).

# decay exponent 1.5 puts the adaptive radius at the 1e12 cap
SLOW = AxisSampling(scale=1.0, decay_exponent=1.5)


def test_cauchy_transform_left_point_recovers_density():
    phi = lambda q: 1.0 / (q - 2.0)
    z = -1.0 + 0.5j
    got = cauchy_transform(phi, z, SLOW)
    assert abs(got - 1.0 / (z - 2.0)) < 1e-4


def test_cauchy_transform_right_point_vanishes():
    phi = lambda q: 1.0 / (q - 2.0)
    got = cauchy_transform(phi, 1.0 + 0.5j, SLOW)
    assert abs(got) < 1e-4


def test_cauchy_transform_rejects_on_axis_point():
    with pytest.raises(ValueError, match="Re z != 0"):
        cauchy_transform(lambda q: q, 0.5j, SLOW)


# ---------------------------------------------------------------------------
# plemelj_limits: phi(q) = 1/(1 - q^2) at p = 0.7i.  With q = iy the density
# is 1/(1 + y^2); contour integration gives the one-sided limits in closed
# form:
#   P+(p) = -1/(2(1 + p)) + 1/(1 - p^2)
#   P-(p) = +1/(2(1 - p)) - 1/(1 - p^2)
# so that P+ - P- = phi(p) (the jump) and P+ + P- = 2 PV.

PHI = lambda q: 1.0 / (1.0 - q * q)


def closed_form_limits(p: complex):
    plus = -1.0 / (2.0 * (1.0 + p)) + 1.0 / (1.0 - p * p)
    minus = 1.0 / (2.0 * (1.0 - p)) - 1.0 / (1.0 - p * p)
    return plus, minus


def test_plemelj_limits_against_closed_form():
    p = 0.7j
    plus, minus = plemelj_limits(PHI, p, AxisSampling(scale=1.0))
    want_plus, want_minus = closed_form_limits(p)
    assert abs(plus - want_plus) < 1e-5
    assert abs(minus - want_minus) < 1e-5


@pytest.mark.parametrize("y", [0.1, -0.4, 2.5, -6.0])
def test_plemelj_jump_is_density(y):
    p = 1j * y
    plus, minus = plemelj_limits(PHI, p, AxisSampling(scale=1.0))
    assert abs((plus - minus) - PHI(p)) < 1e-10


def test_plemelj_sum_is_twice_principal_value():
    # P+ + P- = 2 PV C[phi]; the PV here sums phi(q)/(q-p) itself, pole
    # and all, over nodes paired about p: mirrored nodes cancel the pole
    p = 0.7j
    sampling = AxisSampling(scale=1.0)
    plus, minus = plemelj_limits(PHI, p, sampling)
    q, w = sampling.nodes(0.7, sampling.scale * PV_EXCISION_FACTOR)
    pv = np.sum(PHI(q) / (q - p) * w) / (2j * np.pi)
    assert abs((plus + minus) - 2.0 * pv) < 1e-5


# ---------------------------------------------------------------------------
# winding_index

def test_winding_index_unit_circle():
    th = np.linspace(0.0, 2.0 * np.pi, 400, endpoint=False)
    vals = np.exp(1j * th)
    assert winding_index(np.append(vals, vals[0])) == pytest.approx(1.0)


def test_winding_index_constant_is_zero():
    vals = np.ones(64)
    assert winding_index(np.append(vals, vals[0])) == 0.0


def test_winding_index_rejects_coarse_sampling():
    with pytest.raises(ValueError, match="too coarse"):
        winding_index(np.exp(1j * np.array([0.0, np.pi, 2.0 * np.pi])))


def test_winding_index_rejects_zeros_and_nonfinite():
    with pytest.raises(ValueError):
        winding_index(np.array([1.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        winding_index(np.array([1.0, np.nan, 1.0]))


@settings(max_examples=30, deadline=None)
@given(turns=st.integers(min_value=-3, max_value=3),
       phase=st.floats(min_value=0.0, max_value=6.28, allow_nan=False))
def test_winding_index_counts_turns(turns, phase):
    n = 64 * max(1, abs(turns)) * 4
    th = np.linspace(0.0, 2.0 * np.pi * turns, n, endpoint=False)
    vals = 2.5 * np.exp(1j * (th + phase))
    assert winding_index(np.append(vals, vals[0])) == pytest.approx(
        float(turns), abs=1e-9)
