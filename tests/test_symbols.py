"""Symbol layer: roots, log-kernel factorization, index, and the data kernel.

Derived quantities are checked against independent oracles: finite-difference
differentiation for the derivative coefficient, residue-closed versus
pole-subtracted evaluation for the data kernel, direct root formulas, and the
exact scale-covariance identities the construction must satisfy.
"""

import numpy as np
import pytest

from bo_halfline.boundary import BoundaryKernel
from bo_halfline.config import RunConfig
from bo_halfline.green import RAY_THETA
from bo_halfline.report import fit_loglog
from bo_halfline import symbols
from bo_halfline.symbols import (
    C_Q_VARIANT,
    PSI_B_VARIANT,
    Symbols,
    admissible_arg,
    root_k,
    root_phi,
    symbol_K,
    symbol_K_tilde,
)

S_REF = 2.0 * np.exp(1j * np.pi)


# ---------------------------------------------------------------------------
# Roots


class TestRootK:
    def test_point_values_exact(self):
        assert complex(root_k(4.0)) == 2.0 + 0.0j
        assert complex(root_k(2.0j)) == 1.0 + 1.0j

    def test_quadratic_scaling(self):
        for s in (2.0 * np.exp(1j * np.pi), 0.3 * np.exp(0.6j * np.pi),
                  7.0 * np.exp(1.2j * np.pi)):
            assert abs(complex(root_k(9.0 * s)) - 3.0 * complex(root_k(s))) \
                < 1e-12 * abs(root_k(s))

    def test_right_half_plane(self):
        args = np.linspace(-np.pi + 1e-6, np.pi - 1e-6, 41)
        k = root_k(np.exp(1j * args))
        assert np.all(k.real >= 0.0)

    def test_annihilates_whole_plane_symbol(self):
        s = 1.3 * np.exp(0.9j * np.pi)
        k = complex(root_k(s))
        assert abs(complex(symbol_K_tilde(k)) + s) < 1e-14


def _branch_residual(s) -> float:
    """|K + s| at phi on the branch the half-plane rule selects: -i phi^2
    for Im s >= 0, +i phi^2 below."""
    phi = complex(root_phi(s))
    branch = -1j if np.imag(s) >= 0 else 1j
    return abs(branch * phi * phi + s)


class TestRootPhi:
    def test_unit_point(self):
        phi = complex(root_phi(1.0))
        want = (1.0 - 1.0j) / np.sqrt(2.0)
        assert abs(phi - want) < 1e-15
        assert phi == complex(np.sqrt(-1j * 1.0))  # the upper branch
        assert _branch_residual(1.0) < 1e-12

    def test_quadratic_scaling(self):
        assert abs(complex(root_phi(4.0))
                   - 2.0 * complex(root_phi(1.0))) < 1e-14

    def test_branch_tracks_half_plane(self):
        s_up, s_dn = -2.0 + 1e-9j, -2.0 - 1e-9j
        up, dn = complex(root_phi(s_up)), complex(root_phi(s_dn))
        assert up == complex(np.sqrt(-1j * s_up))
        assert dn == complex(np.sqrt(1j * s_dn))
        assert abs(up - dn) > 1.0  # the two branches are far apart here
        assert _branch_residual(s_up) < 1e-8 and _branch_residual(s_dn) < 1e-8

    def test_residual_is_branch_zero_condition(self):
        # On the selected branch the root annihilates the continued symbol
        # even when the literal sectional symbol does not vanish.
        s = 2.0 * np.exp(0.4j)  # Re s > 0, continued root
        assert _branch_residual(s) < 1e-12
        assert abs(complex(symbol_K(complex(root_phi(s)))) + s) > 0.1


# ---------------------------------------------------------------------------
# Admissibility


class TestAdmissibility:
    def test_sector_membership(self):
        assert bool(admissible_arg(np.exp(1j * np.pi)))
        assert not bool(admissible_arg(np.exp(1j * np.pi / 8)))
        assert not bool(admissible_arg(1.0))

    def test_check_rejects_outside_sector(self, sym):
        with pytest.raises(ValueError, match="admissible sector"):
            sym.check_admissible(np.exp(1j * np.pi / 8))

    def test_check_rejects_root_on_ray(self, sym):
        with pytest.raises(ValueError, match="contour ray"):
            sym.check_admissible(np.exp(3j * np.pi / 4))

    def test_check_accepts_interior(self, sym):
        sym.check_admissible(S_REF)

    def test_contour_angle_is_fixed(self):
        # theta= exists for the negative control only; its direction caches
        # must not share a tracer key with the production contour's
        default = Symbols(RunConfig())
        assert default.theta == 3 * np.pi / 8
        assert (Symbols(RunConfig(), theta=np.pi / 4).resolution_tag
                != default.resolution_tag)

    def test_structural_variants_are_fixed(self):
        # the variants are module constants that the selection tests patch;
        # no Symbols keyword selects them
        assert (C_Q_VARIANT, PSI_B_VARIANT) == ("alt", "derived")
        for keyword in ("c_q", "psi_b"):
            with pytest.raises(TypeError):
                Symbols(RunConfig(), **{keyword: "derived"})


# ---------------------------------------------------------------------------
# Log-kernel integral gamma_tilde


class TestGammaTilde:
    def test_scale_covariance_of_exponential(self, sym):
        # e^{gamma(w p, s p^2)} = p^{-ind(s)} e^{gamma(w, s)} exactly.
        ind = sym.index(S_REF)
        w = 0.7j
        base = np.exp(sym.gamma_tilde(w, S_REF))
        for p in (2.0, 5.0):
            lhs = np.exp(sym.gamma_tilde(w * p, S_REF * p * p))
            rhs = p ** (-ind) * base
            assert abs(lhs - rhs) < 1e-10 * abs(rhs), p

    def test_small_w_hoelder_regularity(self, sym):
        # |gamma(iy,s) - gamma(0,s)| must vanish at least like y^{1/2};
        # measured exponent ~ 1.006 (Lipschitz up to the log scale).
        y = np.logspace(-4, -1, 10)
        gap = np.abs(sym.gamma_tilde(1j * y, S_REF) - sym.gamma_tilde(0.0, S_REF))
        fit = fit_loglog(y, gap)
        assert fit.slope >= 0.5

    def test_reference_exponential_uniform_bound(self, sym):
        # |e^{gamma(-1,s)}| <= 2 <s>^{3/4} across six decades of |s|
        # (measured max of the ratio 1.798, attained near |s| = 1).
        for m in np.logspace(-3, 3, 13):
            s = m * np.exp(1j * np.pi)
            ratio = abs(np.exp(sym.gamma_tilde(-1.0, s))) / (1.0 + m * m) ** 0.375
            assert ratio <= 2.0, m

    def test_direction_cache_matches_direct_quadrature(self, sym):
        cache = sym.direction(np.exp(1j * np.pi))
        v = np.array([1e-3, 0.02, 1.0, 50.0, 3.0e5])
        direct = sym.gamma_tilde(1j * v, np.exp(1j * np.pi))
        splined = cache.gamma_axis(v)
        assert np.max(np.abs(splined - direct) / np.abs(direct)) < 1e-5

        u = np.array([-0.5, -2.0])
        direct = sym.gamma_tilde(u, np.exp(1j * np.pi))
        splined = cache.gamma_negreal(u)
        assert np.max(np.abs(splined - direct) / np.abs(direct)) < 1e-5

    def test_direction_cache_rejects_positive_real_axis_query(self, sym):
        cache = sym.direction(np.exp(1j * np.pi))
        with pytest.raises(ValueError):
            cache.gamma_negreal(np.array([0.5]))


# ---------------------------------------------------------------------------
# Index


class TestIndex:
    def test_index_in_left_sector(self, sym):
        assert abs(sym.index(S_REF) - (-1.5)) < 1e-3

    def test_index_outside_left_sector(self, sym):
        assert abs(sym.index(np.exp(0.6j * np.pi)) - 0.5) < 1e-3

    def test_winding_route_agrees(self, sym):
        # Independent oracle: the winding number of the symbol ratio along
        # the contour, computed by argument tracking, matches the moment
        # integral route to 1e-6.
        assert abs(sym.index_by_winding(S_REF) - sym.index(S_REF)) < 1e-6

    @pytest.mark.parametrize("arg,want", [
        (np.pi / 2, 0.5), (RAY_THETA, 0.5), (BoundaryKernel.THETA_U, 0.5),
        (np.pi, -1.5)])
    def test_index_on_kernel_directions(self, sym, arg, want):
        # The kernels evaluate the factor at s = i (the residue bracket) and
        # on the Green and boundary rays: there the index is +1/2.  The -3/2
        # index holds only for arg s in (3pi/4, 5pi/4), e.g. at s = -1.
        s = np.exp(1j * arg)
        assert sym.index(s) == pytest.approx(want, abs=1e-3)
        assert sym.index_by_winding(s) == pytest.approx(want, abs=1e-3)


# ---------------------------------------------------------------------------
# Derivative coefficient a_tilde


def a_tilde_oracle(sym, s):
    """a_tilde = -gamma'(0) + (k-phi)/(k phi), with gamma'(0) from
    Richardson-extrapolated central differences of the log-kernel integral."""
    h = 1e-3
    d1 = (sym.gamma_tilde(h, s) - sym.gamma_tilde(-h, s)) / (2 * h)
    d2 = (sym.gamma_tilde(h / 2, s) - sym.gamma_tilde(-h / 2, s)) / h
    rich = (4.0 * d2 - d1) / 3.0
    k = complex(root_k(s))
    phi = complex(root_phi(s))
    return -rich + (k - phi) / (k * phi)


class TestDerivativeCoefficient:
    def test_finite_difference_oracle(self, monkeypatch):
        # Independent oracle (a_tilde_oracle).  Pins the derived weight
        # variant: measured gaps 8.1e-5 and 1.6e-4.
        monkeypatch.setattr(symbols, "C_Q_VARIANT", "derived")
        sym = Symbols(RunConfig())
        for s in (S_REF, np.exp(0.9j * np.pi)):
            assert abs(sym.a_tilde(s) - a_tilde_oracle(sym, s)) < 1e-3, s

    def test_production_variant_misses_oracle(self, sym):
        # The production weight variant "alt" is off from the same oracle by
        # 0.924 and 1.306 at these points (a correctness finding, not a
        # tolerance): pinned so a change of the default shows here.
        assert C_Q_VARIANT == "alt"
        gaps = [abs(sym.a_tilde(s) - a_tilde_oracle(sym, s))
                for s in (S_REF, np.exp(0.9j * np.pi))]
        assert gaps == pytest.approx([0.9238, 1.3064], abs=1e-3)

    def test_weight_variants_differ(self, sym, monkeypatch):
        # Negative control: the two ratio-weight variants give derivative
        # coefficients a unit apart, so the oracle above has teeth.
        points = (S_REF, np.exp(0.9j * np.pi))
        production = [sym.a_tilde(s) for s in points]
        monkeypatch.setattr(symbols, "C_Q_VARIANT", "derived")
        derived = Symbols(RunConfig())
        for s, at in zip(points, production):
            assert abs(at - derived.a_tilde(s)) > 0.5

    def test_scaling_identity(self, sym):
        base = sym.a_tilde(S_REF)
        for p in (2.0, 7.0):
            assert abs(p * sym.a_tilde(p * p * S_REF) - base) < 1e-12 * abs(base)

    def test_axis_decay_exponent(self, sym):
        mods = np.logspace(2, 5, 8)
        vals = np.array([abs(sym.a_tilde(m * np.exp(1j * np.pi))) for m in mods])
        fit = fit_loglog(mods, vals)
        assert abs(fit.slope - (-0.5)) < 0.02


# ---------------------------------------------------------------------------
# Boundary symbol


class TestBoundarySymbol:
    def test_direct_factor_formula(self, sym):
        # Independent route: xi * (Y+(-p,xi)/Y+(0,xi)) * (p+k)/(1+k a_tilde)
        # evaluated from the factor itself must equal p^3 Psi_B(xi/p^2).
        for p in (0.5, 3.0):
            xi = S_REF
            k = complex(root_k(xi))
            direct = (xi * complex(sym.y_plus(-p, xi) / sym.y_plus(0.0, xi))
                      * (p + k) / (1.0 + k * sym.a_tilde(xi)))
            scaled = p ** 3 * sym.psi_boundary(xi / p ** 2)
            assert abs(direct - scaled) < 1e-12 * abs(scaled), p

    def test_direction_cache_route(self, sym):
        cache = sym.direction(np.exp(1j * np.pi))
        bundle = cache.scalars(np.array([4.0]))
        direct = sym.psi_boundary(4.0 * np.exp(1j * np.pi))
        assert abs(bundle["psi_b"][0] - direct) < 1e-6 * abs(direct)
        assert abs(bundle["k"][0] - complex(root_k(4.0 * np.exp(1j * np.pi)))) \
            < 1e-14


# ---------------------------------------------------------------------------
# Data weight Omega


class TestDataWeight:
    def test_finite_at_origin(self, sym):
        val = complex(sym.omega_weight(0.0, S_REF))
        want = -2.3247837146953554 + 7.6858423852103055j
        assert abs(val - want) < 1e-9 * abs(want)

    def test_continuous_across_contour_ray(self, sym):
        # A symbol root crosses a contour ray at arg s = 3 pi/4; the weight
        # stays continuous there, with the two-sided gap shrinking linearly
        # in the offset (measured 1.4e-1 at 1e-3, 1.3e-2 at 1e-4).
        w = 0.7j
        gaps = []
        for eps in (1e-3, 1e-4):
            lo = complex(sym.omega_weight(w, 2.0 * np.exp(1j * (3 * np.pi / 4 - eps))))
            hi = complex(sym.omega_weight(w, 2.0 * np.exp(1j * (3 * np.pi / 4 + eps))))
            gaps.append(abs(lo - hi) / abs(lo))
        assert gaps[1] < 5e-2
        assert gaps[1] < gaps[0]

    def test_smooth_in_radial_direction(self, sym):
        w = 0.7j
        a = complex(sym.omega_weight(w, 2.0 * np.exp(1j * np.pi)))
        b = complex(sym.omega_weight(w, 2.0000002 * np.exp(1j * np.pi)))
        assert abs(a - b) / abs(a) < 1e-5

    def test_growth_envelope(self, sym):
        # |Omega(w, s)| <= 4 <s>^{7/4} for |s| >= 1 and <= 4 for |s| <= 1,
        # uniformly over the axis (measured maxima 2.77 and 2.44).
        for m in np.logspace(-2, 2, 9):
            s = m * np.exp(1j * np.pi)
            vals = np.abs(sym.omega_weight(1j * np.logspace(-3, 3, 25), s))
            if m >= 1.0:
                assert np.max(vals) <= 4.0 * (1.0 + m * m) ** 0.875, m
            else:
                assert np.max(vals) <= 4.0, m


# ---------------------------------------------------------------------------
# Transformed data kernel e_minus


class TestDataKernel:
    # A Laplace-transform-like argument, analytic on the closed right half
    # plane including the integration axis, decaying quadratically.
    @staticmethod
    def _hat(w):
        return 1.0 / (1.0 + w) ** 2

    def test_subtracted_and_residue_routes_agree(self, sym):
        # Dual evaluation: pole-subtracted axis integral versus the raw
        # residue-closed form (measured relative gaps <= 3.9e-6).
        for p in (0.5, 1.0, 3.0):
            a = sym.e_minus(self._hat, p, S_REF, subtracted=True)
            b = sym.e_minus(self._hat, p, S_REF, subtracted=False)
            assert abs(a - b) < 1e-4 * abs(a), p

    def test_zero_datum_maps_to_zero(self, sym):
        zero = sym.e_minus(
            lambda w: np.zeros_like(np.asarray(w, dtype=complex)), 1.0, S_REF)
        assert zero == 0.0

    def test_linearity(self, sym):
        f1 = self._hat
        f2 = lambda w: 1.0 / (2.0 + w) ** 3
        comb = lambda w: 2.0 * f1(w) - 0.5 * f2(w)
        lhs = sym.e_minus(comb, 1.0, S_REF)
        rhs = 2.0 * sym.e_minus(f1, 1.0, S_REF) - 0.5 * sym.e_minus(f2, 1.0, S_REF)
        assert abs(lhs - rhs) < 1e-12 * abs(lhs)

    def test_quadrature_refinement_stability(self, sym):
        coarse = sym.e_minus(self._hat, 1.0, S_REF, axis_ppd=24)
        fine = sym.e_minus(self._hat, 1.0, S_REF, axis_ppd=48)
        assert abs(coarse - fine) < 1e-8 * abs(coarse)
