"""Extended dispersion symbol, its factorization data, and the data kernel.

The sectionally analytic symbol is ``K(q) = -i sgn(Im q) q^2`` with whole-plane
companion ``Ktilde(q) = -q^2``.  All operator ingredients derive from the
log-kernel contour integral

    gamma_tilde(w, s) = -(1/2 pi i) * int_C log(q - w) g(q, s) dq,

where ``g = d/dq log[(K+s)/(Ktilde+s)]`` is rational and C is a two-ray chain
in the right half plane (down-ray traversed inward, up-ray outward).  From it:
the roots k = sqrt(s) and phi(s), the derivative coefficient a_tilde, the data
weight omega_weight, the boundary symbol psi_boundary, and the transformed
data kernel e_minus.

Everything is scale-covariant: gamma_tilde(w p, s p^2) = -ind(s) log p +
gamma_tilde(w, s), so production evaluation reduces to a handful of
unit-modulus directions s_hat cached as splines (DirectionCache).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.interpolate import CubicSpline, PPoly

from .config import RunConfig
from .contour import axis_nodes, symbol_contour, winding_index

TWO_PI_I = 2j * np.pi


def symbol_K(q):
    """Extended symbol: -i q^2 in the upper half plane, +i q^2 in the lower."""
    q = np.asarray(q, dtype=complex)
    return -1j * np.sign(q.imag) * q * q


def symbol_K_tilde(q):
    q = np.asarray(q, dtype=complex)
    return -q * q


def root_k(xi):
    """Zero of Ktilde + xi with positive real part: the principal sqrt(xi).

    Defined on the slit plane arg xi != pi (Re k >= 0 everywhere there)."""
    return np.sqrt(np.asarray(xi, dtype=complex))


def root_phi(s) -> np.ndarray:
    """Root of the extended symbol equation K(q) + s = 0 tracked by half plane.

    For Im s >= 0 the root continued from the upper branch, sqrt(-i s), is
    selected; otherwise sqrt(i s).  It annihilates the selected branch
    (-i phi^2 resp. +i phi^2) + s: for Re s > 0 the root is the analytic
    continuation across the sector boundary and the literal sectional
    K(phi) does not vanish.
    """
    s = np.asarray(s, dtype=complex)
    return np.where(s.imag >= 0, np.sqrt(-1j * s), np.sqrt(1j * s))


def admissible_arg(xi) -> np.ndarray:
    """True where arg xi (mod 2 pi) lies in the admissible sector (3pi/8, 15pi/8)."""
    a = np.mod(np.angle(np.asarray(xi, dtype=complex)), 2 * np.pi)
    return (a > 3 * np.pi / 8) & (a < 15 * np.pi / 8)


def ratio_weight(q, s, variant: str = "derived"):
    """The weight g(q,s) in the log-kernel integral.

    "derived": g = 2 q s (1 - i sgn Im q)/((K+s)(Ktilde+s)), the exact
    derivative of log[(K+s)/(Ktilde+s)] on each ray.  "alt" replaces the
    factor (1 - i sgn Im q) by (1 - i) sgn(Im q), which agrees on the upper
    ray only; gamma_one (so a_tilde) takes C_Q_VARIANT, all else "derived"."""
    q = np.asarray(q, dtype=complex)
    sgn = np.sign(q.imag)
    if variant == "derived":
        c = 1.0 - 1j * sgn
    elif variant == "alt":
        c = (1.0 - 1j) * sgn
    else:
        raise ValueError(f"unknown ratio-weight variant {variant!r}")
    return 2.0 * q * s * c / ((symbol_K(q) + s) * (symbol_K_tilde(q) + s))


#: Angle of the symbol-contour rays from the positive real axis.  A symbol
#: root lies on a ray where arg s = 2 theta or 2 pi - 2 theta (3 pi/4 and
#: 5 pi/4 here, which check_admissible rejects); pi/4 would put the bracket
#: direction s = i on a ray.
SYMBOL_THETA = 3 * np.pi / 8

#: ratio_weight variant of gamma_one and a_tilde: "alt" misses the finite-
#: difference oracle of a_tilde by 0.92 and 1.31, where "derived" matches to
#: 1.7e-4.
C_Q_VARIANT = "alt"
#: Boundary-symbol variant, selected by the Dirichlet-trace identity.
PSI_B_VARIANT = "derived"


class Symbols:
    """Configured access to every symbol-layer quantity.

    Holds the contour geometry and a memo of per-direction caches.  The
    instance is cheap; caches build lazily.  ``theta`` replaces SYMBOL_THETA
    for the verify-symbols negative control.  C_Q_VARIANT and PSI_B_VARIANT
    are read at evaluation: tests patch them and build a fresh instance.
    """

    def __init__(self, config: RunConfig | None = None, *,
                 theta: float = SYMBOL_THETA):
        self.config = cfg = config or RunConfig()
        self.theta = theta
        self.ppd = cfg.contour_points_per_decade
        self._directions: dict[complex, DirectionCache] = {}

    # -- geometry -------------------------------------------------------

    @property
    def resolution_tag(self) -> str:
        return f"{self.theta!r}:{self.ppd}"

    def contour(self, s: complex) -> tuple[np.ndarray, np.ndarray]:
        """Symbol-contour nodes q and dq-weights at s: radii 1e-5..1e5 |s|^{1/2}."""
        scale = math.sqrt(abs(s))
        return symbol_contour(self.theta, 1.0e-5 * scale, 1.0e5 * scale,
                              self.ppd)

    def check_admissible(self, s) -> None:
        s = np.atleast_1d(np.asarray(s, dtype=complex))
        if not np.all(admissible_arg(s)):
            raise ValueError("arg s outside the admissible sector (3pi/8, 15pi/8)")
        a = np.mod(np.angle(s), 2 * np.pi)
        danger = np.array([2 * self.theta, 2 * np.pi - 2 * self.theta])
        if np.any(np.min(np.abs(a[:, None] - danger[None, :]), axis=1) < 1e-9):
            raise ValueError("a symbol root lies on a contour ray for this arg s")

    # -- direct quadrature layer -----------------------------------------

    def gamma_tilde(self, w, s: complex):
        """Direct quadrature of the log-kernel integral; w scalar or array.

        Valid for w off the contour with principal log safe, which covers the
        production evaluation set Re w <= 0 (imaginary axis, negative reals)."""
        s = complex(s)
        self.check_admissible(s)
        q, dq = self.contour(s)
        g = ratio_weight(q, s)
        w_arr = np.atleast_1d(np.asarray(w, dtype=complex))
        vals = -(np.log(q[None, :] - w_arr[:, None]) * (g * dq)[None, :]).sum(axis=1) / TWO_PI_I
        return vals if np.ndim(w) else complex(vals[0])

    def index(self, s: complex) -> float:
        """(1/2 pi i) * int g dq: the argument-increment index of the symbol
        ratio along the contour.  Equals -3/2 for arg s in (3pi/4, 5pi/4) on
        the default contour and +1/2 elsewhere."""
        s = complex(s)
        self.check_admissible(s)
        q, dq = self.contour(s)
        val = np.sum(ratio_weight(q, s) * dq) / TWO_PI_I
        return float(np.real(val))

    def index_by_winding(self, s: complex) -> float:
        """Same index via continuous-argument accumulation of the ratio values."""
        s = complex(s)
        q, _ = self.contour(s)
        ratio = (symbol_K(q) + s) / (symbol_K_tilde(q) + s)
        return winding_index(ratio)

    def gamma_one(self, s: complex) -> complex:
        """d/dw gamma_tilde at w = 0: (1/2 pi i) * int g(q,s)/q dq."""
        s = complex(s)
        self.check_admissible(s)
        q, dq = self.contour(s)
        g = ratio_weight(q, s, C_Q_VARIANT)
        return complex(np.sum(g / q * dq) / TWO_PI_I)

    def first_moment(self, s: complex) -> complex:
        """M1(s) = (1/2 pi i) * int q g(q,s) dq, the 1/w coefficient of the
        large-w expansion gamma_tilde = -ind log(-w) + M1/w + O(w^-2)."""
        s = complex(s)
        q, dq = self.contour(s)
        return complex(np.sum(q * ratio_weight(q, s) * dq) / TWO_PI_I)

    # -- derived scalar symbols -------------------------------------------

    def a_tilde(self, s: complex) -> complex:
        """Derivative coefficient of the normalized factor at w = 0.

        Definitionally Y+(0,s) * d/dw [1/Y+] at 0, which reduces to
        -gamma_one(s) + (k - phi)/(k phi).  Satisfies p*a_tilde(p^2 s) =
        a_tilde(s) and is O(|s|^{-1/2}) on the axis."""
        s = complex(s)
        k = complex(root_k(s))
        phi = complex(root_phi(s))
        return -self.gamma_one(s) + (k - phi) / (k * phi)

    def y_plus(self, w, s: complex):
        """Left-analytic factor Y+(w,s) = e^{gamma_tilde(w,s)} (w-phi)/(w-k)."""
        s = complex(s)
        k = complex(root_k(s))
        phi = complex(root_phi(s))
        w_arr = np.asarray(w, dtype=complex)
        g = self.gamma_tilde(w_arr, s)
        return np.exp(g) * (w_arr - phi) / (w_arr - k)

    def omega_weight(self, w, s: complex):
        """Data weight Omega(w,s) multiplying the transformed datum in e_minus."""
        s = complex(s)
        k = complex(root_k(s))
        phi = complex(root_phi(s))
        at = self.a_tilde(s)
        big_b = (1.0 - at) * k * k / (1.0 + k * at)
        c_ref = (1.0 + phi) / (1.0 + k)
        e_ref = np.exp(self.gamma_tilde(-1.0, s))
        w_arr = np.asarray(w, dtype=complex)
        return c_ref * e_ref * (big_b - (w_arr - k) / (w_arr + 1.0))

    def psi_boundary(self, s: complex) -> complex:
        """Boundary symbol Psi_B(s): the p-free factor of the boundary kernel.

        Three structural variants share the factor e^{gamma_tilde(-1,s) -
        gamma_tilde(0,s)}; PSI_B_VARIANT selects one."""
        s = complex(s)
        k = complex(root_k(s))
        phi = complex(root_phi(s))
        at = self.a_tilde(s)
        delta = self.gamma_tilde(-1.0, s) - self.gamma_tilde(0.0, s)
        return _psi_boundary_from_pieces(PSI_B_VARIANT, s, k, phi, at,
                                         np.exp(delta))

    # -- direction caches --------------------------------------------------

    def direction(self, s_hat: complex) -> "DirectionCache":
        s_hat = complex(s_hat) / abs(complex(s_hat))
        key = complex(round(s_hat.real, 12), round(s_hat.imag, 12))
        cache = self._directions.get(key)
        if cache is None:
            cache = DirectionCache(self, key)
            self._directions[key] = cache
        return cache

    # -- transformed data kernel (single-point reference evaluation) -------

    def e_minus(self, psi_hat, p: float, s: complex, *, subtracted: bool = True,
                axis_ppd: int | None = None) -> complex:
        """Transformed-data kernel: the pole-subtracted axis integral of
        psi_hat(p w) against the jump bracket and Omega, plus the boundary
        (root) term.  With subtracted=False the raw residue-closed form is
        evaluated instead; the two agree (internal oracle).
        """
        s = complex(s)
        phi = complex(root_phi(s))
        g0 = self.gamma_tilde(0.0, s)
        rad = math.sqrt(abs(s))
        ppd = axis_ppd or max(self.ppd, 24)
        w_nodes, wv = axis_nodes(0.0, 1.0e-6 * min(1.0, rad),
                                 1.0e7 * max(1.0, rad), ppd)
        gw = self.gamma_tilde(w_nodes, s)
        # Omega on the nodes and, last, at the root w = phi
        omega = self.omega_weight(np.append(w_nodes, phi), s)
        if subtracted:
            bracket = np.exp(-gw) - np.exp(-g0)
            integrand = psi_hat(p * w_nodes) * bracket * omega[:-1] / (w_nodes - phi)
            main = np.sum(integrand * wv) / TWO_PI_I
            boundary = np.exp(-g0) * psi_hat(np.array([phi * p]))[0] * omega[-1]
            return complex(main - boundary)
        integrand = psi_hat(p * w_nodes) * np.exp(-gw) * omega[:-1] / (w_nodes - phi)
        return complex(np.sum(integrand * wv) / TWO_PI_I)


def _psi_boundary_from_pieces(variant: str, s, k, phi, at, e_delta):
    if variant == "derived":
        return s * k * (1.0 + phi) * e_delta / (phi * (1.0 + k * at))
    if variant == "display":
        return s * (1.0 + k) * e_delta / (1.0 + k * at)
    if variant == "polar":
        return (s * k * (1.0 + phi) * ((1.0 + k) + 2.0 * k * at) * e_delta
                / (phi * (1.0 + k) * (1.0 + k * at)))
    raise ValueError(f"unknown psi_boundary variant {variant!r}")


# ---------------------------------------------------------------------------
# Per-direction cache


_SPLINE_PPD = 32
_V_LO = 1.0e-4
_V_HI = 1.0e4


class DirectionCache:
    """Splined gamma_tilde data for one unit-modulus direction s_hat.

    Covers the two production evaluation sets: w on the imaginary axis
    (axis spline per sign + small-w Taylor + large-w asymptotic) and w on the
    negative real axis.  Also stores the scalar symbols of the direction.
    All scale-covariant quantities at s = s_hat |s| reduce to lookups here.
    """

    def __init__(self, sy: Symbols, s_hat: complex):
        self.s_hat = s_hat
        self.gamma0 = sy.gamma_tilde(0.0, s_hat)
        self.gamma1 = sy.gamma_one(s_hat)
        self.ind = sy.index(s_hat)
        self.moment1 = sy.first_moment(s_hat)
        self.k_hat = complex(root_k(s_hat))
        self.phi_hat = complex(root_phi(s_hat))
        self.a_hat = sy.a_tilde(s_hat)

        grid = np.exp(np.linspace(np.log(_V_LO), np.log(_V_HI),
                                  int(_SPLINE_PPD * np.log10(_V_HI / _V_LO)) + 1))
        w_axis = np.concatenate([1j * grid, -1j * grid])
        vals_axis = sy.gamma_tilde(w_axis, s_hat)
        n = grid.size
        self._ax_pos = _complex_spline(np.log(grid), vals_axis[:n])
        self._ax_neg = _complex_spline(np.log(grid), vals_axis[n:])
        vals_neg = sy.gamma_tilde(-grid, s_hat)
        self._negreal = _complex_spline(np.log(grid), vals_neg)

    # gamma_tilde on the axis, w = i v -----------------------------------

    def gamma_axis(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        return self._gamma_piecewise(1j * v, np.abs(v), ((v > 0, self._ax_pos),
                                                         (v < 0, self._ax_neg)))

    # gamma_tilde on the negative real axis --------------------------------

    def gamma_negreal(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if np.any(u >= 0):
            raise ValueError("gamma_negreal expects u < 0")
        return self._gamma_piecewise(u, -u, ((u < 0, self._negreal),))

    def _gamma_piecewise(self, w: np.ndarray, mod: np.ndarray,
                         branches) -> np.ndarray:
        """gamma_tilde at w of modulus mod: gamma0 + gamma1 w below _V_LO, each
        (mask, spline) branch in log mod to _V_HI, -ind log(-w) + M1/w beyond."""
        out = np.empty(w.shape, dtype=complex)
        tiny = mod < _V_LO
        big = mod > _V_HI
        mid = ~(tiny | big)
        out[tiny] = self.gamma0 + self.gamma1 * w[tiny]
        for side, spline in branches:
            sel = mid & side
            out[sel] = spline(np.log(mod[sel]))
        out[big] = -self.ind * np.log(-w[big]) + self.moment1 / w[big]
        return out

    # scalar bundle at s = s_hat * |s| -------------------------------------

    def scalars(self, mod_s: np.ndarray) -> dict:
        """Scale-resolved symbols at s = s_hat * mod_s (mod_s > 0 array):
        k, phi, a_tilde, B (data bracket), C (reference ratio), e^{gamma_tilde
        (-1,s)} with the |s|^{ind/2} power already cancelled against the
        bracket normalization, and Psi_B."""
        mod_s = np.asarray(mod_s, dtype=float)
        rad = np.sqrt(mod_s)
        s = self.s_hat * mod_s
        k = self.k_hat * rad
        phi = self.phi_hat * rad
        at = self.a_hat / rad
        big_b = (1.0 - at) * k * k / (1.0 + self.k_hat * self.a_hat)
        c_ref = (1.0 + phi) / (1.0 + k)
        gm1 = self.gamma_negreal(-1.0 / rad)
        e_delta = np.exp(gm1 - self.gamma0)
        psi_b = _psi_boundary_from_pieces(PSI_B_VARIANT, s, k, phi, at,
                                          e_delta)
        return {
            "s": s, "k": k, "phi": phi, "a_tilde": at, "B": big_b,
            "C": c_ref, "gamma_ref": gm1, "e_delta": e_delta, "psi_b": psi_b,
        }


def _complex_spline(x: np.ndarray, vals: np.ndarray) -> PPoly:
    """One piecewise cubic of complex values whose coefficients are those of
    the real and the imaginary cubic spline: an evaluation searches the
    intervals once, and its values are bitwise those of the two splines."""
    re, im = CubicSpline(x, vals.real), CubicSpline(x, vals.imag)
    return PPoly(re.c + 1j * im.c, x)
