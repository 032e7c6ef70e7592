"""Run configuration: a flat key=value file format with environment overrides.

Every tunable the experiment commands accept lives in one dataclass so a run is
reproducible from (config, seed) alone.  The structural choices of the
factorization (contour angles, the a_tilde weight and Psi_B variants) are not
run inputs: they are constants of ``symbols``, ``green`` and ``boundary``.
Files are plain ``key = value`` lines; environment variables spelled
``BOHL_<KEY>`` override file values, and CLI flags override both.  Keys and
enumerated options are closed: a key that names no field (in a file or a
``BOHL_`` variable), a key set twice in one file and an unknown value are
configuration errors, not warnings.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass, fields
from pathlib import Path

ENV_PREFIX = "BOHL_"

#: Closed vocabularies for the string-valued options.
ENUM_VALUES = {
    "psi_profile": ("gauss_bump", "poly_exp"),
}


#: Smallest method-of-lines size: the one-sided three-point end stencils need
#: room, and the PV/FFT cross-check trims 8 nodes at each end.
MOL_MIN_N = 16

#: Smallest accepted t_switch: the first positive lattice time, 1e-3
#: t_switch, must square to a normal double.  Smaller lattices leave the
#: double range: the growth fits' np.polyfit squares the times (LinAlgError
#: once t_final^2 underflows, near t_final = 1e-162), and the boundary
#: convolution raises lags down to 1e-15 t_switch to the power 3/2 (overflow
#: below t_switch ~ 5e-188, a NaN lattice at 1e-300).
MIN_T_SWITCH = 1.0e-150

#: Smallest accepted first node spacing x_max / n_x^2 of the half-line grid
#: (nodes x_max (j/n_x)^2): its square, 1e-300, must be a normal double with
#: room to spare.  The forcing's cubic spline divides by the squared
#: spacing; once that underflows, the solve ends in NaN step norms (spacing
#: 1.5e-165, x_max = 1e-160 at n_x = 256; finite at 1.5e-155, x_max = 1e-150).
MIN_X_STEP = 1.0e-150

#: Largest accepted mol_length and mol_n/mol_length (the reciprocal mesh
#: width).  The reference squares both: the lifting profile's 4 x^2 at the
#: last node, and the curvature's 1/dx^2 times the PV matrix.  Past the
#: double range these end in NaN norms (mol_length = 1e154 at mol_n = 16,
#: 1e-300 at mol_n = 512) or a LinAlgError (1e200); 1e150 leaves room for
#: the factors.
MAX_MOL_SCALE = 1.0e150

#: Largest accepted t_final / mol_dt, the reference's step count (it runs to
#: at most t_final).  Its step times, boundary values and their derivatives
#: are arrays of one double per step, which must fit: 1e7 steps keeps them
#: under 0.25 GB.  Past numpy's array size limit (mol_dt = 1e-300) the
#: reference would fail only after the whole Picard solve.
MAX_MOL_STEPS = 1.0e7

_FIELD_TYPES = {"int": int, "float": (int, float), "str": str}


class ConfigError(ValueError):
    """Malformed configuration input (CLI maps this to exit code 2)."""


@dataclass
class RunConfig:
    # Reproducibility
    seed: int = 0

    # Half-line grid
    x_max: float = 40.0
    n_x: int = 256

    # Quadrature density (Gauss-Legendre points per decade of radius).
    contour_points_per_decade: int = 24

    # Time discretization for the nonlinear solver: geometric nodes on
    # (0, t_switch], uniform on (t_switch, t_final].
    t_final: float = 2.0
    t_switch: float = 1.0
    n_time_geometric: int = 64
    n_time_uniform: int = 64

    # Picard iteration
    picard_max_iter: int = 12
    picard_tol: float = 5.0e-4
    data_scale: float = 0.1

    # Reference method-of-lines discretization
    mol_n: int = 512
    mol_length: float = 30.0
    mol_dt: float = 1.0e-3

    # Initial-datum profile; the boundary datum is always ramp_exp.
    psi_profile: str = "gauss_bump"

    # Weighted-space exponent (the epsilon in the H^{1+eps} / L^{2,eps} pair).
    epsilon_weight: float = 0.125

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, _FIELD_TYPES[f.type]) or isinstance(value, bool):
                raise ConfigError(f"{f.name}={value!r} is not of type {f.type}")
            if f.type == "float" and not math.isfinite(value):
                raise ConfigError(f"{f.name}={value!r} is not finite")
        for name, allowed in ENUM_VALUES.items():
            value = getattr(self, name)
            if value not in allowed:
                raise ConfigError(
                    f"{name}={value!r} is not one of {sorted(allowed)}"
                )
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.n_x < 16:
            raise ConfigError("grid requires n_x >= 16")
        if self.t_final <= 0 or not 0 < self.t_switch <= self.t_final:
            raise ConfigError("need 0 < t_switch <= t_final")
        if self.t_switch < MIN_T_SWITCH:
            raise ConfigError(
                f"t_switch={self.t_switch!r} (t_final={self.t_final!r}) is "
                f"below {MIN_T_SWITCH:g}: squares and powers of the smallest "
                f"lattice times leave the double range")
        for name in ("x_max", "mol_length", "mol_dt", "picard_tol"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.n_x ** 2 > self.x_max / MIN_X_STEP:
            raise ConfigError(
                f"x_max={self.x_max!r} (n_x={self.n_x}): the first node "
                f"spacing x_max/n_x^2 is below {MIN_X_STEP:g}: the forcing "
                f"spline's squared spacing leaves the double range")
        for name in ("n_time_geometric", "n_time_uniform", "picard_max_iter"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        if self.t_final / self.mol_dt > MAX_MOL_STEPS:
            raise ConfigError(
                f"mol_dt={self.mol_dt!r} (t_final={self.t_final!r}): "
                f"t_final/mol_dt must not exceed {MAX_MOL_STEPS:g} reference "
                f"steps: their step-time arrays must fit in memory")
        if not 0.0 <= self.epsilon_weight < 0.5:
            raise ConfigError(
                f"epsilon_weight={self.epsilon_weight!r} is outside [0, 1/2): "
                f"L^(2,eps) needs eps >= 0 and <x>^(2 eps) is A_2 only below 1/2")
        if self.contour_points_per_decade < 4:
            raise ConfigError("contour_points_per_decade must be at least 4")
        if self.mol_n < MOL_MIN_N:
            raise ConfigError(f"mol_n must be at least {MOL_MIN_N}")
        if (self.mol_length > MAX_MOL_SCALE
                or self.mol_n > MAX_MOL_SCALE * self.mol_length):
            raise ConfigError(
                f"mol_length={self.mol_length!r} (mol_n={self.mol_n}): "
                f"mol_length and mol_n/mol_length must not exceed "
                f"{MAX_MOL_SCALE:g}: the reference's squared nodes and "
                f"squared reciprocal mesh width leave the double range")

    # -- serialization --------------------------------------------------

    def to_file(self, path: str | Path) -> None:
        """Write as flat ``key = value`` lines, floats via repr (round-trip exact)."""
        lines = []
        for f in fields(self):
            lines.append(f"{f.name} = {getattr(self, f.name)!r}")
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        raw, seen = {}, {}
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        for lineno, line in enumerate(text.splitlines(), 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = stripped.partition("=")
            key = key.strip()
            if key in seen:
                raise ConfigError(f"{path}:{lineno}: {key!r} repeats the "
                                  f"value set on line {seen[key]}")
            seen[key] = lineno
            raw[key] = value.strip()
        return cls.from_mapping(raw)

    @classmethod
    def from_mapping(cls, raw: dict[str, str]) -> "RunConfig":
        known = {f.name: f for f in fields(cls)}
        kwargs = {}
        for key, text in raw.items():
            if key not in known:
                raise ConfigError(f"unknown config key {key!r}")
            kwargs[key] = _parse_value(known[key].type, text, key)
        return cls(**kwargs)

    def with_env_overrides(self, environ: dict[str, str] | None = None) -> "RunConfig":
        """Return a copy with BOHL_<KEY> environment overrides applied; a
        BOHL_ variable that names no field is an error, as in a file."""
        env = os.environ if environ is None else environ
        by_var = {ENV_PREFIX + f.name.upper(): f for f in fields(self)}
        for var in sorted(env):
            if var.startswith(ENV_PREFIX) and var not in by_var:
                raise ConfigError(f"unknown config key in environment "
                                  f"variable {var}")
        updates = {f.name: _parse_value(f.type, env[var], f.name)
                   for var, f in by_var.items() if var in env}
        return dataclasses.replace(self, **updates) if updates else self

    def replace(self, **kw) -> "RunConfig":
        return dataclasses.replace(self, **kw)


def _parse_value(ftype: str, text: str, key: str):
    """Parse a config literal.  Accepts repr-style strings for round-trips."""
    text = text.strip()
    if text and text[0] in "'\"" and text[-1] == text[0]:
        text = text[1:-1]
    try:
        if ftype == "int":
            return int(text)
        if ftype == "float":
            return float(text)
        return text
    except ValueError as exc:
        raise ConfigError(f"could not parse {key}={text!r} as {ftype}") from exc
