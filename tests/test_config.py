"""Configuration: typed parsing, defaults file, env overrides, validation."""

import contextlib
import dataclasses
import io
import math
import os
import re
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bo_halfline.cli import main
from bo_halfline.config import (ENUM_VALUES, MAX_MOL_SCALE, MAX_MOL_STEPS,
                                MAX_MOL_STIFFNESS, MIN_T_SWITCH, MIN_X_STEP,
                                MOL_MIN_N, ConfigError, RunConfig)
from bo_halfline.mol import MethodOfLines
from bo_halfline.solver import picard_solve

SRC_DIR = Path(__file__).resolve().parents[1] / "src" / "bo_halfline"
DEFAULTS_FILE = SRC_DIR / "defaults.cfg"


def test_defaults_file_matches_constructor():
    assert RunConfig.from_file(DEFAULTS_FILE) == RunConfig()


def test_every_field_is_read_by_the_program():
    # a key that no module reads is a knob that changes nothing
    sources = "\n".join(p.read_text() for p in SRC_DIR.glob("*.py")
                        if p.name != "config.py")
    unread = [f.name for f in dataclasses.fields(RunConfig)
              if not re.search(rf"\.{f.name}\b", sources)]
    assert not unread, f"RunConfig fields read nowhere: {unread}"


def test_round_trip_through_file(tmp_path):
    cfg = RunConfig().replace(seed=7, data_scale=0.325, psi_profile="poly_exp",
                              epsilon_weight=0.3, n_x=128)
    path = tmp_path / "run.cfg"
    cfg.to_file(path)
    assert RunConfig.from_file(path) == cfg


def test_every_field_survives_round_trip(tmp_path):
    cfg = RunConfig()
    path = tmp_path / "all.cfg"
    cfg.to_file(path)
    back = RunConfig.from_file(path)
    for field in dataclasses.fields(RunConfig):
        assert getattr(back, field.name) == getattr(cfg, field.name), field.name


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown config key"):
        RunConfig.from_mapping({"no_such_knob": "1"})


@pytest.mark.parametrize("line", ["c_q_variant = 'alt'",
                                  "psi_b_variant = 'derived'"])
def test_variant_file_key_rejected(tmp_path, line):
    # the structural variants are constants of symbols.py, not run inputs
    path = tmp_path / "variant.cfg"
    path.write_text(line + "\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        RunConfig.from_file(path)


def test_non_utf8_file_exits_2(tmp_path):
    # used to end in a UnicodeDecodeError traceback with exit 1, the code
    # of a failed check
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"seed = \xff\xfe\n")
    with pytest.raises(ConfigError, match="cannot read config file"):
        RunConfig.from_file(path)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(["selfcheck", "--config", str(path)])
    assert code == 2
    assert err.getvalue().startswith("configuration error: cannot read")
    assert "Traceback" not in err.getvalue()


def test_bad_value_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("n_x = a_lot\n")
    with pytest.raises(ConfigError):
        RunConfig.from_file(path)


def test_malformed_line_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("just some words\n")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        RunConfig.from_file(path)


def test_repeated_key_rejected(tmp_path):
    # the second value used to win silently
    path = tmp_path / "twice.cfg"
    path.write_text("n_x = 64\n# a comment\nn_x = 128\n")
    with pytest.raises(ConfigError, match=r"twice.cfg:3: 'n_x' repeats the "
                                          r"value set on line 1"):
        RunConfig.from_file(path)


def test_env_overrides_typed():
    cfg = RunConfig().with_env_overrides({
        "BOHL_SEED": "42",
        "BOHL_DATA_SCALE": "0.25",
        "BOHL_PSI_PROFILE": "poly_exp",
        "UNRELATED": "ignored",
    })
    assert cfg.seed == 42
    assert cfg.data_scale == 0.25
    assert cfg.psi_profile == "poly_exp"
    assert cfg.n_x == RunConfig().n_x


def test_env_override_bad_value_is_config_error():
    with pytest.raises(ConfigError):
        RunConfig().with_env_overrides({"BOHL_N_X": "many"})


# BOHL_ variables that name no field: keys deleted from RunConfig (the ray
# angles are constants of green.py and boundary.py, the symbol-contour angle
# and the two structural variants are symbols.SYMBOL_THETA, C_Q_VARIANT and
# PSI_B_VARIANT, the Plemelj check's axis sampling is fixed, the boundary
# datum is always ramp_exp) and a misspelling.  They used to be ignored
# silently, and BOHL_C_Q_VARIANT=derived swapped the whole solve's kernel.
UNKNOWN_VARS = ["BOHL_DELTA_S", "BOHL_DELTA_U", "BOHL_AXIS_POINTS_PER_DECADE",
                "BOHL_CONTOUR_ANGLE", "BOHL_H_PROFILE", "BOHL_C_Q_VARIANT",
                "BOHL_PSI_B_VARIANT", "BOHL_DATA_SCLAE"]


@pytest.mark.parametrize("var", UNKNOWN_VARS)
def test_unknown_env_key_rejected(var):
    with pytest.raises(ConfigError, match=f"unknown config key .*{var}"):
        RunConfig().with_env_overrides({var: "0.3", "BOHL_SEED": "4"})


def test_replace_validates():
    with pytest.raises(ConfigError):
        RunConfig().replace(n_x=8)
    with pytest.raises(ConfigError):
        RunConfig().replace(t_switch=3.0)  # exceeds t_final
    with pytest.raises(ConfigError):
        RunConfig().replace(psi_profile="bogus")


# Values no run can use: mol_dt = 0, for one, divides by zero in the
# reference stepper, and a NaN length propagates into every report row.
REJECTED = [
    ("x_max", math.nan), ("data_scale", math.inf), ("t_final", math.inf),
    ("epsilon_weight", -math.inf), ("x_max", 0.0), ("mol_length", -1.0),
    ("mol_dt", 0.0), ("picard_tol", -5.0e-4), ("n_time_geometric", 0),
    ("n_time_uniform", 0), ("picard_max_iter", 0), ("mol_n", 1),
    ("mol_n", MOL_MIN_N - 1), ("seed", -1), ("n_x", 64.5),
    # the boundary convolution's lags at the first node leave the double
    # range: an overflowing kernel at 1e-200, a NaN lattice at 1e-300
    ("t_switch", 1e-200), ("t_switch", 1e-300),
    # the forcing spline's squared first node spacing underflows: NaN step
    # norms and an aborted Picard iteration at n_x = 256
    ("x_max", 1e-160), ("x_max", 1e-200), ("x_max", 1e-300),
    # the reference's squared nodes and mesh width leave the double range:
    # a LinAlgError traceback at 1e200, NaN cross-validation rows at 1e-300
    ("mol_length", 1e200), ("mol_length", 1e-300),
    # L^{2,eps} is a decay-weighted space for eps >= 0, and <x>^(2 eps) an
    # A_2 weight for eps < 1/2; at 1e308 the weights block printed NaN rows
    ("epsilon_weight", 1e308), ("epsilon_weight", 0.5),
    ("epsilon_weight", -0.1),
    # the reference's per-step arrays: past numpy's size limit at 1e-300, a
    # traceback after the whole Picard solve
    ("mol_dt", 1e-300),
]


@pytest.mark.parametrize("key,value", REJECTED)
def test_validate_rejects(key, value):
    with pytest.raises(ConfigError):
        RunConfig().replace(**{key: value})


def _cli_with_env(key: str, value, **more) -> tuple[int, str]:
    """Exit code and stderr of the CLI with BOHL_<KEY> (and any further
    keys) set, for a config that must be rejected.  The command names an
    unknown block, so an accepted config runs no check: it ends in the
    unknown-block configuration error, which fails here."""
    env = {"BOHL_" + k.upper(): str(v) for k, v in {key: value, **more}.items()}
    err = io.StringIO()
    with mock.patch.dict(os.environ, env), \
            contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(["selfcheck", "--suite", "no-such-block"])
    assert "unknown block" not in err.getvalue(), (key, value, more)
    return code, err.getvalue()


@pytest.mark.parametrize("key,value", REJECTED)
def test_rejected_env_value_exits_2(key, value):
    code, err = _cli_with_env(key, value)
    assert code == 2
    assert "configuration error" in err and "Traceback" not in err


@pytest.mark.parametrize("var", UNKNOWN_VARS)
def test_unknown_env_key_exits_2(var):
    code, err = _cli_with_env(var[len("BOHL_"):].lower(), "0.3")
    assert code == 2
    assert "configuration error: unknown config key" in err and var in err
    assert "Traceback" not in err


def test_mol_scale_edges():
    # the largest accepted mol_length and the stiffest accepted grid,
    # mol_dt (mol_n/mol_length)^2 = MAX_MOL_STIFFNESS, leave a reference run
    # finite, warning-free and certified; just past either the config is
    # rejected
    stiff = MOL_MIN_N * math.sqrt(RunConfig().mol_dt / MAX_MOL_STIFFNESS)
    for length in (MAX_MOL_SCALE, (1.0 + 1e-6) * stiff):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = MethodOfLines(RunConfig(), mol_n=MOL_MIN_N,
                                mol_length=length).run(t_final=0.008)
        assert np.isfinite(res.values).all(), length
        assert math.isfinite(res.l2_drift), length
        assert math.isfinite(res.meta["energy_drift"]), length
        assert res.spectral_radius <= 1.0 + 1e-9, length
    for length in (2.0 * MAX_MOL_SCALE, (1.0 - 1e-6) * stiff):
        with pytest.raises(ConfigError, match="mol_length"):
            RunConfig().replace(mol_n=MOL_MIN_N, mol_length=length)


def test_mol_step_count_edge():
    # the production default takes 2,000 reference steps; the largest
    # step count is accepted, and just past it the config is rejected
    cfg = RunConfig()
    assert cfg.t_final / cfg.mol_dt == 2000.0
    edge = cfg.t_final / MAX_MOL_STEPS
    assert cfg.replace(mol_dt=edge * (1.0 + 1e-12)).mol_dt > edge
    with pytest.raises(ConfigError, match="mol_dt"):
        cfg.replace(mol_dt=edge * (1.0 - 1e-12))


def test_x_step_edge(fast_cfg):
    # at the smallest accepted first node spacing x_max/n_x^2 the solve is
    # finite, in process and through the CLI; just below it the config is
    # rejected, in process and with exit 2 and one line from the CLI
    edge = MIN_X_STEP * fast_cfg.n_x ** 2
    cfg = fast_cfg.replace(x_max=edge * (1.0 + 1e-12))
    sol = picard_solve(cfg)
    assert sol.converged
    assert np.isfinite(sol.values).all() and np.isfinite(sol.derivs).all()
    with pytest.raises(ConfigError, match="x_max"):
        fast_cfg.replace(x_max=edge * (1.0 - 1e-12))
    env = {"BOHL_" + f.name.upper(): repr(getattr(cfg, f.name))
           for f in dataclasses.fields(cfg)}
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env), contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(out):
        code = main(["solve", "--suite", "picard"])
    assert code in (0, 1), err.getvalue()
    assert "[ABORT]" not in out.getvalue()
    norms = re.findall(r"step_norm=(\S+)", err.getvalue())
    assert norms and all(math.isfinite(float(v)) for v in norms)
    code, err = _cli_with_env("x_max", edge * (1.0 - 1e-12),
                              n_x=fast_cfg.n_x)
    assert code == 2
    assert err.startswith("configuration error: x_max=")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("horizon", [1e-300, 1e-200, 1e-170])
def test_vanishing_time_lattice_rejected(horizon):
    # t_final = t_switch = 1e-300 used to end in a CubicSpline traceback
    # (the boundary lattice is NaN), 1e-200 in overflow warnings, and 1e-170
    # in a LinAlgError of the growth fit, whose polyfit squares the times
    with pytest.raises(ConfigError, match="t_switch"):
        RunConfig().replace(t_final=horizon, t_switch=horizon)
    code, err = _cli_with_env("t_final", horizon, t_switch=horizon)
    assert code == 2
    assert "configuration error" in err and "t_switch" in err
    assert "Traceback" not in err


_TYPE_OF = {f.name: f.type for f in dataclasses.fields(RunConfig)}


def _values(name: str):
    ftype = _TYPE_OF[name]
    if ftype == "float":
        return st.floats(allow_nan=True, allow_infinity=True)
    if ftype == "int":
        return st.integers(min_value=-3, max_value=10**6)
    return st.sampled_from(ENUM_VALUES[name] + ("bogus",))


def _assert_usable(cfg: RunConfig) -> None:
    for name, ftype in _TYPE_OF.items():
        if ftype == "float":
            assert math.isfinite(getattr(cfg, name)), name
    for name in ("x_max", "mol_length", "mol_dt", "picard_tol", "t_final",
                 "t_switch"):
        assert getattr(cfg, name) > 0, name
    for name in ("n_time_geometric", "n_time_uniform", "picard_max_iter"):
        assert getattr(cfg, name) >= 1, name
    assert cfg.mol_n >= MOL_MIN_N and cfg.n_x >= 16 and cfg.seed >= 0
    assert cfg.t_switch >= MIN_T_SWITCH
    assert cfg.x_max / cfg.n_x ** 2 >= MIN_X_STEP
    assert cfg.t_final / cfg.mol_dt <= MAX_MOL_STEPS
    reciprocal = cfg.mol_n / cfg.mol_length
    assert cfg.mol_dt * reciprocal * reciprocal <= MAX_MOL_STIFFNESS
    assert cfg.contour_points_per_decade >= 4
    assert 0.0 <= cfg.epsilon_weight < 0.5


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_any_config_is_rejected_or_usable(data):
    names = data.draw(st.lists(st.sampled_from(sorted(_TYPE_OF)),
                               min_size=1, max_size=3, unique=True))
    values = {name: data.draw(_values(name), label=name) for name in names}
    try:
        cfg = RunConfig().replace(**values)
    except ConfigError:
        pass
    else:
        _assert_usable(cfg)
    for name, value in values.items():
        try:
            RunConfig().replace(**{name: value})
        except ConfigError:
            code, err = _cli_with_env(name, value)
            assert code == 2, (name, value)
            assert "configuration error" in err and "Traceback" not in err


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       scale=st.floats(min_value=1e-3, max_value=10.0,
                       allow_nan=False, allow_infinity=False))
def test_numeric_fields_round_trip_exactly(tmp_path_factory, seed, scale):
    cfg = RunConfig().replace(seed=seed, data_scale=scale)
    path = tmp_path_factory.mktemp("cfg") / "roundtrip.cfg"
    cfg.to_file(path)
    back = RunConfig.from_file(path)
    assert back.seed == seed
    assert back.data_scale == scale  # repr round-trip is exact for floats
