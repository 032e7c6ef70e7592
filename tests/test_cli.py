"""Command-line interface: subcommands, config resolution order, exit codes,
and deterministic CSV output.

Most tests call main() in-process (fast, captures exit codes directly); one
subprocess test exercises the installed console script end to end.
"""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bo_halfline
from bo_halfline.cli import main


def export_fast_cfg(fast_cfg, monkeypatch):
    """Hand the reduced-resolution config to main() through BOHL_ variables;
    a test sets any further variable after this call."""
    for field in dataclasses.fields(fast_cfg):
        monkeypatch.setenv("BOHL_" + field.name.upper(),
                           repr(getattr(fast_cfg, field.name)))


# ---------------------------------------------------------------------------
# Exit code 0: passing suites


class TestPassingRuns:
    def test_selfcheck_block_passes(self, capsys):
        code = main(["selfcheck", "--suite", "convolution"])
        out = capsys.readouterr().out
        assert code == 0
        assert "selfcheck: 3/3 checks passed" in out
        assert "[PASS]" in out

    def test_csv_written_to_out_dir(self, tmp_path, capsys):
        code = main(["selfcheck", "--suite", "convolution",
                     "--out", str(tmp_path)])
        assert code == 0
        path = tmp_path / "selfcheck.csv"
        assert path.exists()
        assert "wrote" in capsys.readouterr().out
        header = path.read_text().splitlines()[0]
        assert header.startswith("suite,block,kind,name,value")


# ---------------------------------------------------------------------------
# Exit code 1: a check fails


class TestFailingRuns:
    def test_bad_weight_parameter_fails_weights_block(self, monkeypatch, capsys):
        monkeypatch.setenv("BOHL_EPSILON_WEIGHT", "0.49")
        code = main(["selfcheck", "--suite", "weights"])
        out = capsys.readouterr().out
        assert code == 1
        assert "[FAIL] weights/a2-characteristic-stability" in out


# ---------------------------------------------------------------------------
# Exit code 2: configuration errors


class TestConfigErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["selfcheck", "--config", str(tmp_path / "absent.cfg")])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_malformed_config_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("data_scale = not_a_number\n")
        code = main(["selfcheck", "--config", str(bad)])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_bad_env_value(self, monkeypatch, capsys):
        monkeypatch.setenv("BOHL_SEED", "three")
        code = main(["selfcheck", "--suite", "convolution"])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("command,blocks", [
        ("selfcheck", "plemelj, spectral, weights, convolution"),
        ("solve", "picard, growth, cross-validation"),
    ], ids=["selfcheck", "solve"])
    def test_unknown_block_is_a_config_error(self, command, blocks, tmp_path,
                                             capsys):
        # a misspelt block used to run nothing and pass with 0/0 checks;
        # it is refused before any block runs, so no solve and no CSV
        code = main([command, "--suite", "nosuch", "--out", str(tmp_path)])
        out, err = capsys.readouterr()
        assert code == 2
        assert err == (f"configuration error: unknown block 'nosuch'; this "
                       f"command's blocks are {blocks}\n")
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    def test_out_names_a_file(self, tmp_path, capsys):
        # the suite runs, then its CSV has no directory to go to; this used
        # to print a FileExistsError traceback
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        code = main(["selfcheck", "--suite", "convolution",
                     "--out", str(taken)])
        out, err = capsys.readouterr()
        assert code == 2
        assert err.startswith("output error: ") and str(taken) in err
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err and "wrote" not in out
        assert taken.read_text() == "not a directory\n"


# ---------------------------------------------------------------------------
# Short horizons: the solve suite must report, not crash


@pytest.mark.parametrize("env,expect", [
    # one node in the late growth window: too few for its slope
    ({"T_FINAL": "0.5", "T_SWITCH": "0.5"},
     ["growth/m1-h1-bound:not-fittable", "cross-validation/rel-l2[t=0.5]"]),
    # t = 1 is off the lattice: compare at its last node instead
    ({"T_FINAL": "0.8", "T_SWITCH": "0.4"}, ["cross-validation/rel-l2[t=0.8]"]),
    # two interior nodes in all: too few for the weighted-rate slope too
    ({"N_TIME_GEOMETRIC": "1", "N_TIME_UNIFORM": "1"},
     ["growth/m2-weighted-rate:not-fittable"]),
    # a horizon under half a reference step: the reference takes one step
    ({"T_FINAL": "0.0004", "T_SWITCH": "0.0002"},
     ["cross-validation/rel-l2[t=0.0004]"]),
    # the smallest accepted lattice: its times still square to normal
    # doubles, so the growth fits and the boundary lags stay finite
    ({"T_FINAL": "1e-150", "T_SWITCH": "1e-150"},
     ["cross-validation/rel-l2[t=1e-150]"]),
])
def test_solve_short_lattice_reports(env, expect, fast_cfg, monkeypatch, capsys):
    # valid configurations report without a traceback; all but the last
    # used to exit 2 with one
    export_fast_cfg(fast_cfg, monkeypatch)
    for key, val in env.items():
        monkeypatch.setenv("BOHL_" + key, val)
    code = main(["solve"])
    out, err = capsys.readouterr()
    assert code != 2, err
    assert "Traceback" not in err
    for name in expect:
        assert name in out


def test_solve_reference_past_x_max_compares_inside(fast_cfg, monkeypatch,
                                                    capsys):
    # A reference domain far past x_max: the comparison reads the solution
    # only at reference nodes with x <= x_max.  Through the solution's
    # spline extrapolated to x = 1e10 this read picard-l2 1.2e28 and
    # rel-l2 6.1e26, and inf from mol_length 1e50 up.
    export_fast_cfg(fast_cfg, monkeypatch)
    for key, val in {"MOL_N": "16", "T_FINAL": "0.008", "T_SWITCH": "0.004",
                     "MOL_LENGTH": "1e10"}.items():
        monkeypatch.setenv("BOHL_" + key, val)
    code = main(["solve", "--suite", "cross-validation"])
    out, err = capsys.readouterr()
    assert code != 2, err
    values = {ln.split()[1]: float(ln.split("value=")[1].split()[0])
              for ln in out.splitlines() if "value=" in ln}
    for name in ("picard-l2", "rel-l2"):
        assert math.isfinite(values[f"cross-validation/{name}[t=0.008]"])


@pytest.mark.parametrize("scale", ["1e100", "1e152", "1e200"])
def test_solve_huge_data_aborts(scale, fast_cfg, monkeypatch, capsys):
    # at each scale the first forcing u u_x is past the single-precision
    # range (at 1e200 it overflows), so the first sweep aborts; 1e152 and
    # 1e200 used to end in a spline traceback (exit 2)
    export_fast_cfg(fast_cfg, monkeypatch)
    monkeypatch.setenv("BOHL_DATA_SCALE", scale)
    code = main(["solve"])
    out, err = capsys.readouterr()
    assert code == 1, err
    assert "Traceback" not in err
    assert "[ABORT] picard/iteration-aborted" in out


def test_solve_repeat_runs_byte_identical(fast_cfg, monkeypatch, tmp_path):
    # stage timings ride on the solution's meta and never reach the CSVs
    export_fast_cfg(fast_cfg, monkeypatch)
    for run in ("a", "b"):
        main(["solve", "--out", str(tmp_path / run)])
    for name in ("solve.csv", "solution.csv"):
        a = (tmp_path / "a" / name).read_bytes()
        assert a == (tmp_path / "b" / name).read_bytes()


def test_solve_prints_stage_telemetry(fast_cfg, monkeypatch, capsys,
                                      tmp_path):
    export_fast_cfg(fast_cfg, monkeypatch)
    # the reference line belongs to the cross-validation block, the only
    # block that runs the method-of-lines reference
    main(["solve", "--suite", "cross-validation", "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    lines = err.splitlines()
    stages = [ln for ln in lines if "linear_lattice_s=" in ln]
    assert len(stages) == 1
    for key in ("propagator_build_s=", "linear_lattice_peak_rss_mb=",
                "propagator_build_peak_rss_mb=", "propagator_mb=", "workers=",
                "form_discrepancy="):
        assert key in stages[0]
    # the arrays the propagator keeps, in MB, on the stage line only: 14.5
    # on this config (the fused ray map 11.1, the phases 2.1, the Filon
    # table and small maps 1.3), bounded with 1.5 MB to spare
    assert sum("propagator_mb=" in ln for ln in lines) == 1
    mb = float(stages[0].split("propagator_mb=")[1].split()[0])
    assert 1.0 < mb < 16.0
    sweeps = [ln for ln in lines if "sweep" in ln]
    assert any("sweep 1:" in ln for ln in sweeps)
    assert any("residual sweep:" in ln for ln in sweeps)
    for ln in sweeps:
        for key in ("transform_forcing_s=", "accumulate_s=", "sweep_s=",
                    "step_norm=", "contraction_ratio=", "peak_rss_mb="):
            assert key in ln
    # the process peak never falls: each stage reads at least the last
    peaks = [float(ln.split(key)[1].split()[0]) for ln in stages + sweeps
             for key in ("linear_lattice_peak_rss_mb=",
                         "propagator_build_peak_rss_mb=", " peak_rss_mb=")
             if key in ln]
    assert len(peaks) == 2 + len(sweeps)
    assert peaks[0] > 0.0 and peaks == sorted(peaks)
    reference = [ln for ln in lines if "reference:" in ln]
    assert len(reference) == 1
    for key in ("n=512 ", "n_steps=1000 ", "build_s=", "step_matrix_s=",
                "steps_s=", "certificate_s=", "certificate_route=cholesky ",
                "spectral_radius=", "l2_drift=", "energy_drift="):
        assert key in reference[0]
    assert "_s=" not in out and "rss" not in out
    csvs = "".join(path.read_text() for path in tmp_path.glob("*.csv"))
    assert "solve" in csvs
    assert "energy_drift" not in out + csvs
    assert "form_discrepancy" not in out + csvs
    assert "propagator_mb" not in out + csvs
    assert "rss" not in csvs


# ---------------------------------------------------------------------------
# Config resolution order


class TestConfigResolution:
    def test_seed_flag_overrides_env(self, monkeypatch, tmp_path):
        # plemelj rows sample with the seed, so different seeds give
        # different CSVs; the --seed flag must win over the environment.
        monkeypatch.setenv("BOHL_SEED", "5")
        main(["selfcheck", "--suite", "plemelj", "--seed", "9",
              "--out", str(tmp_path / "flag")])
        monkeypatch.delenv("BOHL_SEED")
        main(["selfcheck", "--suite", "plemelj", "--seed", "9",
              "--out", str(tmp_path / "plain")])
        main(["selfcheck", "--suite", "plemelj", "--seed", "5",
              "--out", str(tmp_path / "five")])
        flag = (tmp_path / "flag" / "selfcheck.csv").read_text()
        plain = (tmp_path / "plain" / "selfcheck.csv").read_text()
        five = (tmp_path / "five" / "selfcheck.csv").read_text()
        assert flag == plain
        assert flag != five

    def test_config_file_applied(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("epsilon_weight = 0.49\n")
        code = main(["selfcheck", "--suite", "weights",
                     "--config", str(cfgfile)])
        capsys.readouterr()
        assert code == 1  # same failure as the env-var route

    def test_repeat_runs_byte_identical(self, tmp_path):
        main(["selfcheck", "--suite", "plemelj", "--seed", "3",
              "--out", str(tmp_path / "a")])
        main(["selfcheck", "--suite", "plemelj", "--seed", "3",
              "--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "selfcheck.csv").read_bytes()
        b = (tmp_path / "b" / "selfcheck.csv").read_bytes()
        assert a == b


# ---------------------------------------------------------------------------
# Installed console script


def test_package_exports_resolve_once():
    # a refactor that drops or duplicates an export shows here, not in a user
    names = bo_halfline.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(bo_halfline, name)]
    assert missing == []


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats costs about half a second to import, and every solve
    # starts by importing the cli
    package_root = str(Path(bo_halfline.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, bo_halfline.cli; print(sorted(m for m in sys.modules "
         "if m.startswith('scipy.stats')))"],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_starts_no_thread():
    # the row-block pool starts with the first split: importing the cli
    # and a method-of-lines run start no thread
    package_root = str(Path(bo_halfline.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import threading, bo_halfline.cli\n"
         "from bo_halfline import MethodOfLines, RunConfig, halfline\n"
         "print(threading.active_count(), halfline._pool is None)\n"
         "MethodOfLines(RunConfig(), mol_n=64).run(t_final=1.0)\n"
         "print(threading.active_count(), halfline._pool is None)"],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "True", "1", "True"]


def test_console_script_end_to_end(tmp_path):
    # the child imports the same package as this process, installed or not
    package_root = str(Path(bo_halfline.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "bo_halfline.cli", "selfcheck",
         "--suite", "convolution", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert "3/3 checks passed" in proc.stdout
    assert (tmp_path / "selfcheck.csv").exists()
