"""Reporting layer: slope fits, check-row semantics, CSV schema, and the
deterministic self-check suites."""

import numpy as np
import pytest

from bo_halfline.report import (CheckRow, RunReport, SlopeFit, _csv_num,
                                _csv_str, bound, check, control, fit_affine,
                                fit_loglog, info, run_selfcheck, run_solve,
                                run_verify_symbols, slope)


# ---------------------------------------------------------------------------
# Slope fits


class TestFits:
    def test_affine_exact_line(self):
        fit = fit_affine([0.0, 1.0, 2.0, 3.0], [2.0, 5.0, 8.0, 11.0])
        assert fit.slope == pytest.approx(3.0, abs=1e-12)
        assert fit.intercept == pytest.approx(2.0, abs=1e-12)
        assert fit.ci_low <= 3.0 <= fit.ci_high
        assert fit.residual_max < 1e-12
        assert fit.n == 4
        assert np.allclose(fit.predict(np.array([10.0])), [32.0])

    def test_affine_needs_three_points(self):
        with pytest.raises(ValueError, match="at least 3"):
            fit_affine([0.0, 1.0], [0.0, 1.0])

    def test_affine_ci_widens_with_noise(self):
        x = np.arange(10.0)
        rng = np.random.default_rng(7)
        clean = fit_affine(x, 2.0 * x)
        noisy = fit_affine(x, 2.0 * x + 0.5 * rng.standard_normal(10))
        assert (noisy.ci_high - noisy.ci_low) > (clean.ci_high - clean.ci_low)

    def test_affine_ci_is_the_t_quantile(self, monkeypatch):
        # the CI takes its quantile from scipy.special, so that the report
        # does not import scipy.stats; it must be the same double
        from scipy import stats

        import bo_halfline.report as report
        rng = np.random.default_rng(3)
        for dof in range(1, 201):
            x = np.arange(dof + 2.0)
            y = 2.0 * x + rng.standard_normal(x.size)
            got = fit_affine(x, y)
            with monkeypatch.context() as m:
                m.setattr(report, "stdtrit", lambda df, p: stats.t.ppf(p, df))
                want = fit_affine(x, y)
            assert (got.ci_low, got.ci_high) == (want.ci_low, want.ci_high)

    def test_loglog_exact_power(self):
        x = np.logspace(0, 2, 9)
        fit = fit_loglog(x, 5.0 * x ** -0.75)
        assert fit.slope == pytest.approx(-0.75, abs=1e-12)
        assert np.exp(fit.intercept) == pytest.approx(5.0, rel=1e-12)
        assert fit.residual_max < 1e-13

    def test_loglog_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            fit_loglog([1.0, 2.0], [0.0, 1.0])


# ---------------------------------------------------------------------------
# CSV primitives


class TestCsvFormat:
    def test_twelve_significant_digits(self):
        assert _csv_num(np.pi) == "3.14159265359"
        assert _csv_num(1.0) == "1"
        assert _csv_num(None) == ""
        assert _csv_num(True) == "true"
        assert _csv_num(False) == "false"

    def test_string_quoting(self):
        assert _csv_str("plain") == "plain"
        assert _csv_str("a,b") == '"a,b"'
        assert _csv_str('say "hi"') == '"say ""hi"""'


# ---------------------------------------------------------------------------
# Row constructors: each kind derives its verdict from its own row


def _fit(value):
    return SlopeFit(value, 0.0, value - 0.1, value + 0.1, 5, 0.0)


def _rule(row):
    """The verdict of a row's kind, restated independently of report.py."""
    v, t, tol = row.value, row.target, row.tolerance
    if row.kind in ("check", "slope"):
        return abs(v - t) <= tol
    if row.kind == "bound":
        return v <= t
    if row.kind == "control":
        return v > tol if t is None else abs(v - t) <= tol
    return None


# the growth envelope rows whose verdict rests on figures the row does not
# compare with its target (the slope CI, the fit residual)
_HAND_VERDICTS = {"m1-h1-bound", "m2-weighted-rate"}


class TestConstructors:
    def test_check_is_two_sided_and_inclusive(self):
        for value, ok in ((1.5, True), (0.5, True), (1.0, True),
                          (1.5000001, False), (0.4999999, False)):
            row = check("b", "n", value, 1.0, 0.5)
            assert row.passed is ok, value
        assert (row.kind, row.target, row.tolerance) == ("check", 1.0, 0.5)
        # a zero tolerance is exact equality
        assert check("b", "n", 1.0, 1.0, 0.0).passed is True
        assert check("b", "n", 1.0 + 2.0**-52, 1.0, 0.0).passed is False

    def test_bound_is_inclusive_upper_limit(self):
        assert bound("b", "n", 0.25, 0.25).passed is True
        assert bound("b", "n", -3.0, 0.25).passed is True
        assert bound("b", "n", 0.25 + 2.0**-54, 0.25).passed is False
        assert bound("b", "n", 1.0, 0.25).tolerance is None

    def test_slope_reads_the_fit(self):
        row = slope("b", "n", _fit(-0.5), -0.75, 0.25)
        assert row.passed is True            # exactly at the limit
        assert (row.kind, row.value, row.ci_low, row.ci_high) == \
            ("slope", -0.5, -0.6, -0.4)
        assert slope("b", "n", _fit(-0.49), -0.75, 0.25).passed is False
        assert slope("b", "n", _fit(-1.0), -0.75, 0.25).passed is True

    def test_control_with_target_expects_the_discrepancy(self):
        assert control("b", "n", 1.125, 1.0, 0.125).passed is True
        assert control("b", "n", 0.875, 1.0, 0.125).passed is True
        assert control("b", "n", 1.0, 1.0, 0.125).passed is True
        assert control("b", "n", 0.0, 1.0, 0.125).passed is False
        assert control("b", "n", 2.0, 1.0, 0.125).passed is False

    def test_control_without_target_needs_a_visible_residual(self):
        assert control("b", "n", 0.125 + 2.0**-55, None, 0.125).passed is True
        assert control("b", "n", 0.125, None, 0.125).passed is False
        assert control("b", "n", 1.0e-6, None, 0.125).passed is False

    def test_info_has_no_verdict(self):
        row = info("b", "n", 0.5, -0.25)
        assert row.passed is None and row.target == -0.25
        assert row.kind == "info"

    def test_nan_never_passes(self):
        nan = float("nan")
        rows = [check("b", "n", nan, 0.0, 1.0), bound("b", "n", nan, 1.0),
                slope("b", "n", _fit(nan), 0.0, 1.0),
                control("b", "n", nan, 1.0, 1.0),
                control("b", "n", nan, None, 0.0)]
        assert [r.passed for r in rows] == [False] * 5

    def test_verdict_is_a_python_bool(self):
        # numpy scalars in, a plain bool out: the CSV writes it as true/false
        rows = [check("b", "n", np.float64(0.5), 0.0, 1.0),
                bound("b", "n", np.float64(2.0), 1.0),
                control("b", "n", np.float64(2.0), None, 1.0)]
        assert [type(r.passed) for r in rows] == [bool] * 3
        text = RunReport("demo", rows).to_csv()
        assert [ln.split(",")[9] for ln in text.splitlines()[2:]] == \
            ["true", "false", "true"]


@pytest.fixture(scope="module")
def full_solve(fast_cfg):
    return run_solve(fast_cfg)


class TestVerdictsFromRows:
    def test_every_row_follows_its_kind(self, cfg, full_solve):
        rows = [*run_selfcheck(cfg, suite="convolution").rows,
                *run_selfcheck(cfg, suite="weights").rows,
                *run_verify_symbols(cfg, suite="controls").rows,
                *full_solve.rows]
        kinds = {r.kind for r in rows}
        assert {"check", "bound", "control", "info"} <= kinds
        hand = [r for r in rows if r.name in _HAND_VERDICTS]
        assert len(hand) == 2
        for r in rows:
            if r.name not in _HAND_VERDICTS:
                assert r.passed == _rule(r), r
                assert r.passed is None or type(r.passed) is bool, r


# ---------------------------------------------------------------------------
# Report aggregation


def _report():
    rows = [
        check("blk", "good", 1.0, 1.0, 0.1),
        bound("blk", "bad", 2.0, 1.0),
        info("blk", "note", 0.5),
        CheckRow("blk", "abort", "stopped", 3.0),
    ]
    return RunReport("demo", rows, config_tag="seed=0")


class TestRunReport:
    def test_pass_fail_accounting(self):
        rep = _report()
        assert rep.passed is False
        assert rep.n_failed == 1
        assert rep.n_checked == 2
        all_good = RunReport("demo", [r for r in rep.rows if r.passed is not False])
        assert all_good.passed is True
        assert all_good.n_failed == 0
        assert all_good.n_checked == 1

    def test_summary_lines_tag_rows(self):
        lines = _report().summary_lines()
        assert lines[0].startswith("[PASS] blk/good")
        assert lines[1].startswith("[FAIL] blk/bad")
        assert lines[2].startswith("[info] blk/note")
        assert lines[3].startswith("[ABORT] blk/stopped")

    def test_csv_schema(self):
        text = _report().to_csv()
        lines = text.splitlines()
        assert lines[0] == ("suite,block,kind,name,value,target,tolerance,"
                            "ci_low,ci_high,passed,source")
        # first data row is the environment stamp: version + config tag,
        # and deliberately no timestamp
        assert lines[1].startswith("demo,meta,info,environment")
        assert "seed=0" in lines[1]
        assert lines[2].split(",")[9] == "true"
        assert lines[3].split(",")[9] == "false"
        assert lines[4].split(",")[9] == ""
        assert lines[5].split(",")[2:4] == ["abort", "stopped"]
        assert lines[5].split(",")[9] == ""

    def test_write_creates_suite_file(self, tmp_path):
        path = _report().write(tmp_path)
        assert path.name == "demo.csv"
        assert path.read_text() == _report().to_csv()

    def test_write_emits_extra_tables(self, tmp_path):
        rep = _report()
        rep.extras["solution"] = "t,x,u\n0,0,0\n"
        path = rep.write(tmp_path)
        assert path.name == "demo.csv"
        assert (tmp_path / "solution.csv").read_text() == "t,x,u\n0,0,0\n"


# ---------------------------------------------------------------------------
# Self-check suites (fast blocks only; the full suites run in acceptance)


class TestSelfcheckSuites:
    def test_block_filter(self, cfg):
        rep = run_selfcheck(cfg, suite="convolution")
        assert rep.rows and all(r.block == "convolution" for r in rep.rows)

    def test_convolution_tail_exponents(self, cfg):
        # delta(a, b) = min(a, b, a+b-1) for the convolution of two power
        # tails; fitted exponents 1.543 / 2.000 / 1.208 within 0.1.
        rep = run_selfcheck(cfg, suite="convolution")
        assert rep.passed
        assert len(rep.rows) == 3

    def test_weights_block_passes(self, cfg):
        rep = run_selfcheck(cfg, suite="weights")
        assert rep.passed
        names = {r.name for r in rep.rows}
        assert "a2-characteristic-stability" in names
        assert "weighted-hilbert-uniformity" in names

    def test_weights_block_detects_bad_weight(self, cfg):
        # epsilon_weight near 1/2 breaks the characteristic-stability bound
        # (measured 1.16 against tolerance 0.05): the guard has teeth.
        rep = run_selfcheck(cfg.replace(epsilon_weight=0.49), suite="weights")
        assert not rep.passed
        failed = {r.name for r in rep.rows if r.passed is False}
        assert "a2-characteristic-stability" in failed

    def test_deterministic_output(self, cfg):
        # Same config, same seed: byte-identical CSV (fixed RNG, no
        # timestamps anywhere in the schema).
        a = run_selfcheck(cfg, suite="plemelj").to_csv()
        b = run_selfcheck(cfg, suite="plemelj").to_csv()
        assert a == b

    def test_seed_changes_sampled_rows(self, cfg):
        a = run_selfcheck(cfg, suite="plemelj").to_csv()
        b = run_selfcheck(cfg.replace(seed=1), suite="plemelj").to_csv()
        assert a != b


class TestSolveSuite:
    def test_ships_solution_lattice(self, tmp_path, fast_cfg):
        # the solve suite writes the converged space-time lattice next to
        # its report, one row per (t, x) node
        report = run_solve(fast_cfg, suite="picard")
        report.write(tmp_path)
        lines = (tmp_path / "solution.csv").read_text().splitlines()
        assert lines[0] == "t,x,u"
        n_t = fast_cfg.n_time_geometric + fast_cfg.n_time_uniform + 1
        n_x = fast_cfg.n_x + 1  # the lattice carries the wall node too
        assert len(lines) == 1 + n_t * n_x
        assert lines[1] == "0,0,0"  # t = 0, wall node, vanishing datum

    def test_unknown_block_is_empty_and_ships_nothing(self, fast_cfg,
                                                      tmp_path):
        report = run_solve(fast_cfg, suite="nonesuch")
        assert report.rows == [] and report.extras == {}
        report.write(tmp_path)
        assert not (tmp_path / "solution.csv").exists()

    def test_picard_block_runs_no_reference(self, fast_cfg, monkeypatch):
        # an unselected block is not computed: the method-of-lines run
        # belongs to the cross-validation block alone
        def refuse(*args, **kwargs):
            raise AssertionError("cross_validate called")

        monkeypatch.setattr("bo_halfline.report.cross_validate", refuse)
        rep = run_solve(fast_cfg, suite="picard")
        assert rep.rows and all(r.block == "picard" for r in rep.rows)
        assert rep.telemetry
        assert not any("reference" in line for line in rep.telemetry)

    def test_cross_validation_block_matches_full_run(self, fast_cfg,
                                                     full_solve):
        rep = run_solve(fast_cfg, suite="cross-validation")
        assert rep.rows
        assert rep.rows == [r for r in full_solve.rows
                            if r.block == "cross-validation"]
        assert rep.extras == full_solve.extras
        assert any(line.startswith("solve: reference:")
                   for line in rep.telemetry)
