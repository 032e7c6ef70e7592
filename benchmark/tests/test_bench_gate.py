"""Correctness gate: accepts the recorded outputs, rejects perturbed ones.

    python3 -m pytest benchmark/tests
"""

import copy
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from gate import (check_identical, check_mol, check_picard, check_report,  # noqa: E402
                  check_solution, check_unit, read_report, solution_stats)
from workloads import UnitResult  # noqa: E402

SNAPSHOT = json.loads((BENCH / "snapshot.json").read_text())


@pytest.fixture(scope="module")
def verify_symbols_csv(tmp_path_factory):
    """A real ``verify-symbols`` report at seed 0 (about 1.5 s)."""
    from bo_halfline.cli import main

    out = tmp_path_factory.mktemp("vs")
    assert main(["verify-symbols", "--seed", "0", "--out", str(out)]) == 0
    return out / "verify-symbols.csv"


def _rewrite(path: Path, dest: Path, edit) -> Path:
    lines = path.read_text().splitlines()
    dest.write_text("\n".join(edit(lines)) + "\n")
    return dest


def test_real_report_passes(verify_symbols_csv):
    snap = SNAPSHOT["linear-suites"]["reports"]["verify-symbols"]
    assert check_report("verify-symbols", read_report(verify_symbols_csv), snap) == []


def test_perturbed_value_is_rejected(verify_symbols_csv, tmp_path):
    snap = SNAPSHOT["linear-suites"]["reports"]["verify-symbols"]
    # a seed-independent row: the control's measured index gap (~1.0)
    def edit(lines):
        return [ln.replace(",1.00000006908,", ",1.01000006908,") for ln in lines]

    bad = _rewrite(verify_symbols_csv, tmp_path / "bad.csv", edit)
    assert bad.read_text() != verify_symbols_csv.read_text()
    reasons = check_report("verify-symbols", read_report(bad), snap)
    assert any("index-contour" in r for r in reasons)


def test_flipped_verdict_nan_and_missing_row_are_rejected(verify_symbols_csv, tmp_path):
    snap = SNAPSHOT["linear-suites"]["reports"]["verify-symbols"]
    lines = verify_symbols_csv.read_text().splitlines()
    k_row = next(i for i, ln in enumerate(lines) if ",k[p=2]," in ln)

    flipped = list(lines)
    flipped[k_row] = flipped[k_row].replace(",true,", ",false,")
    nan = list(lines)
    cells = nan[k_row].split(",")
    cells[4] = "nan"
    nan[k_row] = ",".join(cells)
    missing = lines[:k_row] + lines[k_row + 1:]
    for variant, needle in ((flipped, "passed="), (nan, "not finite"),
                            (missing, "row set drifted")):
        bad = _rewrite(verify_symbols_csv, tmp_path / "bad.csv", lambda _: variant)
        reasons = check_report("verify-symbols", read_report(bad), snap)
        assert any(needle in r for r in reasons), (needle, reasons)


def test_picard_gate():
    ok = {"picard|check|converged": {"value": 1.0},
          "picard|bound|fixed-point-residual": {"value": 5.7e-6}}
    assert check_picard(ok) == []
    slow = copy.deepcopy(ok)
    slow["picard|bound|fixed-point-residual"]["value"] = 2.0e-3
    assert check_picard(slow)
    stuck = copy.deepcopy(ok)
    stuck["picard|check|converged"]["value"] = 0.0
    assert check_picard(stuck)
    assert check_picard({})


def test_solution_gate(tmp_path):
    path = tmp_path / "solution.csv"
    rows = ["t,x,u"] + [f"{t},{x},{(t + 1) * (x + 2) * 0.01:.12g}"
                        for t in (0, 0.5, 1) for x in (0, 1, 2)]
    path.write_text("\n".join(rows) + "\n")
    ref = solution_stats(path)
    assert check_solution(solution_stats(path), ref) == []
    rows[5] = rows[5].rsplit(",", 1)[0] + ",0.0406"     # 0.04 -> 0.0406
    path.write_text("\n".join(rows) + "\n")
    assert any("l1[1]" in r for r in check_solution(solution_stats(path), ref))
    rows[5] = rows[5].rsplit(",", 1)[0] + ",inf"
    path.write_text("\n".join(rows) + "\n")
    assert any("non-finite" in r for r in check_solution(solution_stats(path), ref))


def test_mol_gate():
    snap = SNAPSHOT["mol-ladder"]["mol"]
    runs = copy.deepcopy(snap)
    for run in runs.values():
        run["finite"] = True
    assert check_mol(runs, snap) == []
    unstable = copy.deepcopy(runs)
    unstable["512"]["spectral_radius"] = 1.0 + 1.0e-6
    assert any("spectral radius" in r for r in check_mol(unstable, snap))
    drift = copy.deepcopy(runs)
    drift["2048"]["l2_end"] *= 1.001
    assert any("l2_end" in r for r in check_mol(drift, snap))
    assert check_mol({"512": runs["512"]}, snap)


def test_unit_errors_and_exit_code_two_fail():
    snap = SNAPSHOT["mol-ladder"]
    assert check_unit(UnitResult(error="Traceback ..."), snap)
    assert any("code 2" in r for r in
               check_unit(UnitResult(exit_codes={"solve": 2}), {}))


def test_identical_outputs_required():
    a = {"solve": "aa", "solution": "bb"}
    assert check_identical([a, dict(a)]) == {}
    assert check_identical([a, {"solve": "aa", "solution": "cc"}]) == {
        1: ["solution differs from unit 0's"]}
