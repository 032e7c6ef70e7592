"""Per-unit correctness gate.

A unit fails when any of these hold:

* it raised, or a command-line run exited with code 2;
* it produced a non-finite number (report rows, ``solution.csv``, MoL runs);
* Picard did not converge, or its relative fixed-point residual is above 1e-3;
* a method-of-lines spectral radius is above 1 (beyond eigensolver round-off);
* its report rows or numbers drift from the snapshot recorded with
  ``snapshot.py``;
* two units of the same run produced outputs that are not byte-identical.

Rows that fail their own check (the known findings of acceptance criteria 4,
6 and 8) are expected output: the snapshot records their ``passed`` flag, and
only a change of that flag counts.  Rows whose value depends on the seed are
checked for presence, finiteness and their ``passed`` flag only.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

NUMERIC_FIELDS = ("value", "target", "tolerance", "ci_low", "ci_high")
RTOL = 1.0e-6           # relative drift allowed against the snapshot
ROW_SCALE_TOL = 1.0e-3  # ... plus this share of the row's own tolerance/target
ATOL = 1.0e-13
PICARD_RESIDUAL_MAX = 1.0e-3
# The MoL stepping matrix has the exact eigenvalue 1 (its zero end rows); the
# dense eigensolver returns it as 1 + O(n eps), about 6e-14 at n = 1024.
SPECTRAL_RADIUS_MAX = 1.0 + 1.0e-9


def row_key(row: dict) -> str:
    return "|".join((row["block"], row["kind"], row["name"]))


def read_report(path: Path) -> dict[str, dict]:
    """Report CSV rows keyed by block|kind|name, numbers parsed."""
    rows = {}
    with open(path, newline="") as fh:
        for raw in csv.DictReader(fh):
            rec = {f: (float(raw[f]) if raw[f] else None) for f in NUMERIC_FIELDS}
            rec["passed"] = raw["passed"]
            rows[row_key(raw)] = rec
    return rows


def solution_stats(path: Path) -> dict:
    """Per-time-node sums of the ``t,x,u`` lattice, in file order."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    t, u = data[:, 0], data[:, 2]
    starts = np.flatnonzero(np.r_[True, t[1:] != t[:-1]])
    return {
        "rows": int(u.size),
        "finite": bool(np.all(np.isfinite(data))),
        "times": t[starts].tolist(),
        "sum_x": float(np.sum(data[:, 1])),
        "l1": np.add.reduceat(np.abs(u), starts).tolist(),
        "l2sq": np.add.reduceat(u * u, starts).tolist(),
    }


def _close(value: float, ref: float, abs_tol: float = 0.0) -> bool:
    return abs(value - ref) <= RTOL * abs(ref) + abs_tol + ATOL


def _row_abs_tol(ref: dict) -> float:
    """Drift allowance from the row's own scale: a share of its tolerance
    (or target), so round-off-sized values are not compared digit by digit."""
    return ROW_SCALE_TOL * max(abs(ref["tolerance"] or 0.0), abs(ref["target"] or 0.0))


def check_report(name: str, rows: dict[str, dict], snap: dict[str, dict]) -> list[str]:
    """Reasons the rows of report ``name`` fail against its snapshot."""
    reasons = []
    missing = sorted(set(snap) - set(rows))
    extra = sorted(set(rows) - set(snap))
    if missing or extra:
        reasons.append(f"{name}: row set drifted (missing {missing[:3]}, "
                       f"extra {extra[:3]})")
    for key, rec in rows.items():
        for f in NUMERIC_FIELDS:
            v = rec[f]
            if v is not None and not math.isfinite(v):
                reasons.append(f"{name}: {key} {f} is not finite ({v})")
        ref = snap.get(key)
        if ref is None or key.startswith("meta|"):
            continue
        if rec["passed"] != ref["passed"]:
            reasons.append(f"{name}: {key} passed={rec['passed']!r}, "
                           f"snapshot {ref['passed']!r}")
        if ref.get("seeded"):
            continue
        for f in NUMERIC_FIELDS:
            v, r = rec[f], ref[f]
            if (v is None) != (r is None) or (
                    v is not None and not _close(v, r, _row_abs_tol(ref))):
                reasons.append(f"{name}: {key} {f}={v!r}, snapshot {r!r}")
    return reasons


def check_picard(rows: dict[str, dict]) -> list[str]:
    conv = rows.get("picard|check|converged")
    res = rows.get("picard|bound|fixed-point-residual")
    reasons = []
    if conv is None or conv["value"] != 1.0:
        reasons.append("picard did not converge")
    if res is None or res["value"] is None or not res["value"] <= PICARD_RESIDUAL_MAX:
        reasons.append(f"picard fixed-point residual "
                       f"{None if res is None else res['value']} above "
                       f"{PICARD_RESIDUAL_MAX}")
    return reasons


def check_mol(runs: dict[str, dict], snap: dict[str, dict]) -> list[str]:
    reasons = []
    if sorted(runs) != sorted(snap):
        reasons.append(f"mol runs {sorted(runs)}, snapshot {sorted(snap)}")
    for n, run in runs.items():
        if not run["finite"]:
            reasons.append(f"mol[{n}] produced non-finite values")
        if not run["spectral_radius"] <= SPECTRAL_RADIUS_MAX:
            reasons.append(f"mol[{n}] spectral radius {run['spectral_radius']} "
                           f"above {SPECTRAL_RADIUS_MAX}")
        ref = snap.get(n)
        if ref is None:
            continue
        if run["n_steps"] != ref["n_steps"]:
            reasons.append(f"mol[{n}] n_steps {run['n_steps']}, snapshot {ref['n_steps']}")
        for f in ("spectral_radius", "l2_drift", "l2_end"):
            if not _close(run[f], ref[f]):
                reasons.append(f"mol[{n}] {f}={run[f]!r}, snapshot {ref[f]!r}")
    return reasons


def check_solution(stats: dict, ref: dict) -> list[str]:
    reasons = []
    if not stats["finite"]:
        reasons.append("solution.csv holds non-finite values")
    if stats["rows"] != ref["rows"] or len(stats["times"]) != len(ref["times"]):
        reasons.append(f"solution.csv has {stats['rows']} rows in "
                       f"{len(stats['times'])} time blocks, snapshot "
                       f"{ref['rows']} in {len(ref['times'])}")
        return reasons
    if not _close(stats["sum_x"], ref["sum_x"]):
        reasons.append(f"solution.csv x grid drifted: sum {stats['sum_x']!r}, "
                       f"snapshot {ref['sum_x']!r}")
    for f in ("times", "l1", "l2sq"):
        floor = RTOL * max(abs(v) for v in ref[f])
        for k, (v, r) in enumerate(zip(stats[f], ref[f])):
            if not _close(v, r, floor):
                reasons.append(f"solution.csv {f}[{k}]={v!r}, snapshot {r!r}")
                break
    return reasons


def check_unit(result, snapshot: dict) -> list[str]:
    """Every reason the unit fails the gate; empty when it passes.

    ``result`` is a ``workloads.UnitResult`` and ``snapshot`` the workload's
    entry of ``snapshot.json``.
    """
    if result.error is not None:
        return [f"raised: {result.error}"]
    reasons = [f"{cmd} exited with code 2"
               for cmd, code in result.exit_codes.items() if code == 2]
    reports = snapshot.get("reports", {})
    for name, snap_rows in reports.items():
        path = result.files.get(name)
        if path is None:
            reasons.append(f"{name}.csv was not written")
            continue
        rows = read_report(path)
        reasons += check_report(name, rows, snap_rows)
        if name == "solve":
            reasons += check_picard(rows)
    if "solution" in snapshot:
        path = result.files.get("solution")
        if path is None:
            reasons.append("solution.csv was not written")
        else:
            reasons += check_solution(solution_stats(path), snapshot["solution"])
    if "mol" in snapshot:
        reasons += check_mol(result.mol, snapshot["mol"])
    return reasons


def check_identical(digests: list[dict[str, str]]) -> dict[int, list[str]]:
    """Per unit index, the outputs that differ from unit 0's byte for byte."""
    out = {}
    for i, d in enumerate(digests[1:], start=1):
        diff = [f"{name} differs from unit 0's"
                for name in sorted(set(d) | set(digests[0]))
                if d.get(name) != digests[0].get(name)]
        if diff:
            out[i] = diff
    return out
