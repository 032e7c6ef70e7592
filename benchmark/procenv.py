"""Paths and the environment of the benchmark's child processes.

Kept free of numpy so that a script can apply ``worker_env()`` to its own
environment before numpy (and with it the BLAS library) is first imported.
"""

from __future__ import annotations

import os
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def blas_threads() -> int:
    return max(1, min(2, len(os.sched_getaffinity(0))))


def worker_env() -> dict[str, str]:
    """Environment of the worker and set-up processes: the checkout's ``src``
    first on the import path, BLAS threads pinned."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p)
    n = str(blas_threads())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = n
    return env


