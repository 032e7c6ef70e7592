"""Span recorder for the traced benchmark run.

A span is (name, start, end, parent).  The recorder wraps callables so that
each call opens a span on entry and closes it on exit; spans stay in memory
and are summarised (self time, call count) when the run ends.  A span's self
time is its duration minus the durations of its direct children, so the self
times of every span under one root add up to the root's duration.

``Instrumentation`` installs the wrappers on the solver's public entry
points from outside the package: it replaces class attributes for methods and
rebinds every module-level name that refers to a shared function, because
helpers such as ``laplace_matrix`` and ``fresnel_weights`` are imported by
name into several modules and a wrapper installed in one module only would
miss the calls made through the others.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into Tracer.spans, -1 for a root


class Tracer:
    """In-memory span recorder with per-name counters and repeat tracking."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._seen: dict[str, set] = defaultdict(set)

    # -- recording -----------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out of order")

    def wrap(self, fn: Callable, name: str,
             on_return: Callable | None = None) -> Callable:
        """``fn`` recorded as span ``name``; ``on_return(tracer, args,
        kwargs, result)`` runs after the span closes, outside its time."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result
        return traced

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] += amount

    def note_key(self, name: str, key) -> None:
        """Count a call of ``name`` with hashed arguments ``key``; a key seen
        before in this trace counts as a repeat."""
        self.counters[f"{name}.calls"] += 1
        seen = self._seen[name]
        if key in seen:
            self.counters[f"{name}.repeats"] += 1
        else:
            seen.add(key)

    def repeat_share(self, name: str) -> float:
        calls = self.counters.get(f"{name}.calls", 0.0)
        return self.counters.get(f"{name}.repeats", 0.0) / calls if calls else 0.0

    # -- summaries -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent >= 0:
                child[sp.parent] += sp.end - sp.start
        out: dict[str, float] = defaultdict(float)
        for sp, c in zip(self.spans, child):
            out[sp.name] += (sp.end - sp.start) - c
        return dict(out)

    def call_counts(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for sp in self.spans:
            out[sp.name] += 1
        return dict(out)

    def to_records(self) -> dict:
        """Spans as compact parallel lists, for writing out at the end."""
        names = sorted({sp.name for sp in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0].start if self.spans else 0.0
        return {
            "names": names,
            "name": [ids[sp.name] for sp in self.spans],
            "start": [round(sp.start - t0, 7) for sp in self.spans],
            "end": [round(sp.end - t0, 7) for sp in self.spans],
            "parent": [sp.parent for sp in self.spans],
        }


def span_cost(calls: int = 20000) -> float:
    """Seconds one wrapped call adds over a plain call (open + close)."""
    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer.wrap(noop, "calibration")
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        plain = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        traced = time.perf_counter() - t0
        best = min(best, (traced - plain) / calls)
        tracer.spans.clear()
    return max(best, 0.0)


# ---------------------------------------------------------------------------
# instrumentation of the solver package


def _array_key(*arrays) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.ascontiguousarray(np.asarray(a))
        h.update(str((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.digest()


def _rebind_everywhere(package: str, original: Callable, replacement: Callable) -> int:
    """Point every ``<package>.*`` module attribute that is ``original`` at
    ``replacement``; returns how many names were rebound."""
    n = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, replacement)
                n += 1
    return n


def _laplace_key(tr: Tracer, args, kwargs) -> None:
    tr.note_key("halfline.laplace_matrix", _array_key(*args[:2]))


def _fresnel_key(tr: Tracer, args, kwargs) -> None:
    tr.note_key("green.fresnel_weights", (_array_key(args[0]), float(args[1])))


def _direction_key(tr: Tracer, args, kwargs) -> None:
    sym, s_hat = args[0], complex(args[1])
    s_hat /= abs(s_hat)
    tr.note_key("symbols.direction", (sym.resolution_tag, round(s_hat.real, 12),
                                      round(s_hat.imag, 12)))


def _picard_done(tr: Tracer, args, kwargs, sol) -> None:
    tr.count("solver.picard_iters", sol.n_iter)


def _mol_done(tr: Tracer, args, kwargs, res) -> None:
    tr.count("mol.steps", res.meta["n_steps"])


def _report_done(tr: Tracer, args, kwargs, path) -> None:
    files = [path] + [path.parent / f"{name}.csv" for name in args[0].extras]
    tr.count("report.write_bytes", sum(f.stat().st_size for f in files))


def _allocation_peak_mb(fn: Callable[[], object]) -> float:
    """Largest tracemalloc allocation peak of ``fn()`` above its entry level."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / 2.0**20
    finally:
        if started:
            tracemalloc.stop()


#: (module, attribute, span name, hooks).  A dotted attribute is a method,
#: replaced on its class; a plain one is a function, rebound in every module
#: that imported it.  Hooks: ``on_call(tracer, args, kwargs)`` runs before
#: the span opens, ``on_return(tracer, args, kwargs, result)`` after it
#: closes; ``peak`` (constructors only) keeps the arguments of the first call
#: so that ``Instrumentation.measure_peaks`` can repeat it under tracemalloc
#: after the unit, where the tracing cost does not distort the spans.
LAYERS = (
    # symbols, with the contour quadrature they drive
    ("symbols", "Symbols.direction", "symbols.direction", {"on_call": _direction_key}),
    ("symbols", "DirectionCache.__init__", "symbols.direction_cache", {}),
    ("symbols", "Symbols.gamma_tilde", "symbols.gamma_tilde", {}),
    # green
    ("green", "EMinusLattice.__init__", "green.lattice", {}),
    ("green", "GreenOperator.free", "green.free", {}),
    ("green", "GreenOperator.correction", "green.correction", {}),
    ("green", "fresnel_weights", "green.fresnel_weights", {"on_call": _fresnel_key}),
    # halfline
    ("halfline", "laplace_matrix", "halfline.laplace_matrix", {"on_call": _laplace_key}),
    # boundary
    ("boundary", "BoundaryKernel.__init__", "boundary.kernel_build", {}),
    ("boundary", "BoundaryKernel.apply_convolution", "boundary.apply_convolution", {}),
    ("boundary", "BoundaryKernel.kernel", "boundary.kernel", {}),
    # solver
    ("solver", "picard_solve", "solver.picard_solve", {"on_return": _picard_done}),
    ("solver", "cross_validate", "solver.cross_validate", {}),
    ("solver", "DuhamelPropagator.__init__", "solver.propagator_build", {"peak": True}),
    ("solver", "DuhamelPropagator.transform_forcing", "solver.transform_forcing", {}),
    ("solver", "DuhamelPropagator.accumulate", "solver.accumulate", {}),
    # mol
    ("mol", "MethodOfLines._build_operators", "mol.build", {}),
    ("mol", "MethodOfLines.run", "mol.run", {"on_return": _mol_done}),
    ("mol", "MethodOfLines.stability_certificate", "mol.certificate", {}),
    # report
    ("report", "_solution_table", "report.render", {}),
    ("report", "RunReport.write", "report.write", {"on_return": _report_done}),
)


class Instrumentation:
    """Installs the ``LAYERS`` span wrappers on ``bo_halfline`` and removes
    them again.

    Argument hashes give repeat shares: ``halfline.laplace_matrix`` and
    ``green.fresnel_weights`` hash their array arguments (the property a
    memoising cache would rely on), ``symbols.direction`` hashes (symbol
    resolution, unit direction).  A layer whose attribute no longer exists is
    listed in ``missing`` and reads zero, so a refactor of the program does
    not stop the benchmark.
    """

    def __init__(self, tracer: Tracer, package: str = "bo_halfline"):
        self.tracer = tracer
        self.package = package
        self.missing: list[str] = []
        self._undo: list[Callable[[], None]] = []
        self._replays: dict[str, Callable[[], object]] = {}

    def _traced(self, original: Callable, name: str, hooks: dict) -> Callable:
        tracer = self.tracer
        traced = tracer.wrap(original, name, hooks.get("on_return"))
        on_call = self._capture(original, name) if hooks.get("peak") \
            else hooks.get("on_call")
        if on_call is None:
            return traced
        inner = traced

        @functools.wraps(original)
        def keyed(*args, **kwargs):
            on_call(tracer, args, kwargs)
            return inner(*args, **kwargs)
        return keyed

    def _capture(self, init: Callable, name: str) -> Callable:
        """on_call hook keeping a replay of the first ``init(self, ...)``."""
        def capture(tr, args, kwargs):
            if name not in self._replays:
                cls, rest = type(args[0]), args[1:]
                self._replays[name] = lambda: init(object.__new__(cls), *rest, **kwargs)
        return capture

    def measure_peaks(self) -> None:
        """Repeat the first call of each ``peak`` layer under tracemalloc;
        its allocation peak goes to counter ``<name>_peak_mb``.  Call after
        ``remove()``, so the repeat records no spans."""
        for name, replay in self._replays.items():
            self.tracer.counters[f"{name}_peak_mb"] = _allocation_peak_mb(replay)

    def install(self) -> "Instrumentation":
        for mod_name, attr, name, hooks in LAYERS:
            try:
                owner = importlib.import_module(f"{self.package}.{mod_name}")
                *cls_path, leaf = attr.split(".")
                for part in cls_path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf] if cls_path else getattr(owner, leaf)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(name)
                continue
            traced = self._traced(original, name, hooks)
            if cls_path:
                setattr(owner, leaf, traced)
                self._undo.append(functools.partial(setattr, owner, leaf, original))
            else:
                _rebind_everywhere(self.package, original, traced)
                self._undo.append(functools.partial(
                    _rebind_everywhere, self.package, traced, original))
        return self

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "Instrumentation":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()
