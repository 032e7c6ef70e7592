"""Span recorder: self times, rebinding of shared helpers, overhead bound.

    python3 -m pytest benchmark/tests
"""

import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from tracer import Instrumentation, Tracer, _rebind_everywhere, span_cost  # noqa: E402


def busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_times_sum_to_traced_wall_within_overhead():
    tracer = Tracer()

    def leaf():
        busy(0.002)

    leaf_t = tracer.wrap(leaf, "leaf")

    def middle():
        busy(0.003)
        for _ in range(4):
            leaf_t()

    middle_t = tracer.wrap(middle, "middle")

    def unit():
        busy(0.001)
        for _ in range(3):
            middle_t()

    unit_t = tracer.wrap(unit, "unit")
    t0 = time.perf_counter()
    unit_t()
    wall = time.perf_counter() - t0

    selfs = tracer.self_times()
    counts = tracer.call_counts()
    assert counts == {"unit": 1, "middle": 3, "leaf": 12}
    assert selfs["leaf"] >= 12 * 0.002
    assert selfs["middle"] >= 3 * 0.003
    assert selfs["unit"] >= 0.001
    overhead = span_cost() * len(tracer.spans)
    assert abs(sum(selfs.values()) - wall) <= overhead + 1.0e-4
    # the root span's self time is what no child covers
    assert selfs["unit"] < wall - selfs["leaf"] - selfs["middle"] + 1.0e-9


def test_spans_close_on_exception():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "boom")()
    assert tracer.spans[0].end >= tracer.spans[0].start
    assert tracer._stack == []


def test_repeat_share_counts_repeated_keys():
    tracer = Tracer()
    for key in ("a", "b", "a", "a"):
        tracer.note_key("f", key)
    assert tracer.repeat_share("f") == 0.5
    assert tracer.repeat_share("never-called") == 0.0


def test_rebind_reaches_every_module_binding():
    def helper():
        return 1

    pkg = types.ModuleType("fakepkg")
    mod_a = types.ModuleType("fakepkg.a")
    mod_b = types.ModuleType("fakepkg.b")
    pkg.helper = mod_a.helper = mod_b.helper = helper
    sys.modules.update({"fakepkg": pkg, "fakepkg.a": mod_a, "fakepkg.b": mod_b})
    try:
        def other():
            return 2

        assert _rebind_everywhere("fakepkg", helper, other) == 3
        assert mod_a.helper is other and mod_b.helper is other and pkg.helper is other
    finally:
        for name in ("fakepkg", "fakepkg.a", "fakepkg.b"):
            del sys.modules[name]


def test_instrumentation_wraps_shared_helpers_and_restores():
    from bo_halfline import boundary, green, halfline, solver

    original = halfline.laplace_matrix
    tracer = Tracer()
    with Instrumentation(tracer):
        for mod in (green, boundary, solver, halfline):
            assert mod.laplace_matrix is not original
        z = np.array([0.5, 1.0 + 1.0j])
        x = np.linspace(0.0, 1.0, 5)
        ref = original(z, x)
        np.testing.assert_array_equal(green.laplace_matrix(z, x), ref)
        np.testing.assert_array_equal(solver.laplace_matrix(z, x), ref)
        boundary.fresnel_weights(x + 0.1, 0.3)
    for mod in (green, boundary, solver, halfline):
        assert mod.laplace_matrix is original
    assert green.fresnel_weights is solver.fresnel_weights is boundary.fresnel_weights
    assert tracer.call_counts() == {"halfline.laplace_matrix": 2,
                                    "green.fresnel_weights": 1}
    assert tracer.repeat_share("halfline.laplace_matrix") == 0.5


def test_missing_layer_is_listed_not_fatal(monkeypatch):
    import tracer as tracer_module

    gone = ("green", "NoSuchOperator.apply", "green.gone", {})
    monkeypatch.setattr(tracer_module, "LAYERS", tracer_module.LAYERS + (gone,))
    instrumentation = Instrumentation(Tracer())
    with instrumentation:
        pass
    assert instrumentation.missing == ["green.gone"]


def test_peak_layer_is_replayed_outside_the_spans(monkeypatch):
    import tracer as tracer_module

    class Assembler:
        def __init__(self, mb):
            self.size = np.ones(mb * 2**17).size      # mb MiB of float64

    mod = types.ModuleType("fakebuild.core")
    mod.Assembler = Assembler
    pkg = types.ModuleType("fakebuild")
    monkeypatch.setitem(sys.modules, "fakebuild", pkg)
    monkeypatch.setitem(sys.modules, "fakebuild.core", mod)
    monkeypatch.setattr(tracer_module, "LAYERS",
                        (("core", "Assembler.__init__", "core.build", {"peak": True}),))
    original = Assembler.__init__
    tracer = Tracer()
    instrumentation = Instrumentation(tracer, package="fakebuild")
    with instrumentation:
        Assembler(8)
        Assembler(1)
    assert Assembler.__init__ is original
    instrumentation.measure_peaks()
    assert tracer.call_counts() == {"core.build": 2}
    assert 8.0 <= tracer.counters["core.build_peak_mb"] < 9.0
