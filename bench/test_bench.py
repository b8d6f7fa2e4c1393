"""Self-tests of the benchmark's own machinery.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from tracer import Span, Tracer, self_times, summarize  # noqa: E402
from workloads import build_ops, generic_draw, master_seed  # noqa: E402


def test_self_time_on_synthetic_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; b has child c [6, 8].
    spans = [Span(0, None, "root", 0.0, 10.0), Span(1, 0, "a", 1.0, 4.0),
             Span(2, 0, "b", 5.0, 9.0), Span(3, 2, "c", 6.0, 8.0)]
    assert self_times(spans) == {0: 3.0, 1: 3.0, 2: 2.0, 3: 2.0}
    rows = summarize(spans + [Span(4, 0, "a", 9.5, 10.0)])
    assert rows["a"]["calls"] == 2
    assert rows["a"]["total"] == pytest.approx(3.5)
    assert rows["root"]["self"] == pytest.approx(2.5)


def test_tracer_nests_spans_and_restores_hooks():
    import types
    mod = types.ModuleType("fake_layer")
    mod.outer = lambda: mod.inner() + 1
    mod.inner = lambda: time.sleep(0.01) or 1
    sys.modules["fake_layer"] = mod
    original = mod.inner
    try:
        tracer = Tracer(memory_spans=frozenset({"outer"}))
        tracer.install([("fake_layer", "outer", "outer", None),
                        ("fake_layer", "inner", "inner", None),
                        ("fake_layer", "gone", "gone", None)])
        assert mod.outer() == 2
        tracer.uninstall()
    finally:
        del sys.modules["fake_layer"]
    assert mod.inner is original
    assert tracer.missing == ["fake_layer.gone"]
    outer, inner = tracer.spans
    assert inner.parent == outer.id and outer.parent is None
    assert outer.duration >= inner.duration >= 0.01
    assert outer.peak is not None and inner.peak is not None


def test_memory_peaks_nest_and_pause():
    import tracemalloc
    tracer = Tracer(frozenset({"outer"}), frozenset({"quiet"}))
    with tracer.span("outer"):
        held = np.ones(1_000_000)                 # 8 MB kept through the span
        with tracer.span("quiet"):
            np.ones(10)
        with tracer.span("inner"):
            np.ones(2_000_000).sum()              # 16 MB transient
    assert not tracemalloc.is_tracing()
    outer, quiet, inner = tracer.spans
    assert quiet.peak is None
    assert 16e6 <= inner.peak < 17e6
    assert 24e6 <= outer.peak < 25e6
    del held


def test_frequency_band_rejects_shifted_distribution():
    p = np.array([0.1, 0.2, 0.3, 0.4])
    n = 20_000
    counts = np.random.default_rng(0).multinomial(n, p)
    assert np.all(np.abs(counts / n - p) <= checks.frequency_band(p, n))
    shifted = np.random.default_rng(0).multinomial(n, [0.12, 0.2, 0.3, 0.38])
    assert np.any(np.abs(shifted / n - p) > checks.frequency_band(p, n))
    # A state of probability zero visited once is inside the band.
    assert 1.0 / n <= checks.frequency_band(np.array([0.0]), n)[0]


def test_kernel_thresholds_fail_only_where_required():
    from types import SimpleNamespace
    from modaldyn.scenario import Thresholds

    def result(cross_check, honesty):
        report = SimpleNamespace(kernel_cross_check=cross_check, honesty_deficit_max=honesty,
                                 deterministic=False)
        return SimpleNamespace(report=report, stats=None, paths=[],
                               scenario=SimpleNamespace(thresholds=Thresholds()))

    over = result(2e-5, -4e-6)
    assert checks.kernel_over_threshold(over) == ["kernel_series_vs_ode", "kernel_honesty"]
    assert checks.result_failures(over, False, True) == ["kernel_series_vs_ode",
                                                         "kernel_honesty"]
    assert checks.result_failures(over, False, False) == []
    assert checks.result_failures(result(1e-6, 1e-7), False, True) == []
    assert checks.result_failures(result(None, None), False, True) == []
    assert [op.kernel_thresholds for op in build_ops("export-mixed", 1)] == [True, False,
                                                                        False, False]


def test_same_seed_gives_identical_draws():
    h1, psi1 = generic_draw(7, 0, 16)
    h2, psi2 = generic_draw(7, 0, 16)
    assert h1.tobytes() == h2.tobytes() and psi1.tobytes() == psi2.tobytes()
    h3, _ = generic_draw(8, 0, 16)
    assert h1.tobytes() != h3.tobytes()
    assert np.allclose(h1, h1.conj().T) and np.isclose(np.linalg.norm(psi1), 1.0)
    assert master_seed(7, "singlet") == master_seed(7, "singlet") != master_seed(8, "singlet")


def test_workloads_derive_everything_from_the_seed():
    first = {op.label: op.scenario for op in build_ops("export-mixed", 3)}
    again = {op.label: op.scenario for op in build_ops("generic16-report", 3)}
    assert first["generic16-0"].hamiltonian.tobytes() == \
        again["generic16-0"].hamiltonian.tobytes()
    assert first["generic16-0"].ensemble == again["generic16-0"].ensemble


def test_benchmark_json_matches_emitted_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers.UNITS
