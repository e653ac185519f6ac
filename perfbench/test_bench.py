"""Self-tests of the benchmark: python3 -m pytest perfbench"""

import json
import math
import shutil
import sys
import time
from itertools import islice
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from reference import TABLE, check_quantization, quantization_mp  # noqa: E402
from spans import Tracer, layer_metrics, self_times  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generation_is_deterministic(name):
    wl = workloads.WORKLOADS[name]
    first = list(islice(wl.ops(7), 50))
    assert first == list(islice(wl.ops(7), 50))
    assert first != list(islice(wl.ops(8), 50))


def test_spectrum_probe_sweep_keep_large_N():
    for name in ("spectrum", "probe", "sweep"):
        ops = list(islice(workloads.WORKLOADS[name].ops(1), 200))
        assert any(op["N"] >= 8 for op in ops), name


def _span(name, start, end, parent, counts=None):
    return {"name": name, "start": start, "end": end, "parent": parent, "op": 0,
            "counts": counts or {}}


def test_self_time_on_synthetic_tree():
    spans = [
        _span("op", 0.0, 10.0, None),
        _span("a", 1.0, 4.0, 0),
        _span("b", 3.0, 6.0, 0),  # overlaps a: the union counts once
        _span("c", 8.0, 12.0, 0),  # sticks out of its parent: clipped
        _span("d", 2.0, 3.0, 1),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 4.0, 1.0])


def test_layer_metrics_from_counts():
    spans = [
        _span("op", 0.0, 1.0, None),
        _span("solver.scan_brackets", 0.0, 0.5, 0, {"points": 3, "skipped": 1, "brackets": 1}),
        _span("core.quantization_value", 0.0, 0.1, 1, {"terms": 40, "escalations": 1}),
        _span("core.quantization_value", 0.1, 0.2, 1, {"terms": 60, "escalations": 0}),
        _span("core.quantization_value", 0.2, 0.3, 1, {"error": "NotConvergedError"}),
    ]
    m = {k: v for k, (v, _) in layer_metrics(spans).items()}
    assert m["core.quantization_value.calls"] == 3
    assert m["core.quantization_value.errors"] == 1
    assert m["core.not_converged"] == 1
    assert m["core.terms"] == 100
    assert m["core.terms_per_s"] == pytest.approx(100 / 0.3)
    assert m["solver.scan_brackets.self_s"] == pytest.approx(0.2)
    assert (m["solver.scan.points"], m["solver.scan.skipped"], m["solver.scan.brackets"]) == (3, 1, 1)


def test_tracer_records_nesting_and_errors():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    def outer(f):
        return f(1) + f(2)

    assert tracer.call("outer", outer, lambda x: tracer.call("inner", inner, x)) == 3
    with pytest.raises(ValueError):
        tracer.call("inner", inner, -1)
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("outer", None), ("inner", 0), ("inner", 0), ("inner", None)]
    assert tracer.spans[-1].counts["error"] == "ValueError"


def test_failures_counted_by_type_from_injected_raising_call():
    def execute(op):
        if op % 3 == 0:
            raise TypeError("injected")
        if op % 3 == 1:
            raise workloads.CliFailure("ScanUnreliableError", "injected")
        return op

    ticks = iter(range(1000))
    res = run.closed_loop(iter(range(9)), execute, seconds=100, clock=lambda: float(next(ticks)))
    assert res.attempted == 9
    assert res.failures == {"TypeError": 3, "ScanUnreliableError": 3}
    assert [out for _, out in res.returned] == [2, 5, 8]


def test_loop_stops_at_deadline():
    clock = iter(range(1000))
    res = run.closed_loop(iter(range(100)), lambda op: op, seconds=5,
                          clock=lambda: float(next(clock)))
    assert 1 <= res.attempted <= 3


def test_cli_failure_kind_from_stderr():
    tb = "Traceback (most recent call last):\n  ...\nTypeError: Expected an int\n"
    assert workloads._failure_kind(1, tb) == "TypeError"
    assert workloads._failure_kind(1, "spectra: ScanUnreliableError: 3 of 4\n") == "ScanUnreliableError"
    assert workloads._failure_kind(1, "") == "ExitCode1"


def test_wrong_and_short_levels_are_failures():
    class Ref:
        def level(self, N, g, j):
            return TABLE[N][g][j]

    wl = workloads.WORKLOADS["spectrum"]
    op = {"N": 4, "g": 1.0, "count": 3}
    good = [(TABLE[4][1.0][j], j % 2, j // 2) for j in range(3)]
    assert wl.check(op, {"levels": good}, Ref()) is None
    assert wl.check(op, {"levels": good[:2]}, Ref())[0] == "Shortfall"
    off = [(good[0][0] + 2e-6,) + good[0][1:]] + good[1:]
    assert wl.check(op, {"levels": off}, Ref())[0] == "WrongValue"
    swapped = [(e, 1 - p, o) for e, p, o in good]
    assert wl.check(op, {"levels": swapped}, Ref())[0] == "WrongValue"


def test_quantization_check_catches_perturbed_value():
    from anharmonic.core import QuantizationEvaluation

    N, nu, g, E, n, terms = 4, 0, 1.0, 1.2, 13, 300
    value, scale = quantization_mp(N, nu, g, E, n, 2 * (terms + 32))

    def ev(v):
        return QuantizationEvaluation(v, E, n, (0.0,) * (N + 1), (terms,) * (N + 1), True,
                                      0.0, scale, True)

    assert check_quantization(N, nu, g, E, ev(value), resum=True) is None
    assert check_quantization(N, nu, g, E, ev(value + 1e-6 * scale), resum=True) is not None
    assert check_quantization(N, nu, g, E, ev(value + 1e-6 * scale), resum=False) is None
    assert check_quantization(N, nu, g, E, ev(math.nan), resum=False) is not None


class _Fake:
    name = "fake"
    setup_code = "pass"

    def ops(self, seed):
        yield from range(10**9)

    def execute(self, op):
        if op % 2:
            raise ZeroDivisionError
        time.sleep(0.001)
        return op

    def delivered(self, out):
        return 1

    def check(self, op, out, checker):
        return None if op % 4 == 0 else ("WrongValue", "injected")


def test_metric_names_match_benchmark_json(monkeypatch):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    out_dir = run.OUT_DIR / "selftest"
    monkeypatch.setattr(run, "OUT_DIR", out_dir)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    try:
        res, metrics = run.run_plain(_Fake(), 0, 0.05)
        assert res.failures["ZeroDivisionError"] > 0 and res.failures["WrongValue"] > 0
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
            k: u for k, (_, u) in metrics.items()}
        _, metrics = run.run_traced(_Fake(), 0, 0.05, {})
        assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
            k: u for k, (_, u) in metrics.items()}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
