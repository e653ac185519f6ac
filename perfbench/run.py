"""Benchmark for the anharmonic package.

Run from the repository root:

    python3 perfbench/run.py --workload spectrum --seed 1 --seconds 10 --trace 0

Workloads (see workloads.py): spectrum, probe, validate, sweep. Each is a
closed loop with one client that issues ops for --seconds, then checks every
delivered result against an independent reference. A failed op (any
exception, a wrong value, fewer levels than asked) counts in `failed`.

The last line of stdout is one JSON object {correct, attempted, failed,
metrics}. With --trace 0 the metrics are the end-to-end ones:

    setup_s      median over fresh interpreters of `import anharmonic` plus
                 the first call of the workload's entry point
    op_ms_p50    median and mean latency of an op, from issue until it
    op_ms_mean   returned a result or raised (failed ops included), scaled to
                 a reference host speed (see HostSpeed)
    peak_rss_mb  peak resident set of the processes doing the work

With --trace 1 every op runs twice, untraced and traced in alternating
order, and the metrics are per-layer counts and self times read from spans
recorded around the package's public functions (spans.py). The spans are
written to .bench_out/ at the end.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 7
# a traced sweep runs each CLI call three times; calls still running this
# long after the start are killed so the run ends inside its time limit
TRACE_BUDGET_S = 150.0


def percentile(values, q):
    """Linear-interpolated q-quantile (0 <= q <= 1) of a non-empty list."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def failure_kind(err):
    return getattr(err, "kind", type(err).__name__)


# The host this benchmark was tuned on (a 2-vCPU KVM guest on an Intel Xeon,
# CPU model 143) shares its cores: the same code runs up to 2x slower for
# seconds at a time, each cpu on its own schedule. Every
# latency is therefore scaled to a reference host speed by a probe measured
# just before and just after it (for ops shorter than CALIBRATE_EVERY_S,
# around the batch of ops since the last probe); see HostSpeed.
CALIBRATE_EVERY_S = 0.02
# latencies are stored in a buffer allocated up front, so that the memory
# the benchmark itself holds does not grow with the number of ops
LATENCY_SLOTS = 1 << 20

_KERNEL_DATA = [float(i) for i in range(64)]


def host_kernel_s():
    """Best of three timings of a fixed loop of the float and frexp/ldexp
    arithmetic the package's interpreted kernels are made of."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(3000):
            m, e = math.frexp(_KERNEL_DATA[i & 63] + 1.5)
            acc += math.ldexp(m, e - 3) * 0.5
        best = min(best, time.perf_counter() - t0)
    return best


def host_start_s():
    """Wall time of a fresh interpreter importing numpy, the package's one
    run-time dependency; children inherit the caller's cpu affinity."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=120)
    return time.perf_counter() - t0


class HostSpeed:
    """A probe timing fixed work on the host: scaled time = time x ref_s /
    probe time. ref_s is the probe's uncontended time on the tuning host,
    so scaled figures read as times there."""

    def __init__(self, probe, ref_s):
        self.probe = probe
        self.ref_s = ref_s

    def scale(self, probe_s):
        return self.ref_s / probe_s


# in-process ops, run on the same cpu as the kernel
KERNEL_SPEED = HostSpeed(host_kernel_s, 0.6e-3)
# whole interpreters: set-up and CLI calls
START_SPEED = HostSpeed(host_start_s, 0.12)


class LoopResult:
    """What one closed loop saw: latencies (host-speed scaled), failures by
    kind, and the ops that returned (kept for checking)."""

    def __init__(self):
        self._lat = array("d", [0.0]) * LATENCY_SLOTS
        self.attempted = 0
        self.raw_s = 0.0  # unscaled op time
        self.probe_s = []  # host speed probe measurements
        self.failures = Counter()
        self.returned = []  # (op, output)
        self.reasons = {}  # failure kind -> first reason found by a check
        self.good = 0  # correct results delivered (levels, evaluations, checks)

    def add(self, latencies, scale):
        for x in latencies:
            if self.attempted < LATENCY_SLOTS:
                self._lat[self.attempted] = x * scale
            else:
                self._lat.append(x * scale)
            self.attempted += 1
            self.raw_s += x

    @property
    def latencies(self):
        return self._lat[: self.attempted]


def closed_loop(ops, execute, seconds, clock=time.perf_counter, host=None):
    """Issue ops one after another until `seconds` have passed (the op in
    flight at the deadline completes). Every exception counts as a failure
    of that op, whatever its type. host, a HostSpeed, scales latencies."""
    res = LoopResult()
    end = clock() + seconds
    before = host.probe() if host else None
    last = clock()
    batch = []
    for op in ops:
        t0 = clock()
        try:
            res.returned.append((op, execute(op)))
        except Exception as err:  # noqa: BLE001 - the loop must outlive any op
            res.failures[failure_kind(err)] += 1
        t1 = clock()
        batch.append(t1 - t0)
        done = t1 >= end
        if done or t1 - last >= CALIBRATE_EVERY_S:
            if host:
                after = host.probe()
                res.probe_s.append(after)
                res.add(batch, host.scale(0.5 * (before + after)))
                before = after
            else:
                res.add(batch, 1.0)
            batch = []
            last = clock()
        if done:
            break
    return res


class Checker:
    """Per-run state of the correctness checks."""

    def __init__(self):
        from reference import LevelReference

        self.level = LevelReference()
        self.mp_checks = 0


def check_results(workload, res):
    """Count wrong or short results as failures, the rest as delivered."""
    checker = Checker()
    for op, out in res.returned:
        bad = workload.check(op, out, checker)
        if bad is None:
            res.good += workload.delivered(out)
        else:
            kind, reason = bad
            res.failures[kind] += 1
            res.reasons.setdefault(kind, reason)


def measure_setup(workload, cpu):
    """Wall time, scaled like op latencies, of fresh interpreters pinned to
    cpu, importing the package and making the workload's first call (which
    may fail: that still ends set-up)."""
    code = "try:\n" + "".join(
        "    " + ln + "\n" for ln in ("import anharmonic",) + tuple(workload.setup_code.splitlines())
    ) + "except Exception:\n    pass\n"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})  # inherited by the children
    try:
        before = START_SPEED.probe()
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                           stdout=subprocess.DEVNULL, timeout=120)
            wall = time.perf_counter() - t0
            after = START_SPEED.probe()
            times.append(wall * START_SPEED.scale(0.5 * (before + after)))
            before = after
    finally:
        os.sched_setaffinity(0, saved)
    return statistics.median(times)


def peak_rss_mb(with_children):
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def summarize(workload, res, wall):
    n, failed = res.attempted, sum(res.failures.values())
    print(f"{workload.name}: {n} ops attempted, {failed} failed (failed_frac {failed / n:.3f})"
          + "".join(f", {k}={v}" for k, v in sorted(res.failures.items())))
    for kind, reason in sorted(res.reasons.items()):
        print(f"  first {kind}: {reason}")
    print(f"{workload.name}: {res.good} correct results in {wall:.2f} s ({res.good / wall:.3f}/s)")


def run_plain(workload, seed, seconds):
    """Ops of in-process workloads run pinned to one cpu, so that the host
    speed measured on that cpu applies to them (the cpus of the tuning host
    slow down independently); CLI calls (sweep) may use every cpu and are
    scaled by the start-up probe."""
    cpus = sorted(os.sched_getaffinity(0))
    in_process = workload.name != "sweep"
    if in_process:
        os.sched_setaffinity(0, {cpus[0]})
    t0 = time.perf_counter()
    try:
        host = KERNEL_SPEED if in_process else START_SPEED
        res = closed_loop(workload.ops(seed), workload.execute, seconds, host=host)
    finally:
        os.sched_setaffinity(0, cpus)
    wall = time.perf_counter() - t0
    rss = peak_rss_mb(with_children=workload.name == "sweep")
    check_results(workload, res)
    summarize(workload, res, wall)
    lat_ms = [t * 1e3 for t in res.latencies]
    print(f"latency over {len(lat_ms)} ops: p90 {percentile(lat_ms, 0.9):.4g} ms, "
          f"unscaled mean {res.raw_s / res.attempted * 1e3:.4g} ms; "
          f"host probe median {statistics.median(res.probe_s) * 1e3:.4g} ms")
    metrics = {
        "setup_s": (measure_setup(workload, cpus[0]), "s"),
        "op_ms_p50": (percentile(lat_ms, 0.5), "ms"),
        "op_ms_mean": (statistics.fmean(lat_ms), "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    return res, metrics


def run_traced(workload, seed, seconds, env):
    """Each op runs untraced and traced, in alternating order; sweep ops also
    run once with a single worker for the parallel efficiency."""
    from spans import Tracer, layer_metrics

    sweep = workload.name == "sweep"
    tracer = Tracer()
    spans = []  # dicts from CLI workers (sweep)
    walls = {"plain": [], "traced": [], "serial": []}
    hard_end = time.perf_counter() + TRACE_BUDGET_S
    spans_dir = OUT_DIR / f"sweep-spans-{seed}"

    def timed(key, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            out, err = fn(*args, **kwargs), None
        except Exception as exc:  # noqa: BLE001 - reported through the loop
            out, err = None, exc
        walls[key].append(time.perf_counter() - t0)
        return out, err

    def traced(op, i):
        if sweep:
            spans_dir.mkdir(parents=True, exist_ok=True)
            out = timed("traced", workload.execute, op, wrapper=(BENCH / "cli_traced.py", spans_dir),
                        timeout=hard_end - time.perf_counter())
            for path in sorted(spans_dir.iterdir()):
                base = len(spans)
                for s in json.loads(path.read_text()):
                    s["op"] = i
                    s["parent"] = None if s["parent"] is None else s["parent"] + base
                    spans.append(s)
                path.unlink()
            return out
        tracer.install()
        tracer.op = i
        try:
            return timed("traced", tracer.call, "op", workload.execute, op)
        finally:
            tracer.uninstall()

    def plain(op, key="plain", **kwargs):
        if sweep:
            kwargs["timeout"] = hard_end - time.perf_counter()
        timed(key, workload.execute, op, **kwargs)

    counter = iter(range(1 << 62))

    def execute(op):
        i = next(counter)
        if i % 2:
            out, err = traced(op, i)
            plain(op)
        else:
            plain(op)
            out, err = traced(op, i)
        if sweep:
            plain(op, "serial", threads=1)
        if err is not None:
            raise err
        return out

    t0 = time.perf_counter()
    res = closed_loop(workload.ops(seed), execute, seconds)
    wall = time.perf_counter() - t0
    shutil.rmtree(spans_dir, ignore_errors=True)
    check_results(workload, res)
    summarize(workload, res, wall)
    spans.extend(s.as_dict() for s in tracer.spans)
    metrics = layer_metrics(spans)
    levels = res.good if workload.name in ("spectrum", "sweep") else 0
    evals = metrics["core.quantization_value.calls"][0]
    plain_s, traced_s = sum(walls["plain"]), sum(walls["traced"])
    serial_s = sum(walls["serial"])
    metrics.update({
        "solver.levels": (levels, "count"),
        # F evaluations per correct level; with no level delivered every
        # evaluation was wasted, so the base is floored at one level
        "solver.evals_per_level": (evals / max(levels, 1), "count"),
        "cli.sweep.serial_wall_s": (statistics.median(walls["serial"]) if sweep else 0.0, "s"),
        "cli.sweep.parallel_eff": (serial_s / (workload.THREADS * plain_s) if sweep else 0.0, "ratio"),
        "trace.overhead_frac": (traced_s / plain_s - 1.0, "ratio"),
    })
    layers = Counter()
    for name, (value, unit) in metrics.items():
        if name.endswith(".self_s") and value:
            layers[name.split(".")[0]] += value
    if traced_s > 0:
        print("self time (summed over processes) as a share of traced op wall time: " + ", ".join(
            f"{layer} {t / traced_s:.1%}" for layer, t in layers.most_common()))
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    dump = OUT_DIR / f"spans-{workload.name}-seed{seed}.json"
    dump.write_text(json.dumps({"env": env, "spans": spans}))
    print(f"{len(spans)} spans written to {dump}")
    return res, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "anharmonic" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {ROOT / 'src' / 'anharmonic'}")
    sys.path.insert(0, str(ROOT / "src"))
    import anharmonic
    import anharmonic._jit
    from workloads import WORKLOADS

    if Path(anharmonic.__file__).resolve().parent != (ROOT / "src" / "anharmonic").resolve():
        sys.exit(f"perfbench: imported anharmonic from {anharmonic.__file__}, not the checkout")
    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        sys.exit("perfbench: --seconds must be positive")
    workload = WORKLOADS[args.workload]
    env = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "have_numba": bool(anharmonic._jit.HAVE_NUMBA),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
    }
    print("env " + json.dumps(env, sort_keys=True))

    if args.trace:
        res, metrics = run_traced(workload, args.seed, args.seconds, env)
    else:
        res, metrics = run_plain(workload, args.seed, args.seconds)
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    result = {
        "correct": "WrongValue" not in res.failures,
        "attempted": res.attempted,
        "failed": sum(res.failures.values()),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
