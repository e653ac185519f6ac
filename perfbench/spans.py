"""In-memory spans around the package's public functions.

A Tracer replaces module attributes (the names the program looks up at call
time) with wrappers that record one span per call: name, start, end, parent
span and the op it belongs to, plus counts read off the return value.
Nothing under the package is edited; uninstall() puts the originals back.
"""

import importlib
import statistics
import time
from collections import Counter, defaultdict

# (module, attribute, span name). The program binds quantization_value into
# anharmonic.solver at import, so both bindings are wrapped; the Wronskians of
# the three solvable wells share one layer name.
TARGETS = (
    ("anharmonic.core", "quantization_value", "core.quantization_value"),
    ("anharmonic.solver", "quantization_value", "core.quantization_value"),
    ("anharmonic.solver", "scan_brackets", "solver.scan_brackets"),
    ("anharmonic.solver", "refine_root", "solver.refine_root"),
    ("anharmonic.solver", "default_window", "solver.default_window"),
    ("anharmonic.numerov", "oracle_eigenvalue", "numerov.oracle_eigenvalue"),
    ("anharmonic.numerov", "richardson_eigenvalue", "numerov.richardson_eigenvalue"),
    ("anharmonic.models", "pt_wronskian", "models.wronskian"),
    ("anharmonic.models", "mpt_wronskian", "models.wronskian"),
    ("anharmonic.models", "morse_quantization", "models.wronskian"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "counts")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent  # index into Tracer.spans, or None
        self.op = op
        self.counts = {}

    def as_dict(self):
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
            "counts": self.counts,
        }


def _count_calls(fn, counts, key):
    def counted(*args, **kwargs):
        counts[key] = counts.get(key, 0) + 1
        return fn(*args, **kwargs)

    return counted


def _record_quantization(span, ev):
    span.counts["terms"] = sum(ev.terms_used)
    span.counts["escalations"] = ev.n_escalations


def _record_scan(span, brackets):
    span.counts["skipped"] = len(brackets.skipped)
    span.counts["brackets"] = len(brackets)


def _record_scan_error(span, err):
    # ScanUnreliableError carries how many grid points failed
    span.counts["skipped"] = getattr(err, "failed", 0)


# counts each layer's span reads off its call
_HOOKS = {
    "core.quantization_value": {"record": _record_quantization},
    "solver.scan_brackets": {"record": _record_scan, "record_error": _record_scan_error,
                             "count_arg": "points"},
    "solver.refine_root": {"count_arg": "evals"},
}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.op = None  # id shared by every span of the current op
        self._stack = []
        self._saved = []

    def start(self, name):
        span = Span(name, self.clock(), self._stack[-1] if self._stack else None, self.op)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return span

    def finish(self, span, error=None):
        span.end = self.clock()
        self._stack.pop()
        if error is not None:
            span.counts["error"] = type(error).__name__

    def call(self, name, fn, *args, record=None, record_error=None, count_arg=None, **kwargs):
        """Run fn inside a span. record / record_error read counts off the
        result / the exception; count_arg names the counter that tallies
        calls of fn's first argument (the function a scan or refine drives)."""
        span = self.start(name)
        if count_arg is not None:
            args = (_count_calls(args[0], span.counts, count_arg),) + args[1:]
        try:
            out = fn(*args, **kwargs)
        except BaseException as err:
            self.finish(span, err)
            if record_error is not None:
                record_error(span, err)
            raise
        self.finish(span)
        if record is not None:
            record(span, out)
        return out

    def wrap(self, name, fn):
        hooks = _HOOKS.get(name, {})

        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **hooks, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        wrapped = {}
        for mod_name, attr, name in TARGETS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            if fn not in wrapped:
                wrapped[fn] = self.wrap(name, fn)
            setattr(mod, attr, wrapped[fn])

    def uninstall(self):
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)


def self_times(spans):
    """Per span: duration minus the part of [start, end] its children cover.

    spans is a sequence of dicts with start, end and parent (an index into
    the same sequence, or None).
    """
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = []
    for i, s in enumerate(spans):
        lo, hi = s["start"], s["end"]
        covered = 0.0
        cur_lo = cur_hi = None
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, lo), min(b, hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((hi - lo) - covered)
    return out


def layer_metrics(spans):
    """Per-layer counts and self times from span dicts; {name: (value, unit)}."""
    selfs = self_times(spans)
    calls, self_s, errors = Counter(), Counter(), Counter()
    counts = Counter()
    qv_ms = []
    not_converged = 0
    for s, own in zip(spans, selfs):
        name, dur = s["name"], s["end"] - s["start"]
        calls[name] += 1
        self_s[name] += own
        for k in ("terms", "escalations", "points", "skipped", "brackets", "evals"):
            counts[k] += s["counts"].get(k, 0)
        err = s["counts"].get("error")
        if err is not None:
            errors[name] += 1
        if name == "core.quantization_value":
            qv_ms.append(dur * 1e3)
            not_converged += err == "NotConvergedError"
    qv = "core.quantization_value"
    qv_s = sum(qv_ms) / 1e3
    return {
        qv + ".calls": (calls[qv], "count"),
        qv + ".errors": (errors[qv], "count"),
        qv + ".self_s": (self_s[qv], "s"),
        qv + ".ms_p50": (statistics.median(qv_ms) if qv_ms else 0.0, "ms"),
        "core.terms": (counts["terms"], "count"),
        "core.terms_per_s": (counts["terms"] / qv_s if qv_s > 0 else 0.0, "1/s"),
        "core.escalations": (counts["escalations"], "count"),
        "core.not_converged": (not_converged, "count"),
        "solver.scan_brackets.calls": (calls["solver.scan_brackets"], "count"),
        "solver.scan_brackets.self_s": (self_s["solver.scan_brackets"], "s"),
        "solver.scan.points": (counts["points"], "count"),
        "solver.scan.skipped": (counts["skipped"], "count"),
        "solver.scan.brackets": (counts["brackets"], "count"),
        "solver.refine_root.calls": (calls["solver.refine_root"], "count"),
        "solver.refine_root.self_s": (self_s["solver.refine_root"], "s"),
        "solver.refine.evals": (counts["evals"], "count"),
        "solver.default_window.self_s": (self_s["solver.default_window"], "s"),
        "numerov.richardson_eigenvalue.calls": (calls["numerov.richardson_eigenvalue"], "count"),
        "numerov.richardson_eigenvalue.self_s": (self_s["numerov.richardson_eigenvalue"], "s"),
        "numerov.oracle_eigenvalue.calls": (calls["numerov.oracle_eigenvalue"], "count"),
        "numerov.oracle_eigenvalue.self_s": (self_s["numerov.oracle_eigenvalue"], "s"),
        "models.wronskian.calls": (calls["models.wronskian"], "count"),
        "models.wronskian.self_s": (self_s["models.wronskian"], "s"),
    }
