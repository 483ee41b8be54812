"""In-memory spans around calls into fmoheom's public functions.

`instrument(tracer)` replaces the public entry points of each module with
timing wrappers for the duration of a `with` block and restores them on
exit; nothing inside the package changes. Spans carry a name, start and
end (perf_counter seconds), the index of the parent span and the run id
of the pass. A layer's self time is its span's duration minus the time
covered by its direct children.

Bytes per RHS call are computed, not measured: the bytes of the state
array passed in plus the derivative array returned, i.e. the traffic the
call cannot avoid. Cache behaviour is not observed.
"""

import functools
from contextlib import contextmanager, nullcontext
from time import perf_counter

import fmoheom.analysis
import fmoheom.cli
import fmoheom.heom
import fmoheom.linalg
import fmoheom.measures


class Tracer:
    """Collects spans of one pass in memory."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name, **attrs):
        rec = {"name": name, "run": self.run_id,
               "parent": self._stack[-1] if self._stack else None, **attrs}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        rec["start"] = perf_counter()
        try:
            yield rec
        except BaseException:
            rec["error"] = True
            raise
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, attrs=None):
        """`fn` timed as a span; `attrs(args, result)` adds fields to it."""
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    rec.update(attrs(args, result))
                return result
        return timed

    def self_times(self):
        """Per-span self time, in the order of `self.spans`."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own


class NullTracer:
    """Stands in for a Tracer when a pass runs untraced."""

    def span(self, name, **attrs):
        return nullcontext({})


def _patch(obj, attr, new, saved):
    saved.append((obj, attr, getattr(obj, attr)))
    setattr(obj, attr, new)


@contextmanager
def instrument(tracer):
    """Wrap fmoheom's public entry points with spans of `tracer`."""
    prop_cls = fmoheom.heom.HEOMPropagator
    init = prop_cls.__init__

    def traced_init(self, *args, **kwargs):
        with tracer.span("heom.build"):
            init(self, *args, **kwargs)
        # The integrator reaches the RHS through this instance attribute
        # (`_rhs_flat` calls `self.rhs`), so every evaluation is a span.
        self.rhs = tracer.wrap(
            "heom.rhs", self.rhs,
            lambda args, out: {"bytes": args[1].nbytes + out.nbytes})

    saved = []
    try:
        _patch(prop_cls, "__init__", functools.wraps(init)(traced_init), saved)
        _patch(prop_cls, "run", tracer.wrap("heom.run", prop_cls.run), saved)
        _patch(fmoheom.heom, "enumerate_hierarchy",
               tracer.wrap("hierarchy.enumerate",
                           fmoheom.heom.enumerate_hierarchy,
                           lambda args, out: {"nodes": out.count}), saved)
        _patch(fmoheom.heom, "convergence_study",
               tracer.wrap("heom.convergence_study",
                           fmoheom.heom.convergence_study), saved)
        # convergence_study imports trace_distance from the module at call time.
        _patch(fmoheom.linalg, "trace_distance",
               tracer.wrap("linalg.trace_distance",
                           fmoheom.linalg.trace_distance), saved)
        _patch(fmoheom.measures, "pair_series",
               tracer.wrap("measures.pair_series", fmoheom.measures.pair_series,
                           lambda args, out: {"samples": out.times_fs.size}),
               saved)
        _patch(fmoheom.analysis, "detect_sudden_death",
               tracer.wrap("analysis.sudden_death",
                           fmoheom.analysis.detect_sudden_death), saved)
        _patch(fmoheom.cli, "load_run_config",
               tracer.wrap("config.load", fmoheom.cli.load_run_config), saved)
        _patch(fmoheom.cli, "write_csv",
               tracer.wrap("cli.write", fmoheom.cli.write_csv), saved)
        _patch(fmoheom.cli, "main", tracer.wrap("cli.main", fmoheom.cli.main),
               saved)
        yield tracer
    finally:
        for obj, attr, old in reversed(saved):
            setattr(obj, attr, old)


def layer_metrics(tracer):
    """Per-layer counts and self times of one traced pass."""
    own = tracer.self_times()
    total = {}
    calls = {}
    for s, t in zip(tracer.spans, own):
        total[s["name"]] = total.get(s["name"], 0.0) + t
        calls[s["name"]] = calls.get(s["name"], 0) + 1

    def spans(name):
        return [s for s in tracer.spans if s["name"] == name]

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    rhs_calls = calls.get("heom.rhs", 0)
    rhs_s = total.get("heom.rhs", 0.0)
    rhs_bytes = sum(s["bytes"] for s in spans("heom.rhs"))
    samples = sum(s["samples"] for s in spans("measures.pair_series"))
    return {
        "hierarchy.enumerate_s": total.get("hierarchy.enumerate", 0.0),
        "hierarchy.nodes": max((s["nodes"] for s in spans("hierarchy.enumerate")),
                               default=0),
        "heom.build_s": total.get("heom.build", 0.0),
        "heom.rhs_calls": rhs_calls,
        "heom.rhs_s": rhs_s,
        "heom.rhs_ms_per_call": per(rhs_s, rhs_calls, 1e3),
        "heom.rhs_bytes_per_call": per(rhs_bytes, rhs_calls),
        "heom.rhs_gb_per_s": per(rhs_bytes, rhs_s, 1e-9),
        "heom.integrator_s": total.get("heom.run", 0.0),
        "heom.runs": calls.get("heom.run", 0),
        "heom.run_failures": sum(1 for s in spans("heom.run") if s.get("error")),
        "measures.pair_series_s": total.get("measures.pair_series", 0.0),
        "measures.pair_samples": samples,
        "measures.us_per_pair_sample":
            per(total.get("measures.pair_series", 0.0), samples, 1e6),
        "measures.dual_route_s": total.get("measures.dual_route", 0.0),
        "measures.dual_route_calls": calls.get("measures.dual_route", 0),
        "analysis.sudden_death_s": total.get("analysis.sudden_death", 0.0),
        "analysis.sudden_death_calls": calls.get("analysis.sudden_death", 0),
        "linalg.trace_distance_s": total.get("linalg.trace_distance", 0.0),
        "linalg.trace_distance_calls": calls.get("linalg.trace_distance", 0),
        "config.load_s": total.get("config.load", 0.0),
        "cli.write_s": total.get("cli.write", 0.0),
    }
