"""Run one benchmark pass in a fresh process and write its result as JSON.

Started by run.py once per pass, so that peak RSS belongs to one pass of
one workload:

    python3 perfbench/worker.py WORKLOAD SEED RUN_ID TRACED WORKDIR OUT

An untraced pass times the workload's setup `setup_repeats` times; a
traced pass calls every layer once (workloads.probe_layers) and sets up
once, inside the trace.
"""

import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def main(argv):
    name, seed, run_id, traced, workdir, out = argv
    if traced == "1":
        tracer = tracing.Tracer(run_id)
        with tracing.instrument(tracer):
            with tracer.span("probe"):
                workloads.probe_layers(tracer, workdir)
            result = workloads.measure_pass(name, int(seed), tracer, 1, workdir)
        result["layers"] = tracing.layer_metrics(tracer)
        result["spans"] = tracer.spans
    else:
        repeats = workloads.WORKLOADS[name].setup_repeats
        result = workloads.measure_pass(name, int(seed), tracing.NullTracer(),
                                        repeats, workdir)
    # ru_maxrss is in KiB on Linux.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
