"""Run one wigscale benchmark workload and print its metrics as JSON.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from a source checkout: it imports wigscale from ./src and refuses to
run without it. Each workload is a closed loop with one client. Whole rounds
of the seed's inputs are repeated until S seconds have passed, and every
output is checked (bench/workloads.py). The last line of stdout is
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. Spans of a traced run are
written to .benchrun/trace-NAME-seedN.json.
"""

import argparse
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".benchrun")

#: fresh interpreters that repeat the set-up, half before and half after the timed loop, so
#: that they sample the machine's speed, which drifts over tens of seconds, at different times;
#: with the run's own set-up, setup_s is a median of five
SETUP_PROBES = 4
#: fresh interpreters that time `import wigscale.cli` in a traced in-process run
IMPORT_PROBES = 3

WORKLOAD_NAMES = ("cli-cold", "pipeline-1024", "sweep-256", "scan-batch")

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every metric a traced run reports."""
    from bench import tracing

    units = {"cli.import_ms": "ms", "cli.import_modules": "count"}
    for name in tracing.LAYERS:
        units[f"{name}_ms"] = "ms"
        units[f"{name}_calls"] = "count"
        if name in tracing.PEAK_TRACED:
            units[f"{name}_peak_mb"] = "MB"
    units.update({"trace.ops_per_s": "1/s", "trace.untraced_ops_per_s": "1/s", "trace.overhead_pct": "%"})
    return units


def setup(name: str, seed: int, workdir: str):
    """Import wigscale and build the workload's inputs; returns (workload, seconds taken)."""
    start = time.perf_counter()
    import wigscale.cli  # noqa: F401  (cli-cold resolves its entry point here)
    from bench import workloads

    if not os.path.abspath(wigscale.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported wigscale from {wigscale.__file__}, not from {SRC}")
    workload = workloads.WORKLOADS[name](seed, workdir)
    return workload, time.perf_counter() - start


def _child_json(argv) -> dict:
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"{argv[1:]} exited {done.returncode}: {done.stderr[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


class Stats:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies = []  # seconds of each operation that passed its check
        self.busy = 0.0  # seconds spent inside operations, failed ones included

    @property
    def ops_per_s(self) -> float:
        return (self.attempted - self.failed) / self.busy


def measure(workload, seconds: float, tracer=None, stats=None) -> Stats:
    """Repeat whole rounds of the workload's inputs until `seconds` have passed.

    At least one round runs; `stats`, if given, is added to and returned.
    """
    stats = stats if stats is not None else Stats()
    start = time.perf_counter()
    while True:
        for inp in workload.inputs:
            if tracer is not None:
                tracer.op = stats.attempted
            t0 = time.perf_counter()
            try:
                out = workload.run(inp)
                problem = None
            except Exception:  # a raising operation counts as failed; the run goes on
                problem = traceback.format_exc()
            elapsed = time.perf_counter() - t0
            if problem is None:
                problem = workload.check(inp, out)
            stats.attempted += 1
            stats.busy += elapsed
            if problem is None:
                stats.latencies.append(elapsed)
            else:
                stats.failed += 1
                print(f"{workload.name} operation {stats.attempted} failed: {problem}", file=sys.stderr)
        if time.perf_counter() - start >= seconds:
            return stats


def peak_rss_mb(workload) -> float:
    kb = workload.maxrss_kb if not workload.in_process else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024.0


def end_to_end(workload, seconds, own_setup, probe) -> tuple[Stats, dict]:
    """The timed loop; the set-up probes (command `probe`) run half before and half after it."""
    setups = [own_setup] + [_child_json(probe)["setup_s"] for _ in range(SETUP_PROBES // 2)]
    stats = measure(workload, seconds)
    setups += [_child_json(probe)["setup_s"] for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    return stats, {
        "setup_s": statistics.median(setups),
        "ops_per_s": stats.ops_per_s,
        "latency_p50_ms": 1e3 * statistics.median(stats.latencies or [stats.busy / stats.attempted]),
        "peak_rss_mb": peak_rss_mb(workload),
    }


def per_layer(workload, seconds, trace_path) -> tuple[Stats, dict]:
    """Untraced and traced rounds in turn; layer figures come from the traced ones.

    The traced rounds' loss of ops_per_s against the untraced ones is the
    tracing overhead. An in-process workload first runs one round that is not
    counted, so neither side pays for first-touch memory; the pairs then
    alternate which side goes first, so drift of the machine cancels.
    """
    from bench import tracing

    untraced, traced, tracer = Stats(), Stats(), tracing.Tracer()

    def traced_round():
        if workload.in_process:
            uninstall = tracing.install(tracer)
        else:
            workload.tracer = tracer
        try:
            measure(workload, 0.0, tracer, traced)
        finally:
            if workload.in_process:
                uninstall()
            workload.tracer = None

    def untraced_round():
        measure(workload, 0.0, stats=untraced)

    warmup = measure(workload, 0.0) if workload.in_process else Stats()
    start = time.perf_counter()
    for pair in itertools.count():
        for run_round in (untraced_round, traced_round)[:: 1 if pair % 2 else -1]:
            run_round()
        if time.perf_counter() - start >= seconds:
            break
    metrics = tracing.layer_metrics(tracer.spans, traced.attempted, tracing.LAYERS)
    if workload.in_process:
        child = os.path.join(ROOT, "bench", "cli_child.py")
        imports = [_child_json([sys.executable, child, "--import-only"]) for _ in range(IMPORT_PROBES)]
    else:
        imports = workload.import_figures
    metrics["cli.import_ms"] = 1e3 * statistics.median(f["import_s"] for f in imports)
    metrics["cli.import_modules"] = statistics.median(f["import_modules"] for f in imports)
    metrics["trace.ops_per_s"] = traced.ops_per_s
    metrics["trace.untraced_ops_per_s"] = untraced.ops_per_s
    metrics["trace.overhead_pct"] = 100.0 * (untraced.ops_per_s - traced.ops_per_s) / untraced.ops_per_s
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump({"ops": traced.attempted, "fields": tracing.SPAN_FIELDS, "spans": tracer.spans},
                  handle, separators=(",", ":"))
    both = Stats()
    both.attempted = warmup.attempted + untraced.attempted + traced.attempted
    both.failed = warmup.failed + untraced.failed + traced.failed
    return both, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "wigscale", "__init__.py")):
        print(f"error: no wigscale sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        workload, own_setup = setup(args.workload, args.seed, workdir)
        if args.setup_probe:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        if args.trace:
            trace_path = os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.json")
            stats, values = per_layer(workload, args.seconds, trace_path)
            units = per_layer_units()
        else:
            probe = [sys.executable, os.path.abspath(__file__), "--setup-probe",
                     "--workload", args.workload, "--seed", str(args.seed)]
            stats, values = end_to_end(workload, args.seconds, own_setup, probe)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": stats.failed == 0, "attempted": stats.attempted,
                      "failed": stats.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
