"""Benchmark of the kinfront command line, end to end and per layer.

    python3 perfbench/run.py --workload front-sim --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout with no install: it puts `src` on the
import path and calls `kinfront.cli.main` in-process, with `--out` files
under `.perfbench/` in the checkout. A round is a fixed list of
subcommand calls (see workloads.py); the run repeats whole rounds until
`--seconds` have passed. Each call is one operation; it fails on a
non-zero exit or a failed output check.

--trace 0 prints the end-to-end metrics: results per second of CLI wall
time (median over rounds), peak resident memory, and the set-up time
(median of fresh processes that import kinfront, build the workload's
models and run its warm-up calls). --trace 1 follows every call with a
traced repeat of it and prints the per-layer metrics of the traced
calls, with the tracing overhead against the untraced ones.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. A copy, with the host, every
round and (traced) the spans, goes to .perfbench/. The exit code is 0
when every check passed, 1 when one failed, 2 when the run could not
start.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_SAMPLES = 3
PROBE_TIMEOUT = 60

RESULT_NAMES = {
    "front-sim": "cell updates (nv * nx * steps of the simulate calls)",
    "speed-sweep": "minimal speeds reported",
    "spreading": "null-set radii reported",
}


def host_info():
    import numpy
    import scipy

    from kinfront.sim import kernels

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_lane": kernels.BACKEND,
    }


def probe_setup(workload):
    """Child process: time import, model construction and warm-up; print seconds."""
    t0 = perf_counter()
    import workloads

    base = tempfile.mkdtemp(prefix="setup-", dir=OUT_DIR)
    try:
        workloads.setup(workload, base)
        print(repr(perf_counter() - t0))
    finally:
        shutil.rmtree(base, ignore_errors=True)


def setup_seconds(workload):
    """Median set-up time over SETUP_SAMPLES fresh processes."""
    env = dict(os.environ, PYTHONPATH=SRC)
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--probe-setup", workload],
            env=env, capture_output=True, text=True, timeout=PROBE_TIMEOUT, check=False)
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed: %s" % proc.stderr.strip()[-2000:])
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples), samples


class Runner:
    """Runs rounds of one workload and keeps what the checks need."""

    def __init__(self, workloads, cli, calls):
        self.w = workloads
        self.cli = cli
        self.calls = calls
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = [None] * len(calls)  # (digest, problems) of each call's first output

    def round(self, tracer=None):
        """One pass over the calls; returns (CLI wall s, results, bytes written, traced s).

        With a tracer, each call is repeated at once with the tracer
        installed, so that the traced and untraced times of a call are
        taken seconds apart; the repeat must give the same output.
        """
        wall = results = written = traced = 0.0
        for i, call in enumerate(self.calls):
            secs, res, nbytes = self._call(i, call)
            wall += secs
            results += res
            written += nbytes
            if tracer is not None:
                tracer.install()
                try:
                    traced += self._call(i, call)[0]
                finally:
                    tracer.uninstall()
        return wall, results, written, traced

    def _call(self, i, call):
        self.attempted += 1
        rc, stdout, stderr, secs = self.w.run_cli(self.cli, call.argv)
        files = {}
        for path in call.outputs:
            try:
                with open(path, "rb") as fh:
                    files[path] = fh.read()
                os.remove(path)
            except OSError:
                pass
        written = len(stdout.encode()) + sum(len(b) for b in files.values())
        results = 0
        problems = []
        if rc != 0:
            problems.append("exit %s: %s" % (rc, stderr.strip()[-2000:]))
        elif len(files) != len(call.outputs):
            problems.append("missing output files")
        elif self.reference[i] is None:
            try:
                problems = call.check(stdout, files)
            except Exception:  # output the checks cannot read is a failed check
                problems.append(traceback.format_exc(limit=-2))
            self.reference[i] = (self.w.digest(stdout, files), problems)
        elif self.w.digest(stdout, files) != self.reference[i][0]:
            problems.append("output differs from the first run of this call")
        else:
            problems = list(self.reference[i][1])  # the same output fails the same checks
        if not problems:
            results = call.work(stdout, files)
        else:
            self.failed += 1
            self.problems.append("%s: %s" % (call.label, "; ".join(problems)))
        return secs, results, written


def run(args):
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    os.makedirs(OUT_DIR, exist_ok=True)
    import workloads

    base = tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed), dir=OUT_DIR)
    try:
        report = measure(args, workloads, base)
    finally:
        shutil.rmtree(base, ignore_errors=True)

    host = report.pop("host")
    print("host: " + json.dumps(host, sort_keys=True))
    print("workload %s, seed %d, %d rounds; results are %s"
          % (args.workload, args.seed, report["rounds"], RESULT_NAMES[args.workload]))
    for name, m in report["metrics"].items():
        print("  %-40s %.6g %s" % (name, m["value"], m["unit"]))
    for problem in report["problems"]:
        print("FAILED " + problem)
    result = {
        "correct": not report["problems"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }
    path = os.path.join(OUT_DIR, "BENCH_%s_seed%d_trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump(dict(result, host=host, workload=args.workload, seed=args.seed,
                       rounds=report["round_log"]), fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def measure(args, workloads, base):
    cli = workloads.setup(args.workload, base)
    host = host_info()
    runner = Runner(workloads, cli, workloads.round_calls(args.workload, args.seed, base))
    log = []
    if args.trace:
        metrics = traced_metrics(args, runner, log)
    else:
        setup_s, host["setup_samples_s"] = setup_seconds(args.workload)
        t0 = perf_counter()
        while True:
            wall, results, written, _ = runner.round()
            log.append({"cli_s": wall, "results": results, "bytes_written": written})
            if perf_counter() - t0 >= args.seconds:
                break
        rate = statistics.median(r["results"] / r["cli_s"] for r in log)
        metrics = {
            "results_per_s": {"value": rate, "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    return {"host": host, "metrics": metrics, "attempted": runner.attempted,
            "failed": runner.failed, "problems": runner.problems, "rounds": len(log),
            "round_log": log}


def traced_metrics(args, runner, log):
    """Rounds of untraced calls, each followed by its traced repeat; per-layer numbers per round."""
    import spans

    tracer = spans.Tracer()
    overhead, layers = [], []
    first_spans = None
    t0 = perf_counter()
    while True:
        wall, _, written, traced = runner.round(tracer)
        batch = tracer.take()
        first_spans = first_spans or batch
        layers.append(tracer.per_layer(batch))
        overhead.append(traced - wall)
        log.append({"untraced_s": wall, "traced_s": traced,
                    "bytes_written": written, "calls": layers[-1]["calls"]})
        if perf_counter() - t0 >= args.seconds:
            break
    tracer.dump(os.path.join(OUT_DIR, "spans_%s_seed%d.json" % (args.workload, args.seed)),
                first_spans)
    counts = [(p["calls"], p["h_solves"]) for p in layers]
    if any(c != counts[0] for c in counts):
        runner.problems.append("per-layer counts differ between traced rounds")
    first = layers[0]
    med = lambda key, layer=None: statistics.median(
        p[key][layer] if layer else p[key] for p in layers)
    calls = first["calls"]
    values = {
        "cli.self_s": (med("self_s", "cli"), "s"),
        "cli.bytes_written": (log[0]["bytes_written"], "bytes"),
        "engine.self_s": (med("self_s", "engine"), "s"),
        "engine.initial_state_s": (med("initial_state_s"), "s"),
        "kernels.strang_step.calls": (calls.get("kernels.strang_step", 0), "count"),
        "kernels.self_s": (med("self_s", "kernels"), "s"),
        "kernels.cell_updates_per_s": (med("kernel_cell_updates_per_s"), "1/s"),
        "kernels.state_mb": (first["kernel_state_mb"], "MB"),
        "propagation.self_s": (med("self_s", "propagation"), "s"),
        "propagation.nullset_radius.calls": (calls.get("propagation.nullset_radius", 0), "count"),
        "propagation.lagrangian.calls": (calls.get("propagation.lagrangian", 0), "count"),
        "dispersion.self_s": (med("self_s", "dispersion"), "s"),
        "dispersion.h_solves": (first["h_solves"], "count"),
        "dispersion.minimal_speed.calls": (calls.get("dispersion.minimal_speed", 0), "count"),
        "dispersion.kernel_calls_per_h_solve": (first["kernel_calls_per_h_solve"], "ratio"),
        "models.self_s": (med("self_s", "models"), "s"),
        "models.VelocityModel.calls": (calls.get("models.VelocityModel", 0), "count"),
        "quadrature.self_s": (med("self_s", "quadrature"), "s"),
        "quadrature.kernel_integral.calls": (
            calls.get("quadrature.GradedGrid.kernel_integral", 0), "count"),
        "quadrature.GradedGrid.builds": (calls.get("quadrature.GradedGrid", 0), "count"),
        "trace.overhead_s": (statistics.median(overhead), "s"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("front-sim", "speed-sweep", "spreading"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.probe_setup:
        sys.path.insert(0, HERE)
        probe_setup(args.probe_setup)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if not os.path.isdir(os.path.join(SRC, "kinfront")):
        print("error: no kinfront sources under %s" % SRC, file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
