"""Benchmark of the fedamp accountant and trainer.

    python3 perfbench/run.py --workload calibrate|verify|train|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; fedamp is imported from its src/.
One process generates load, one op at a time, as a closed loop. Ops come
in rounds of balanced work; a run measures whole rounds until it has spent
``--seconds`` on ops and done at least ``min_ops`` ops (so the 90th
percentile has ten samples beyond it). Each op's output is checked
outside the timed region. Between ops, for about ``reference.share`` of
the op time, a fixed pure-Python reference loop is timed. The host's CPU
speed drifts by up to 1.7x over minutes, so each op's latency is also
reported scaled to reference speed: times the nominal over the median
reference time around that op. The ``*_at_ref`` metrics are the scaled
ones; the wall-clock ones are printed beside them.
``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs the first ``traced_rounds`` rounds once traced and
once untraced and reports the per-layer metrics. The last line of
standard output is the result as one JSON object; the full report, and
the spans of a traced run, are also written under perfbench/out/.

Set-up time is taken from the first statement of this file to the first
timed op, in this process and in ``setup_repeats - 1`` probe processes
that stop there; the median is reported. The BLAS thread count is pinned
to 1 before numpy loads, so every run compares at the same value.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from importlib import metadata  # noqa: E402

import spans  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
BLAS_THREADS = "1"
HARD_CAP_S = 120.0
WORKLOAD_NAMES = ("calibrate", "verify", "train")

END_TO_END_UNITS = {
    "ops_per_s_at_ref": "1/s",
    "op_p50_ms_at_ref": "ms",
    "op_p90_ms_at_ref": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
WALL_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_fedamp():
    """Import fedamp from this checkout's src/, never from elsewhere."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    if not os.path.isfile(os.path.join(SRC, "fedamp", "__init__.py")):
        raise SystemExit(f"perfbench: no fedamp package under {SRC}")
    sys.path.insert(0, SRC)
    import click  # noqa: F401
    import scipy  # noqa: F401

    import fedamp
    import fedamp.cli  # noqa: F401

    if os.path.dirname(os.path.dirname(os.path.abspath(fedamp.__file__))) != SRC:
        raise SystemExit(f"perfbench: fedamp imported from {fedamp.__file__}, not {SRC}")
    import workloads

    return workloads


def environment():
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "click": metadata.version("click"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "FEDAMP_THREADS": os.environ.get("FEDAMP_THREADS", "unset (default 1)"),
        "git_commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as head:
            ref = head.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = os.path.join(git, ref)
        if os.path.isfile(loose):
            with open(loose) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as packed:
            for line in packed:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def setup_probes(args, count):
    """Set-up seconds of ``count`` fresh processes that stop before the first op."""
    command = [
        sys.executable, os.path.abspath(__file__), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
    ]
    times = []
    for _ in range(count):
        done = subprocess.run(command, capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


class Reference:
    """Times a fixed pure-Python loop between ops, as a gauge of the CPU's
    speed at that moment.

    A sample follows an op whenever the reference time so far is below
    ``share`` of the op time so far, so samples are spread evenly in time.
    """

    def __init__(self, spec):
        self.nominal = spec["nominal_ms"] / 1000.0
        self.share = spec["share"]
        self.window = spec["window"]
        self.ops = 0
        self.op_seconds = 0.0
        self.reference_seconds = 0.0
        self.after = []  # index of the op each sample follows
        self.seconds = []

    @staticmethod
    def sample():
        start = time.perf_counter()
        total = 0
        for i in range(20_000):
            total += i * i
        return time.perf_counter() - start

    def after_op(self, latency):
        self.ops += 1
        self.op_seconds += latency
        if self.reference_seconds < self.share * self.op_seconds:
            self.after.append(self.ops - 1)
            self.seconds.append(self.sample())
            self.reference_seconds += self.seconds[-1]

    def scaled(self, latencies):
        """Each latency times nominal over the median of the ``2 * window``
        reference samples nearest to its op."""
        out = []
        for i, latency in enumerate(latencies):
            j = bisect.bisect_left(self.after, i)
            near = self.seconds[max(0, j - self.window):j + self.window]
            out.append(latency * self.nominal / statistics.median(near))
        return out


def run_ops(workload, ops, reference=None):
    """Run ``ops`` one at a time; returns latencies, failures and problems.

    Checks, and reference samples, run between timed ops.
    """
    latencies, failed, problems = [], 0, []
    for op in ops:
        start = time.perf_counter()
        try:
            out, raised = workload.run(op), None
        except Exception as exc:  # a raising op is a failed op, not a crash
            out, raised = None, exc
        latencies.append(time.perf_counter() - start)
        if reference is not None:
            reference.after_op(latencies[-1])
        if raised is not None:
            failed += 1
            problems.append(f"{op!r}: raised {type(raised).__name__}: {raised}")
            continue
        found = workload.check(op, out)
        if found:
            failed += 1
            problems += [f"{op!r}: {p}" for p in found]
    return latencies, failed, problems


def measure(workload, seconds, min_ops, reference):
    """Whole rounds until ``seconds`` of op time and ``min_ops`` ops."""
    loop_start = time.perf_counter()
    latencies, failed, problems = [], 0, []
    for ops in workload.rounds():
        lat, fail, found = run_ops(workload, ops, reference)
        latencies += lat
        failed += fail
        problems += found
        if sum(latencies) >= seconds and len(latencies) >= min_ops:
            break
        if time.perf_counter() - loop_start > HARD_CAP_S:
            break
    metrics = {}
    for suffix, timed in (("", latencies), ("_at_ref", reference.scaled(latencies))):
        ms = sorted(1000.0 * t for t in timed)
        metrics[f"ops_per_s{suffix}"] = len(ms) / sum(timed)
        metrics[f"op_p50_ms{suffix}"] = statistics.median(ms)
        metrics[f"op_p90_ms{suffix}"] = p90 = statistics.quantiles(ms, n=10)[-1]
    samples = {
        "ops": len(ms),
        "beyond_p90": sum(1 for t in ms if t > p90),
        "op_seconds": sum(latencies),
        "reference_samples": len(reference.seconds),
        "reference_median_ms": 1000.0 * statistics.median(reference.seconds),
        "reference_nominal_ms": 1000.0 * reference.nominal,
        "reference_ms": [1000.0 * t for t in reference.seconds],
        "latencies_ms": [1000.0 * t for t in latencies],
    }
    return metrics, samples, len(ms), failed, problems


def measure_traced(workload, rounds):
    """The first ``rounds`` rounds traced, then again untraced."""
    ops = [op for ops in itertools.islice(workload.rounds(), rounds) for op in ops]
    tracer = spans.Tracer()
    op_ids = iter(range(len(ops)))
    original_run = workload.run

    def traced_run(op):
        with tracer.op(next(op_ids)):
            return original_run(op)

    workload.run = traced_run
    try:
        traced, failed, problems = run_ops(workload, ops)
    finally:
        workload.run = original_run
    untraced, failed_again, problems_again = run_ops(workload, ops)
    metrics = spans.layer_metrics(tracer.spans(), tracer.counts)
    metrics["trace.ops"] = len(ops)
    metrics["trace.overhead"] = sum(traced) / sum(untraced) - 1.0
    return metrics, tracer, len(ops), failed + failed_again, problems + problems_again


def run_one(args):
    workloads = load_fedamp()
    with open(os.path.join(BENCH_DIR, "spec.json")) as f:
        spec = json.load(f)
    workload = workloads.WORKLOADS[args.workload](spec[args.workload], args.seed)
    setup_main = time.perf_counter() - T0
    if args.setup_probe:
        print(repr(setup_main))
        return 0
    env = environment()
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "environment": env}
    if args.trace:
        metrics, tracer, attempted, failed, problems = measure_traced(
            workload, spec[args.workload]["traced_rounds"]
        )
        units = {name: spans.unit(name) for name in metrics}
        os.makedirs(OUT_DIR, exist_ok=True)
        span_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(span_path)
        report["spans_file"] = os.path.relpath(span_path, ROOT)
        report["span_count"] = len(tracer.names)
    else:
        setups = [setup_main] + setup_probes(args, spec["setup_repeats"] - 1)
        metrics, samples, attempted, failed, problems = measure(
            workload, args.seconds, spec["min_ops"], Reference(spec["reference"])
        )
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = {**WALL_UNITS, **END_TO_END_UNITS}
        report["samples"] = samples
        report["setup_samples_s"] = setups
    run_problems, known = workload.finish()
    if run_problems:
        failed = attempted
        problems += run_problems
    report["reported"] = known
    report["error_rate"] = failed / attempted
    report["problems"] = problems[:50]
    report["metrics"] = metrics

    for name, value in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {units.get(name, '')}".rstrip())
    if "samples" in report:
        samples = report["samples"]
        print(f"{args.workload} samples {samples['ops']} ops, {samples['beyond_p90']} beyond op_p90_ms_at_ref")
        print(
            f"{args.workload} reference {samples['reference_median_ms']:.6g} ms median of "
            f"{samples['reference_samples']} samples (nominal {samples['reference_nominal_ms']:g} ms)"
        )
    print(f"{args.workload} error_rate {failed / attempted:.6g} ratio ({failed} of {attempted} ops failed)")
    for name, value in known.items():
        print(f"{args.workload} reported {name} = {value}")
    for problem in problems[:20]:
        print(f"{args.workload} FAILED {problem}")
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as f:
        json.dump(report, f, indent=1, default=str)
    print(f"{args.workload} environment {json.dumps(env)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
            if args.trace or name in END_TO_END_UNITS
        },
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own process, so set-up and memory are its own."""
    results = {}
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        done = subprocess.run(command, capture_output=True, text=True, timeout=900)
        sys.stdout.write("".join(done.stdout.splitlines(keepends=True)[:-1]))
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        results[name] = json.loads(done.stdout.splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}.{metric}": value
            for name, r in results.items()
            for metric, value in r["metrics"].items()
        },
    }))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
