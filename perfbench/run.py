"""eqtorus benchmark: one workload per fresh process, one closed-loop client.

    python3 perfbench/run.py --workload n2_lowq --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout; eqtorus is imported from its src/
and nowhere else.  The run makes one whole pass over the workload's ops and
goes on op by op until --seconds have elapsed, checks every op's output,
and prints as its last stdout line one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics
are the end-to-end ones of BENCHMARK.json; with --trace 1 passes alternate
between untraced and traced, and the metrics are the per-layer ones.  The
line before it is the full report: every metric with unit and sample
count, failures, per-op details and the run's metadata.

Program settings stay at their defaults: the run refuses to start when
EQTORUS_TOL_OVERRIDE is set.  BLAS runs one thread, below the CPU-count cap:
with one client, a second BLAS thread buys ~5 % on the index op and makes
its latency swing from 4.5 s to 8 s on a shared 2-vCPU host (4.9-5.9 s with
one thread).

Times in the result line are restated at a reference host speed (see
hostspeed.py): the shared host drifts by up to 1.6x, so ops_per_s is scaled
by a reference timed between ops and setup_s by a reference interpreter
timed next to each set-up probe.  The raw figures are in the full report.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

T_START = time.perf_counter()
HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1
SETUP_PROBES = 5
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# the bounded metrics of BENCHMARK.json; the others are in the report only
END_TO_END = {"ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
REPORT_ONLY = {"ops_per_s_raw": "1/s", "setup_raw_s": "s", "op_p50_s": "s",
               "op_tail_s": "s", "fail_ratio": "ratio",
               "warnings_per_op": "1/op"}


class BenchError(RuntimeError):
    """A run that cannot produce a result; reported without a result line."""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)  # child process timing set-up
    return ap.parse_args(argv)


def prepare_environment() -> None:
    """Refuse non-default program settings, pin BLAS threads and put the
    checkout's src/ first on the import path; before numpy is imported."""
    if "EQTORUS_TOL_OVERRIDE" in os.environ:
        raise BenchError("EQTORUS_TOL_OVERRIDE is set; the benchmark runs "
                         "eqtorus with its default tolerances only")
    for var in BLAS_VARS:
        os.environ[var] = str(min(BLAS_THREADS, NPROC))
    src = CHECKOUT / "src"
    if not (src / "eqtorus" / "__init__.py").is_file():
        raise BenchError(f"no eqtorus sources under {src}")
    sys.path.insert(0, str(src))
    import eqtorus

    if Path(eqtorus.__file__).resolve().parent != (src / "eqtorus").resolve():
        raise BenchError(f"eqtorus imported from {eqtorus.__file__}, "
                         f"not from {src}")


# --------------------------------------------------------------------------
# metadata
# --------------------------------------------------------------------------


def git_commit() -> str | None:
    """HEAD of the checkout read from .git, or None outside a repository."""
    git = CHECKOUT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def metadata(args) -> dict:
    import dataclasses

    import numpy
    import scipy

    import eqtorus
    from eqtorus import config

    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_commit": git_commit(), "eqtorus_version": eqtorus.__version__,
        "tolerances": dataclasses.asdict(config.tolerances()),
        "nproc": NPROC, "cpu_model": cpu_model(),
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loop": "closed, one client, one workload per process",
    }


# --------------------------------------------------------------------------
# measurement
# --------------------------------------------------------------------------


def time_child(cmd, marker: str | None = None) -> float:
    """Seconds from spawning cmd to its line `marker` (or to its exit)."""
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                          cwd=CHECKOUT) as child:
        line = child.stdout.readline()
        t1 = time.perf_counter()
        child.stdout.read()
        if child.wait() != 0 or (marker is not None
                                 and line.strip() != marker):
            raise BenchError(f"{cmd[-1]} failed")
    return t1 - t0


def measure_setup(args) -> list[tuple[float, float]]:
    """Set-up time of fresh processes, spawn to the point where the first
    op would start (interpreter, imports, workload generation), each with
    the mean of the import reference timed just before and just after."""
    import hostspeed

    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-probe"]
    refs = [time_child(hostspeed.IMPORT_COMMAND)]
    raws = []
    for _ in range(SETUP_PROBES):
        raws.append(time_child(cmd, "ready"))
        refs.append(time_child(hostspeed.IMPORT_COMMAND))
    return [(raw, 0.5 * (refs[i] + refs[i + 1]))
            for i, raw in enumerate(raws)]


class Recorder:
    """Latency, verdict and warnings of every op of the measured passes."""

    def __init__(self):
        self.latencies: list[float] = []
        self.by_op: dict[int, list[int]] = {}  # op -> indices in latencies
        self.failed: list[dict] = []
        self.warnings = 0
        self.details: list[dict] = []

    def run_pass(self, ops, tracer=None, deadline=None, after_op=None):
        """Run ops in order, stopping early once perf_counter() passes
        deadline; after_op(latency) follows every op.  Returns the wall
        time of the pass."""
        t0 = time.perf_counter()
        for i, op in enumerate(ops):
            if deadline is not None and time.perf_counter() >= deadline:
                break
            if tracer is not None:
                tracer.op_id = len(self.latencies)
            start = time.perf_counter()
            try:
                if tracer is None:
                    output = op.call()
                else:
                    with tracer.span("op"):
                        output = op.call()
                latency = time.perf_counter() - start
                result = op.check(output)
            except Exception as exc:  # noqa: BLE001 - a failed op, not a failed run
                latency = time.perf_counter() - start
                self.record(i, latency, after_op)
                self.failed.append({"op": op.label, "error": repr(exc)[:300]})
                continue
            self.record(i, latency, after_op)
            self.warnings += result.warnings
            self.details.append({"op": op.label, "latency_s": latency,
                                 **result.detail})
            if not result.ok:
                self.failed.append({"op": op.label, **result.detail})
        return time.perf_counter() - t0

    def record(self, i: int, latency: float, after_op) -> None:
        self.by_op.setdefault(i, []).append(len(self.latencies))
        self.latencies.append(latency)
        if after_op is not None:
            after_op(latency)

    def pass_seconds(self, latencies) -> float:
        """One pass over every op, each at its median of latencies (one
        per op run, in the order of self.latencies)."""
        return sum(statistics.median(latencies[j] for j in v)
                   for v in self.by_op.values())


def tail(latencies: list[float]) -> tuple[float, float] | None:
    """(percentile, latency) at the highest level with >= 10 samples above."""
    n = len(latencies)
    for level in TAIL_LEVELS:
        if n * (1.0 - level / 100.0) >= 10.0:
            qs = statistics.quantiles(latencies, n=1000, method="inclusive")
            return level, qs[int(round(level * 10)) - 1]
    return None


def end_to_end(rec: Recorder, tracker,
               setup: list[tuple[float, float]]) -> dict:
    import hostspeed

    n = len(rec.latencies)
    verified = n - len(rec.failed)
    share = verified / n
    # each op's latency restated at nominal host speed by the reference
    # clumps on either side of it
    at_nominal = [lat / tracker.factor_around(j)
                  for j, lat in enumerate(rec.latencies)]
    metrics = {
        "ops_per_s": (len(rec.by_op) / rec.pass_seconds(at_nominal) * share,
                      n),
        "ops_per_s_raw": (len(rec.by_op) / rec.pass_seconds(rec.latencies)
                          * share, n),
        "op_p50_s": (statistics.median(rec.latencies), n),
        "setup_s": (statistics.median(raw / ref for raw, ref in setup)
                    * hostspeed.IMPORT_REFERENCE_S, len(setup)),
        "setup_raw_s": (statistics.median(raw for raw, _ in setup),
                        len(setup)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, 1),
        "fail_ratio": (len(rec.failed) / n, n),
        "warnings_per_op": (rec.warnings / n, n),
    }
    units = {**END_TO_END, **REPORT_ONLY}
    report = {name: {"value": v, "unit": units[name], "samples": k}
              for name, (v, k) in metrics.items()}
    t = tail(rec.latencies)
    if t is not None:
        report["op_tail_s"] = {"value": t[1], "unit": "s", "samples": n,
                               "percentile": t[0]}
    return report


def traced_run(args, ops, rec: Recorder) -> dict:
    import layers
    import spans

    untraced, traced = [], []
    tracer = spans.Tracer()
    t0 = time.perf_counter()
    while not traced or time.perf_counter() - t0 < args.seconds:
        untraced.append(rec.run_pass(ops))
        tracer.install(layers.TARGETS)
        try:
            traced.append(rec.run_pass(ops, tracer))
        finally:
            tracer.remove()
    out_dir = CHECKOUT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    tracer.save(out_dir / f"trace-{args.workload}.npz")
    values = layers.per_layer(spans.summarize(tracer), tracer.counters,
                              len(traced) * len(ops),
                              sum(traced) / sum(untraced))
    report = {name: {"value": v, "unit": layers.UNITS[name],
                     "samples": len(traced) * len(ops)}
              for name, v in values.items()}
    report["trace_overhead_ratio"]["samples"] = len(traced)
    report["spectral.certified_root_ratio"]["base_roots"] = \
        tracer.counters.get("spectral.roots", 0)
    return {"per_layer": report, "missing_targets": tracer.missing,
            "spans": len(tracer.start)}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        prepare_environment()
        import workloads

        if args.workload not in workloads.WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; choose "
                             f"from {sorted(workloads.WORKLOADS)}")
        ops = workloads.WORKLOADS[args.workload](args.seed)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        setup_in_process = time.perf_counter() - T_START
        setup = measure_setup(args) if args.trace == 0 else []
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    rec = Recorder()
    report = {"metadata": metadata(args), "why": workloads.WHY[args.workload],
              "setup_in_process_s": setup_in_process}
    if args.trace == 0:
        import hostspeed

        tracker = hostspeed.Tracker(workloads.REFERENCE[args.workload])
        deadline = time.perf_counter() + args.seconds
        rec.run_pass(ops, after_op=tracker.after_op)
        while time.perf_counter() < deadline:
            rec.run_pass(ops, deadline=deadline, after_op=tracker.after_op)
        report["host_factor"] = {"value": tracker.factor(),
                                 "reference": tracker.kind,
                                 "samples": tracker.samples()}
        report["end_to_end"] = end_to_end(rec, tracker, setup)
        section = report["end_to_end"]
        names = END_TO_END
    else:
        report.update(traced_run(args, ops, rec))
        section = names = report["per_layer"]
    attempted, failed = len(rec.latencies), len(rec.failed)
    report.update(attempted=attempted, failed=rec.failed,
                  op_details=rec.details[:50])

    for name, m in section.items():
        extra = f" p{m['percentile']:g}" if "percentile" in m else ""
        print(f"{args.workload:10s} {name:44s} {m['value']:14.6g} "
              f"{m['unit']:10s} n={m['samples']}{extra}")
    print(json.dumps(report, default=str))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": section[name]["value"],
                           "unit": section[name]["unit"]} for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
