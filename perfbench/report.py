"""Print every end-to-end and per-layer metric for a set of workloads.

    python3 perfbench/report.py                        # all workloads, seed 0
    python3 perfbench/report.py --workloads scan,index --seconds 10
    python3 perfbench/report.py --write perfbench/baseline.json
    python3 perfbench/report.py --against perfbench/baseline.json

Each workload runs twice in fresh processes, untraced (end-to-end metrics)
and traced (per-layer metrics), exactly as run.py is run on its own.  The
table lists each metric by name with its unit and sample count; with
--against it adds the recorded value and the change.  --write stores the
full reports, metadata included, as a baseline.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

BASELINE_NOTE = (
    "Measured by this harness on the commit in each report's metadata. "
    "ROADMAP's re-anchor figures (e.g. 11 s + 47 s for the strict "
    "construct_strict_instance + assemble_N2, 28 s for criterion 4, 23 s "
    "for criterion 9) were measured outside this harness and are not the "
    "baseline.")


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=HERE.parent, capture_output=True,
                          text=True, check=False)
    lines = done.stdout.strip().split("\n")
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} failed ({done.returncode}):\n"
                         f"{done.stderr}")
    report = json.loads(lines[-2])
    report["result"] = json.loads(lines[-1])
    return report


def rows(reports: dict):
    """(metric, entry) of the untraced then the traced report."""
    for key, section in (("trace0", "end_to_end"), ("trace1", "per_layer")):
        yield from reports[key][section].items()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--write", help="store the reports here as a baseline")
    ap.add_argument("--against", help="baseline file to compare with")
    args = ap.parse_args(argv)

    chosen = args.workloads.split(",")
    unknown = [w for w in chosen if w not in WORKLOADS]
    if unknown:
        ap.error(f"unknown workloads {unknown}; choose from {list(WORKLOADS)}")
    base = {}
    if args.against:
        base = json.loads(Path(args.against).read_text())["workloads"]

    results = {}
    for workload in chosen:
        results[workload] = {
            f"trace{t}": run_one(workload, args.seed, args.seconds, t)
            for t in (0, 1)}

    head = f"{'workload':10s} {'metric':44s} {'value':>14s} {'unit':10s} {'n':>5s}"
    if base:
        head += f" {'baseline':>14s} {'change':>8s}"
    print(head)
    for workload in chosen:
        ref_values = {}
        if workload in base:
            ref_values = {name: m["value"] for name, m in rows(base[workload])}
        for name, m in rows(results[workload]):
            pct = f" p{m['percentile']:g}" if "percentile" in m else ""
            line = (f"{workload:10s} {name:44s} {m['value']:14.6g} "
                    f"{m['unit']:10s} {m['samples']:5d}{pct}")
            ref = ref_values.get(name)
            if ref is not None:
                change = f"{m['value'] / ref - 1:+8.1%}" if ref else "     n/a"
                line += f" {ref:14.6g} {change}"
            print(line)
        for key in ("trace0", "trace1"):
            rep = results[workload][key]
            for failure in rep["failed"]:
                print(f"{workload:10s} FAILED {failure}")
            for name in rep.get("missing_targets", []):
                print(f"{workload:10s} MISSING traced function {name}")

    if args.write:
        Path(args.write).write_text(json.dumps(
            {"note": BASELINE_NOTE, "seed": args.seed,
             "seconds": args.seconds, "workloads": results},
            indent=1, default=str) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
