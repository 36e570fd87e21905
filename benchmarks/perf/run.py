"""The repo's performance benchmark: one command, four workloads.

    python3 benchmarks/perf/run.py --workload mix1056 --seed 7 --seconds 20 --trace 0
        run one workload in this process; print every metric by name with its
        unit, then one JSON result line (the contract in BENCHMARK.json)
    python3 benchmarks/perf/run.py [--seed 7] [--trace 1] [--out FILE]
        run every workload, each in a fresh subprocess, one after another,
        and write one JSON record
    python3 benchmarks/perf/run.py --check A.json B.json
        compare two records with the bounds stored in BENCHMARK.json

Workloads, metrics, units and bounds are defined in BENCHMARK.json at the
repo root; README.md explains them.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"


def load_definition() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_one(args: argparse.Namespace, definition: dict) -> int:
    # Default backend, the scenario's own fidelity: no REPRO_* overrides.
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import perf_harness
        from perf_workloads import BUILDERS
    except ImportError as exc:
        print(f"cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    record = perf_harness.run_workload(
        BUILDERS[args.workload], args.seed, args.seconds, bool(args.trace), OUT_DIR
    )
    (OUT_DIR / f"record-{args.workload}.json").write_text(json.dumps(record, indent=1) + "\n")

    group = "per_layer" if args.trace else "end_to_end"
    measured = record[group]
    metrics = {}
    for spec in definition[group]:
        entry = measured[spec["name"]]
        value = entry["value"] if isinstance(entry, dict) else entry
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    for name, entry in record["end_to_end"].items():
        spread = (
            f"  (best of n; median {entry['median']:.6g}, quartiles {entry['q1']:.6g}..{entry['q3']:.6g})"
            if "q1" in entry
            else ""
        )
        print(f"{args.workload}  {name} = {entry['value']:.6g} {entry['unit']}{spread}  n={entry['n']}")
    if args.trace:
        for name, spec in metrics.items():
            print(f"{args.workload}  {name} = {spec['value']:.6g} {spec['unit']}")
    for label, digest in record["sim_digest"].items():
        print(f"{args.workload}  sim_digest[{label}] = {digest}")
    for failure in record["failures"]:
        print(f"{args.workload}  FAILED {failure}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


def _run_all(args: argparse.Namespace, definition: dict) -> int:
    """Each workload in its own fresh process: peak RSS and heap state are per workload."""
    records = {}
    for workload in (spec["name"] for spec in definition["workloads"]):
        command = [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        code = subprocess.run(command, cwd=ROOT).returncode
        if code != 0:
            print(f"workload {workload} exited with {code}", file=sys.stderr)
            return code
        records[workload] = json.loads((OUT_DIR / f"record-{workload}.json").read_text())
    out = Path(args.out) if args.out else OUT_DIR / "record.json"
    out.write_text(json.dumps({"seed": args.seed, "workloads": records}, indent=1) + "\n")
    print(f"record written to {out}")
    return 0 if all(record["failed"] == 0 for record in records.values()) else 1


def main() -> int:
    definition = load_definition()
    names = [spec["name"] for spec in definition["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="run this one workload in-process")
    parser.add_argument("--seed", type=int, default=7, help="scenario seed (the only input)")
    parser.add_argument("--seconds", type=float, default=float(definition["run_seconds"]),
                        help="measuring time of the timed repetitions")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add a sampled repetition and the per-layer probes")
    parser.add_argument("--out", help="where the all-workloads record goes")
    parser.add_argument("--check", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two all-workloads records; exit 1 on regression")
    args = parser.parse_args()
    if args.check:
        from perf_compare import check_records

        return check_records(Path(args.check[0]), Path(args.check[1]), definition)
    if args.workload:
        return _run_one(args, definition)
    return _run_all(args, definition)


if __name__ == "__main__":
    sys.exit(main())
