"""``run.py --check A.json B.json``: did B get worse than A?

One row per workload x end-to-end metric, judged with the bound stored in
BENCHMARK.json.  A pair is *unresolved* — never "unchanged" — when the machine
drifted (``host.calib_s`` moved by more than 10 %) or a record's own
repetitions spread wider than the bound.  Simulated results compare exactly:
with equal seeds every ``sim_digest``, ``flow.makespan_rel_err`` and count
must be identical, and no operation may fail.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List

#: Relative change of ``host.calib_s`` beyond which timings are not comparable.
CALIB_DRIFT = 0.10

#: Per-layer metrics that are simulated results or exact counts, not timings.
EXACT_LAYERS = (
    "core.events_fired",
    "network.packets_ejected",
    "mpi.messages_delivered",
    "flow.makespan_rel_err",
)


def _spread(entry: dict) -> float:
    """Interquartile range of a metric's repetitions as a share of its value."""
    return (entry["q3"] - entry["q1"]) / entry["value"] if "q1" in entry else 0.0


def check_records(path_a: Path, path_b: Path, definition: dict) -> int:
    """Print the comparison table; return 1 on any regression or mismatch."""
    a, b = json.loads(path_a.read_text()), json.loads(path_b.read_text())
    same_seed = a["seed"] == b["seed"]
    problems: List[str] = []
    print(f"{'workload':12} {'metric':14} {'A':>12} {'B':>12} {'change':>8} {'bound':>6}  verdict")
    for workload, rec_a in a["workloads"].items():
        rec_b = b["workloads"][workload]
        calib_a, calib_b = rec_a["host.calib_s"]["value"], rec_b["host.calib_s"]["value"]
        drifted = abs(calib_b / calib_a - 1.0) > CALIB_DRIFT
        for spec in definition["end_to_end"]:
            name, bound = spec["name"], spec["bound"]
            entry_a, entry_b = rec_a["end_to_end"][name], rec_b["end_to_end"][name]
            change = entry_b["value"] / entry_a["value"] - 1.0
            worse = change if spec["better"] == "lower" else -change
            if worse <= bound:
                verdict = "ok"
            elif drifted or max(_spread(entry_a), _spread(entry_b)) > bound:
                verdict = "unresolved"
            else:
                verdict = "REGRESSION"
                problems.append(f"{workload} {name} worse by {worse:.1%} (bound {bound:.0%})")
            print(
                f"{workload:12} {name:14} {entry_a['value']:12.6g} {entry_b['value']:12.6g} "
                f"{change:+8.1%} {bound:6.0%}  {verdict}"
            )
        for record in (rec_a, rec_b):
            if record["failed"]:
                problems.append(f"{workload}: {record['failed']} operations failed")
        if not same_seed:
            continue
        if rec_a["sim_digest"] != rec_b["sim_digest"]:
            problems.append(f"{workload}: sim_digest differs (simulated results changed)")
        layers_a, layers_b = rec_a.get("per_layer", {}), rec_b.get("per_layer", {})
        for name in EXACT_LAYERS:
            if name in layers_a and name in layers_b and layers_a[name] != layers_b[name]:
                problems.append(f"{workload}: {name} {layers_a[name]} != {layers_b[name]}")
    for problem in problems:
        print(f"FAIL  {problem}")
    return 1 if problems else 0
