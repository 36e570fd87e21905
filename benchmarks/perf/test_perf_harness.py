"""The harness measures what BENCHMARK.json says it measures.

Runs every workload builder at toy size (their size arguments, on
``tiny_system()`` where the shape allows) through the real measurement path,
traced, and checks the record against the benchmark definition.  Collected
under the ``bench`` marker like everything in ``benchmarks/``:

    REPRO_BENCH_SUMMARY= PYTHONPATH=src python -m pytest -m bench -q benchmarks/perf
"""

from __future__ import annotations

import copy
import json
import re
from functools import partial
from pathlib import Path

import pytest

import perf_harness
from perf_compare import check_records
from perf_tracing import layer_of
from perf_workloads import BUILDERS, flowscale, loadcurve72, mix1056, sweep72

from repro.config import tiny_system

DEFINITION = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())

TOY_BUILDERS = {
    "mix1056": partial(mix1056, system=tiny_system(), total_nodes=36, scale=0.05),
    "loadcurve72": partial(
        loadcurve72, system=tiny_system(), num_ranks=16, measurement_ns=10_000.0
    ),
    "flowscale": partial(
        flowscale,
        mix_system=tiny_system(),
        mix_nodes=36,
        shift_system=tiny_system(),
        shift_ranks=32,
        accuracy_scale=0.02,
    ),
    "sweep72": partial(sweep72, scale=0.01),
}


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    """One traced record per workload, plus the span file each run wrote."""
    out = tmp_path_factory.mktemp("perf")
    found = {}
    for name, build in TOY_BUILDERS.items():
        record = perf_harness.run_workload(
            build, seed=7, seconds=0.0, trace=True, out_dir=out
        )
        spans = json.loads((out / f"trace-{name}.json").read_text())
        found[name] = (record, spans)
    return found


def test_definition_and_builders_name_the_same_workloads():
    assert [spec["name"] for spec in DEFINITION["workloads"]] == list(BUILDERS)
    assert list(TOY_BUILDERS) == list(BUILDERS)


@pytest.mark.parametrize("workload", list(BUILDERS))
def test_every_defined_metric_is_emitted_and_vice_versa(records, workload):
    record, _ = records[workload]
    assert record["workload"] == workload
    assert record["failed"] == 0, record["failures"]
    assert record["attempted"] >= 1
    for group in ("end_to_end", "per_layer"):
        defined = [spec["name"] for spec in DEFINITION[group]]
        assert sorted(record[group]) == sorted(defined)
        assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in defined)
    for entry in record["end_to_end"].values():
        assert entry["value"] > 0  # end-to-end metrics are never 0


@pytest.mark.parametrize("workload", list(BUILDERS))
def test_sampler_shares_sum_to_one(records, workload):
    record, _ = records[workload]
    shares = [v for k, v in record["per_layer"].items() if k.endswith(".self_share")]
    if record["sampler_samples"] and any(record["sampler_samples"].values()):
        assert sum(shares) == pytest.approx(1.0, abs=0.01)
    assert all(0.0 <= share <= 1.0 for share in shares)


@pytest.mark.parametrize("workload", list(BUILDERS))
def test_spans_nest_and_self_times_are_non_negative(records, workload):
    record, spans = records[workload]
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        assert span["end"] >= span["start"]
        assert span["workload"] == workload
        if span["parent"] is not None:
            parent = by_id[span["parent"]]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
    assert all(self_s >= 0.0 for self_s in record["span_self_s"].values())
    # The traced repetition's spans account for (nearly) all of its wall.
    traced = [s for s in spans if s["name"] == "harness.repetition" and s.get("traced")]
    assert len(traced) == 1
    covered = sum(
        s["end"] - s["start"] for s in spans if s["parent"] == traced[0]["id"]
    )
    assert covered >= 0.95 * (traced[0]["end"] - traced[0]["start"])


def test_sampler_attributes_files_to_repro_packages():
    assert layer_of("/x/src/repro/network/router.py") == "network"
    assert layer_of("/x/src/repro/config.py") == "config"
    assert layer_of("/usr/lib/python3.11/heapq.py") is None


def test_check_passes_against_itself_and_fails_on_a_slower_copy(records, tmp_path, capsys):
    full = {"seed": 7, "workloads": {name: record for name, (record, _) in records.items()}}
    # Toy repetitions last milliseconds and spread widely; pin the quartiles so
    # the verdict below is about the slowdown, not about toy-size noise.
    for record in full["workloads"].values():
        for entry in record["end_to_end"].values():
            if "q1" in entry:
                entry["q1"] = entry["q3"] = entry["value"]
    slower = copy.deepcopy(full)
    bound = next(spec["bound"] for spec in DEFINITION["end_to_end"] if spec["name"] == "wall_s")
    slower["workloads"]["mix1056"]["end_to_end"]["wall_s"]["value"] *= 1 + 2 * bound
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(full))
    b.write_text(json.dumps(slower))
    assert check_records(a, a, DEFINITION) == 0
    assert check_records(a, b, DEFINITION) == 1
    assert "REGRESSION" in capsys.readouterr().out
    # A drifted machine makes the same pair unresolved, not a regression.
    slower["workloads"]["mix1056"]["host.calib_s"]["value"] *= 1.2  # > CALIB_DRIFT
    b.write_text(json.dumps(slower))
    assert check_records(a, b, DEFINITION) == 0
    assert "unresolved" in capsys.readouterr().out
