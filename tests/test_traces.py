"""Tests of the trace subsystem: format strictness, hashing, and the
record→replay equivalence contract.

The headline contract — recording a job and replaying its trace reproduces
the original run's per-app metrics **bit-identically** — is enforced here
across several Table I applications and routing algorithms.  The parser
tests pin the strictness guarantees of :mod:`repro.traces.format`: every
malformed, truncated or version-mismatched input fails with an error naming
the offending file:line (and, for op records, the rank and op index).
"""

import json
from pathlib import Path

import pytest

from repro.config import SimulationConfig, tiny_system
from repro.experiments.configs import AppSpec
from repro.experiments.scenario import Scenario, scenario_hash
from repro.results import flatten_run
from repro.results.schema import METRIC_SEP
from repro.traces import (
    TRACE_VERSION,
    ComputeRecord,
    RecvRecord,
    SendRecord,
    Trace,
    TraceError,
    WaitRecord,
    record_scenario,
    replay_scenario,
    trace_file_hash,
    trace_hash,
)


def _tiny_scenario(app: str = "FFT3D", routing: str = "par", **kwargs) -> Scenario:
    job_kwargs = {"scale": 0.2, "seed": 5}
    job_kwargs.update(kwargs)
    return Scenario(
        name=f"test/{app}",
        jobs=(AppSpec(app, 8, job_kwargs),),
        config=SimulationConfig(system=tiny_system(), seed=3).with_routing(routing),
        placement="random",
    )


def _hand_trace(scenario=None) -> Trace:
    """A small hand-built two-rank trace exercising every record kind."""
    return Trace(
        app="FFT3D",
        num_ranks=2,
        rank_ops=(
            (
                SendRecord(dst_rank=1, size_bytes=64, tag=7, t_ns=0.0),
                RecvRecord(src_rank=1, tag=9, t_ns=0.0),
                WaitRecord(requests=(0, 1), t_ns=10.0),
                ComputeRecord(duration_ns=500.0, t_ns=20.0),
            ),
            (
                SendRecord(dst_rank=0, size_bytes=32, tag=9, t_ns=0.0),
                RecvRecord(src_rank=0, tag=7, t_ns=0.0),
                WaitRecord(requests=(0, 1), t_ns=12.0),
            ),
        ),
        peak_ingress_bytes=64,
        message_volume_per_rank=96,
        scenario=scenario,
    )


# ------------------------------------------------------------------ round-trip
def test_trace_payload_round_trip():
    trace = _hand_trace()
    assert Trace.from_payload(trace.to_payload()) == trace
    assert trace.op_count == 7


def test_trace_file_round_trip(tmp_path):
    trace = _hand_trace(scenario={"name": "test/provenance"})
    path = trace.dump(tmp_path / "t.trace.jsonl")
    loaded = Trace.load(path)
    assert loaded == trace
    assert loaded.scenario == {"name": "test/provenance"}


def test_trace_hash_is_content_addressed(tmp_path):
    trace = _hand_trace()
    assert trace_hash(trace) == trace_hash(Trace.from_payload(trace.to_payload()))
    path = trace.dump(tmp_path / "t.trace.jsonl")
    assert trace_file_hash(str(path)) == trace_hash(trace)
    # A different trace hashes differently.
    other = _hand_trace(scenario={"name": "test/other"})
    assert trace_hash(other) != trace_hash(trace)


# ------------------------------------------------------------ strict parsing
def _dump_lines(tmp_path: Path) -> list:
    path = _hand_trace().dump(tmp_path / "t.trace.jsonl")
    return path.read_text().splitlines()


def _write(tmp_path: Path, lines) -> Path:
    path = tmp_path / "broken.trace.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_load_rejects_version_mismatch(tmp_path):
    lines = _dump_lines(tmp_path)
    header = json.loads(lines[0])
    header["version"] = TRACE_VERSION + 1
    path = _write(tmp_path, [json.dumps(header)] + lines[1:])
    with pytest.raises(TraceError, match=rf"{path.name}:1: unsupported trace version"):
        Trace.load(path)


def test_load_rejects_truncated_file(tmp_path):
    lines = _dump_lines(tmp_path)
    path = _write(tmp_path, lines[:-1])  # drop the end record
    with pytest.raises(TraceError, match="truncated trace .no end record"):
        Trace.load(path)


def test_load_rejects_partial_op_stream(tmp_path):
    lines = _dump_lines(tmp_path)
    path = _write(tmp_path, lines[:3] + [lines[-1]])  # ops missing, end kept
    with pytest.raises(TraceError, match="end record declares 7 ops but 2 were read"):
        Trace.load(path)


def test_load_rejects_malformed_op_naming_rank_and_line(tmp_path):
    lines = _dump_lines(tmp_path)
    op = json.loads(lines[1])
    del op["size_bytes"]
    path = _write(tmp_path, [lines[0], json.dumps(op)] + lines[2:])
    with pytest.raises(
        TraceError, match=rf"{path.name}:2: rank 0 op 0: send record is missing"
    ):
        Trace.load(path)


def test_load_rejects_unknown_op_field(tmp_path):
    lines = _dump_lines(tmp_path)
    op = json.loads(lines[1])
    op["priority"] = 3
    path = _write(tmp_path, [lines[0], json.dumps(op)] + lines[2:])
    with pytest.raises(TraceError, match=r"rank 0 op 0: send record has unknown field"):
        Trace.load(path)


def test_load_rejects_invalid_json_line(tmp_path):
    lines = _dump_lines(tmp_path)
    path = _write(tmp_path, [lines[0], "{not json"] + lines[2:])
    with pytest.raises(TraceError, match=rf"{path.name}:2: invalid JSON"):
        Trace.load(path)


def test_load_rejects_out_of_range_rank(tmp_path):
    lines = _dump_lines(tmp_path)
    op = json.loads(lines[1])
    op["rank"] = 5
    path = _write(tmp_path, [lines[0], json.dumps(op)] + lines[2:])
    with pytest.raises(TraceError, match=r":2: rank 5 out of range for 2 ranks"):
        Trace.load(path)


def test_load_rejects_duplicate_header_and_trailing_content(tmp_path):
    lines = _dump_lines(tmp_path)
    with pytest.raises(TraceError, match=r":3: duplicate header record"):
        Trace.load(_write(tmp_path, lines[:2] + [lines[0]] + lines[2:]))
    with pytest.raises(TraceError, match="content after the end record"):
        Trace.load(_write(tmp_path, lines + [lines[1]]))


def test_payload_rejects_wait_forward_reference():
    payload = _hand_trace().to_payload()
    payload["ranks"][0][2]["requests"] = [3]  # wait at index 2 referencing 3
    with pytest.raises(TraceError, match=r"rank 0 op 2: wait references op 3"):
        Trace.from_payload(payload)


def test_payload_rejects_wait_on_non_request():
    payload = _hand_trace().to_payload()
    payload["ranks"][0].append({"op": "wait", "requests": [3], "t_ns": 30.0})
    with pytest.raises(TraceError, match="which is a ComputeRecord, not a send/recv"):
        Trace.from_payload(payload)


def test_payload_rejects_version_mismatch_and_bool_fields():
    payload = _hand_trace().to_payload()
    payload["version"] = 99
    with pytest.raises(TraceError, match="unsupported trace version 99"):
        Trace.from_payload(payload)
    payload = _hand_trace().to_payload()
    payload["ranks"][0][0]["size_bytes"] = True
    with pytest.raises(TraceError, match="'size_bytes' must be an integer"):
        Trace.from_payload(payload)


# --------------------------------------------------- record→replay equivalence
#: The simulation-determined per-app metric set the equivalence contract is
#: stated over.  Descriptive ``pattern_metrics`` knobs (``payload_bytes`` …)
#: are excluded: they describe the generator, not the simulated traffic.
PER_APP_KEYS = frozenset(
    {
        "comm_time_ns",
        "comm_time_std_ns",
        "execution_time_ns",
        "finish_time_ns",
        "injection_rate_gbps",
        "peak_ingress_bytes",
        "start_time_ns",
        "total_msg_bytes",
    }
)


def _per_app_metrics(result, app: str):
    metrics = flatten_run(result)
    picked = {
        key.split(METRIC_SEP, 1)[0]: value
        for key, value in metrics.items()
        if key.split(METRIC_SEP, 1)[0] in PER_APP_KEYS
        and (key.endswith(f"{METRIC_SEP}{app}") or key.endswith(f"{METRIC_SEP}trace"))
    }
    assert set(picked) == PER_APP_KEYS  # every contract metric must be present
    return picked


EQUIVALENCE_CASES = [
    ("FFT3D", "par"),
    ("FFT3D", "ugal-g"),
    ("Halo3D", "par"),
    ("Halo3D", "q-adaptive"),
    ("LU", "par"),
    ("LU", "valiant"),
    ("ml.ring_allreduce", "par"),
    ("ml.moe_alltoall", "minimal"),
]


@pytest.mark.parametrize("app,routing", EQUIVALENCE_CASES)
def test_record_replay_reproduces_per_app_metrics_bit_identically(app, routing):
    """The headline contract: replaying a recorded job under the recording
    configuration reproduces its per-app metrics bit-identically."""
    scenario = _tiny_scenario(app, routing)
    original, traces = record_scenario(scenario)
    replay = replay_scenario(traces[app])
    assert replay.name == f"trace/{app}"
    replayed = replay.run()
    assert _per_app_metrics(replayed, "trace") == _per_app_metrics(original, app)


def test_record_replay_equivalence_survives_the_file_round_trip(tmp_path):
    scenario = _tiny_scenario("FFT3D", "par")
    original, traces = record_scenario(scenario)
    path = traces["FFT3D"].dump(tmp_path / "fft3d.trace.jsonl")
    replayed = replay_scenario(str(path)).run()
    assert _per_app_metrics(replayed, "trace") == _per_app_metrics(original, "FFT3D")


def test_replay_overrides_change_conditions_not_traffic(tmp_path):
    _, traces = record_scenario(_tiny_scenario("FFT3D", "par"))
    replay = replay_scenario(traces["FFT3D"], routing="ugal-g", seed=9, name="trace/alt")
    assert replay.name == "trace/alt"
    assert replay.config.routing.algorithm == "ugal-g"
    assert replay.config.seed == 9
    result = replay.run()
    metrics = flatten_run(result)
    # Same traffic volume, different network conditions.
    assert metrics[f"total_msg_bytes{METRIC_SEP}trace"] > 0


def test_cli_replay_rejects_a_bad_override_with_exit_2(tmp_path, capsys):
    from repro.cli import main

    path = _hand_trace().dump(tmp_path / "hand.trace.jsonl")
    assert main(["trace", "replay", str(path), "--routing", "bogus"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "bogus" in captured.err
    assert not captured.out


# ------------------------------------------------- scenario hash integration
def test_file_backed_trace_job_serializes_its_content_hash(tmp_path):
    _, traces = record_scenario(_tiny_scenario("FFT3D", "par"))
    path = traces["FFT3D"].dump(tmp_path / "fft3d.trace.jsonl")
    replay = replay_scenario(str(path))
    document = replay.to_dict()
    (job,) = document["jobs"]
    assert job["trace_hash"] == trace_file_hash(str(path))
    # Round-trip through the serialized form verifies the hash silently.
    assert scenario_hash(Scenario.from_dict(document)) == scenario_hash(replay)


def test_tampered_trace_file_fails_scenario_deserialization(tmp_path):
    _, traces = record_scenario(_tiny_scenario("FFT3D", "par"))
    path = traces["FFT3D"].dump(tmp_path / "fft3d.trace.jsonl")
    document = replay_scenario(str(path)).to_dict()
    # Rewrite the file under a NEW path (trace_file_hash caches by path) and
    # point the serialized job at it while keeping the stale hash.
    tampered = traces["FFT3D"].dump(tmp_path / "tampered.trace.jsonl")
    lines = tampered.read_text().splitlines()
    op = json.loads(lines[1])
    op["t_ns"] = op["t_ns"] + 1.0  # still a valid trace, different content
    tampered.write_text("\n".join([lines[0], json.dumps(op)] + lines[2:]) + "\n")
    document["jobs"][0]["kwargs"]["trace"] = str(tampered)
    with pytest.raises(ValueError, match="the trace changed since this scenario"):
        Scenario.from_dict(document)


def test_inline_trace_job_round_trips_without_a_file():
    _, traces = record_scenario(_tiny_scenario("FFT3D", "par"))
    replay = replay_scenario(traces["FFT3D"].to_payload())
    document = replay.to_dict()
    (job,) = document["jobs"]
    assert "trace_hash" not in job  # inline payloads carry their own content
    rebuilt = Scenario.from_dict(document)
    assert scenario_hash(rebuilt) == scenario_hash(replay)


def test_trace_jobs_reject_resizing():
    _, traces = record_scenario(_tiny_scenario("FFT3D", "par"))
    from repro.workloads import create_application

    with pytest.raises(ValueError, match="cannot be resized"):
        create_application("trace", 4, trace=traces["FFT3D"].to_payload())
