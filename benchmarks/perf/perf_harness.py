"""Measure one workload from outside: set-up, timed repetitions, store passes.

Everything here times calls into public ``repro`` functions and reads exact
counts off their return values; nothing inside ``src/repro`` is instrumented.
:func:`run_workload` returns one JSON-serializable record (see README.md for
the glossary).  A failing output check is *counted* (``failed``/``failures``)
and never raised past this module.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from perf_tracing import Sampler, Tracer
from perf_workloads import SWEEP_WORKERS, Workload

from repro.analysis.reports import build_report
from repro.backends import active_backend, backend_names
from repro.config import SimulationConfig, paper_system
from repro.experiments.scenario import Scenario, scenario_hash
from repro.experiments.sweep import SweepError, run_sweep
from repro.network.network import DragonflyNetwork
from repro.results import ResultStore, flatten_run
from repro.traces import Trace, record_scenario, replay_scenario

#: Fewest timed repetitions, however short ``--seconds`` is.
MIN_REPETITIONS = 3
#: Store-only passes after each timed repetition, behind ``store_pass_ms``.
PASSES_PER_REPETITION = 15
#: Packages the sampler's shares are reported for; the rest is ``other``.
SAMPLED_LAYERS = ["core", "network", "routing", "stats", "mpi", "workloads", "flow"]

SRC_DIR = Path(__file__).resolve().parents[2] / "src"


# ------------------------------------------------------------------ statistics
def summarize(samples: Sequence[float], value: Optional[float] = None) -> dict:
    """Best of the samples (or ``value``) with median, quartiles and the count.

    Every timing the benchmark reports is the *minimum* of its repetitions:
    this sandbox slows down by 20-30 % for 10-20 s at a time (never speeds
    up), and on a fixed scenario best-of-6 repeats within 2.8 % where
    median-of-6 repeats within 6.2 % (README.md, "Noise").
    """
    ordered = sorted(samples)
    q1, median, q3 = statistics.quantiles(ordered, n=4)
    return {
        "value": ordered[0] if value is None else value,
        "median": median,
        "q1": q1,
        "q3": q3,
        "n": len(ordered),
    }


def best_by_key(samples: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Smallest value per key over the samples that have the key."""
    best: Dict[str, float] = {}
    for sample in samples:
        for key, value in sample.items():
            best[key] = min(value, best.get(key, value))
    return best


def digest(metrics: Dict[str, float]) -> str:
    """sha256 of the sorted ``flatten_run`` rows of one run."""
    blob = json.dumps(sorted(metrics.items()), separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def calibrate() -> float:
    """Fixed heapq+dict micro-kernel: tells machine drift from code change."""
    heap: List[int] = []
    table: Dict[int, int] = {}
    start = time.perf_counter()
    for i in range(200_000):
        heapq.heappush(heap, (i * 7919) % 100_003)
        table[i & 1023] = i
        if i & 1:
            heapq.heappop(heap)
    return time.perf_counter() - start


def environment(seed: int) -> dict:
    """Provenance stamp of a record."""
    repo = SRC_DIR.parent
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=repo, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit or "unknown",
        "seed": seed,
    }


def peak_rss_mb(with_workers: bool) -> float:
    """Peak RSS of this process, plus its largest sweep worker's, MiB.

    Only sweep workers count as children: any other child (``git``, the CLI
    probe) is a fork of this process whose pre-exec RSS is this process's own.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_workers:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0


# --------------------------------------------------------------------- checks
class Checks:
    """Counts operations and the ones whose output check failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []
        self.digests: Dict[str, str] = {}

    def operation(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def run_output(self, label: str, scenario: Scenario, metrics: Dict[str, float]) -> None:
        """One completed run or sweep cell: conservation and determinism."""
        problems = []
        if not scenario.config.windowed:  # closed loop: everything sent arrives
            for sent, received in (
                ("packets_injected", "packets_ejected"),
                ("messages_injected", "messages_delivered"),
            ):
                if sent in metrics and metrics[sent] != metrics[received]:
                    problems.append(f"{sent}={metrics[sent]} != {received}={metrics[received]}")
        fresh = digest(metrics)
        if self.digests.setdefault(label, fresh) != fresh:
            problems.append("flatten_run digest differs between repetitions")
        self.operation(not problems, f"{label}: {'; '.join(problems)}")


# ----------------------------------------------------------------- repetitions
@dataclass
class Repetition:
    """What one repetition produced, per scenario label, and its total wall."""

    wall: Dict[str, float] = field(default_factory=dict)
    flatten: Dict[str, float] = field(default_factory=dict)
    metrics: Dict[str, Dict[str, float]] = field(default_factory=dict)
    total: float = 0.0


def _direct_repetition(
    workload: Workload, tracer: Tracer, checks: Checks, sampler: Optional[Sampler]
) -> Repetition:
    """``Scenario.run`` + ``flatten_run`` per scenario, results dropped between runs."""
    rep = Repetition()
    for label, scenario in workload.scenarios.items():
        routing = scenario.config.routing.algorithm
        with tracer.span("experiments.run", scenario=label, routing=routing) as run_span:
            try:
                with sampler.running(label) if sampler else nullcontext():
                    result = scenario.run()
            except Exception as exc:  # counted, never raised past the harness
                checks.operation(False, f"{label}: {type(exc).__name__}: {exc}")
                continue
        with tracer.span("results.flatten", scenario=label) as flatten_span:
            metrics = flatten_run(result)
        del result
        with tracer.span("harness.check"):
            checks.run_output(label, scenario, metrics)
        with tracer.span("harness.gc"):
            # A retained 1,056-node result holds ~1M live records; the next
            # run must not be timed against its GC traversal cost.
            gc.collect()
        rep.wall[label] = run_span.duration + flatten_span.duration
        rep.flatten[label] = flatten_span.duration
        rep.metrics[label] = metrics
    rep.total = sum(rep.wall.values())
    return rep


def _sweep_repetition(
    workload: Workload, tracer: Tracer, checks: Checks, sampler: Optional[Sampler], store: Path
) -> Repetition:
    """One cold ``run_sweep`` of the whole grid into a fresh store."""
    rep = Repetition()
    grid = list(workload.scenarios.values())
    with tracer.span("experiments.run_sweep", cold=True) as span:
        try:
            with sampler.running("run_sweep") if sampler else nullcontext():
                results = run_sweep(grid, workers=SWEEP_WORKERS, store=store)
        except SweepError as exc:
            results = exc.results
    with tracer.span("harness.check"):
        for label, result in zip(workload.scenarios, results):
            if result.failed or result.cached:
                checks.operation(False, f"{label}: {result.error or 'served from a fresh store'}")
                continue
            checks.run_output(label, result.scenario, result.metrics)
            rep.wall[label] = result.wall_seconds
            rep.metrics[label] = result.metrics
    rep.total = span.duration
    return rep


# ------------------------------------------------------ set-up and store passes
# The set-up samples and the store passes last milliseconds each.  Taken back
# to back they would all sit inside one of the sandbox's 1-2 s slow bursts (a
# single run measured 0.60 ms instead of 0.37 ms for all of 50 passes), so one
# set-up sample is taken before, and a slice of passes after, every timed
# repetition: the best of them comes from several seconds apart.
def _setup_sample(
    build: Callable[[int], Workload], seed: int, tracer: Tracer, store: Path
) -> Dict[str, float]:
    """One sample of every part of ``setup_s``, keyed by part."""
    with tracer.span("experiments.build_scenarios") as span:
        workload = build(seed)
    sample = {"scenarios": span.duration}
    with tracer.span("results.open_store") as span:
        ResultStore(store).close()
    sample["store"] = span.duration
    for label, scenario in workload.scenarios.items():
        # Build the simulator stack (topology tables, routers, Q-tables,
        # placement, MPI jobs) without processing events.
        stub = replace(scenario, config=replace(scenario.config, max_events=1))
        with tracer.span("experiments.build_only", scenario=label) as span:
            result = stub.run(require_completion=False)
        del result
        gc.collect()
        sample[label] = span.duration
    return sample


class StorePath:
    """The store-only path of one workload: record once, then warm passes."""

    def __init__(
        self, workload: Workload, store: ResultStore, tracer: Tracer, checks: Checks
    ) -> None:
        self.workload, self.store, self.tracer, self.checks = workload, store, tracer, checks
        self.rows: Dict[str, Dict[str, float]] = {}
        # Samples, seconds.
        self.record_s: List[float] = []
        self.get_s: List[float] = []
        self.warm_s: List[float] = []
        self.report_s: List[float] = []
        self.pass_s: List[float] = []

    def record_rows(self, cold: Repetition) -> None:
        """Record one repetition's rows and read them back."""
        self.rows = cold.metrics
        for label, metrics in self.rows.items():
            scenario = self.workload.scenarios[label]
            with self.tracer.span("results.record", scenario=label) as span:
                self.store.record(scenario, metrics, cold.wall[label])
            self.record_s.append(span.duration)
            with self.tracer.span("results.get", scenario=label) as span:
                stored = self.store.get(scenario)
            self.get_s.append(span.duration)
            self.checks.operation(
                stored is not None and stored.metrics == metrics,
                f"{label}: stored metrics differ from the run's",
            )

    def one_pass(self) -> None:
        """What a user with a warm store pays: one all-cached ``run_sweep`` of
        the workload's scenarios plus the workload's reports, zero simulation."""
        tracer, reports = self.tracer, self.workload.reports
        grid = [self.workload.scenarios[label] for label in self.rows]
        rendered: List[str] = []
        with tracer.span("harness.store_pass") as whole:
            with tracer.span("experiments.run_sweep", cold=False) as warm:
                try:
                    cells = run_sweep(grid, workers=SWEEP_WORKERS, store=self.store)
                except SweepError as exc:
                    cells = exc.results
            with tracer.span("analysis.build_report") as report:
                for name in reports:
                    try:
                        text = build_report(self.store, name, fmt="markdown", routing="par")
                    except Exception as exc:  # counted below, never raised
                        text = f"{type(exc).__name__}: {exc}"
                    rendered.append(text)
        self.warm_s.append(warm.duration)
        self.report_s.append(report.duration)
        self.pass_s.append(whole.duration)
        for (label, metrics), cell in zip(self.rows.items(), cells):
            self.checks.operation(
                cell.cached and cell.metrics == metrics,
                f"{label}: warm cell not cached or != cold metrics",
            )
        for name, text in zip(reports, rendered):
            self.checks.operation("|" in text, f"report {name}: no table: {text[:80]}")


# --------------------------------------------------------------------- probes
def _best_of(times: int, body: Callable[[], float]) -> float:
    return min(body() for _ in range(times))


def _calendar_ops_per_s() -> float:
    """Schedule+fire 200k no-op events on the default backend's calendar.

    1,000 timers that re-arm themselves keep the heap at the depth the 72-node
    runs see, instead of timing one 200k-deep heap.
    """
    sim = active_backend(SimulationConfig()).create_simulator()
    remaining = [200_000]

    def tick(period: float) -> None:
        remaining[0] -= 1
        if remaining[0] >= 1_000:
            sim.schedule(period, tick, period)

    start = time.perf_counter()
    for timer in range(1_000):
        sim.schedule(float(timer % 97), tick, 1.0 + timer % 13)
    sim.run()
    return sim.events_fired / (time.perf_counter() - start)


def _network_build_s() -> float:
    config = SimulationConfig(system=paper_system())
    backend = active_backend(config)
    start = time.perf_counter()
    network = DragonflyNetwork(backend.create_simulator(), config, backend=backend)
    elapsed = time.perf_counter() - start
    del network
    gc.collect()
    return elapsed


def _cli_startup_s() -> float:
    env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "repro.cli", "scenarios"],
        env=env, check=True, stdout=subprocess.DEVNULL, timeout=60,
    )
    return time.perf_counter() - start


def _per_call_us(items: Sequence[object], call: Callable[..., object]) -> float:
    """Median over the items of the best of five ``call(item)`` each, microseconds."""
    best = []
    for item in items:
        samples = []
        for _ in range(5):
            start = time.perf_counter()
            call(item)
            samples.append(time.perf_counter() - start)
        best.append(min(samples))
    return statistics.median(best) * 1e6


def _timed_run(scenario: Scenario) -> float:
    start = time.perf_counter()
    result = scenario.run()
    elapsed = time.perf_counter() - start
    del result
    gc.collect()
    return elapsed


def _trace_probe(scenario: Scenario, checks: Checks, tmp: Path) -> dict:
    """Record, load and replay one scenario's trace (guard for observer hooks)."""
    plain_s = _timed_run(scenario)
    start = time.perf_counter()
    result, traces = record_scenario(scenario)
    recorded_s = time.perf_counter() - start
    recorded = flatten_run(result)
    del result
    trace = next(iter(traces.values()))
    path = tmp / "probe.trace.jsonl"
    trace.dump(path)
    start = time.perf_counter()
    Trace.load(path)
    load_s = time.perf_counter() - start
    replay = replay_scenario(path)
    start = time.perf_counter()
    replayed = flatten_run(replay.run())
    replay_s = time.perf_counter() - start
    checks.operation(
        replayed["bytes_ejected"] == recorded["bytes_ejected"],
        f"trace replay of {scenario.name} moved different bytes than the recording",
    )
    return {
        "traces.record_overhead_ratio": recorded_s / plain_s,
        "traces.load_ms": load_s * 1e3,
        "traces.replay_s": replay_s,
    }


def _accuracy(pair: Sequence[Scenario], tracer: Tracer, checks: Checks) -> float:
    """|flow - packet| / packet simulated makespan; volumes must match exactly."""
    rows = []
    for scenario in pair:
        with tracer.span("experiments.run", scenario=f"accuracy/{scenario.config.fidelity}"):
            rows.append(flatten_run(scenario.run()))
    packet, flow = rows
    checks.operation(
        flow["bytes_ejected"] == packet["bytes_ejected"],
        "flow fidelity changed the communication volume",
    )
    return abs(flow["makespan_ns"] - packet["makespan_ns"]) / packet["makespan_ns"]


# ------------------------------------------------------------------- workload
def run_workload(
    build: Callable[[int], Workload], seed: int, seconds: float, trace: bool, out_dir: Path
) -> dict:
    """Run one workload and return its record (see module docstring)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=out_dir))
    tracer = Tracer()
    try:
        return _measure(build, seed, seconds, trace, tracer, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if trace:
            spans = [span.as_dict() for span in tracer.spans]
            (out_dir / f"trace-{tracer.workload}.json").write_text(json.dumps(spans) + "\n")


def _measure(
    build: Callable[[int], Workload],
    seed: int,
    seconds: float,
    trace: bool,
    tracer: Tracer,
    tmp: Path,
) -> dict:
    # Spawns git; first, while this process is small: a fork's pre-exec RSS is
    # its parent's, and would count as a sweep worker's.
    env = environment(seed)
    workload = build(seed)
    tracer.workload = workload.name
    checks = Checks()

    def repetition(sampler: Optional[Sampler]) -> Repetition:
        if workload.sweep:
            store = tmp / f"cold-{tracer.repetition}.sqlite"
            return _sweep_repetition(workload, tracer, checks, sampler, store)
        return _direct_repetition(workload, tracer, checks, sampler)

    # ---- closed loop: the next run starts when the last ends.  One iteration
    # is a calibration, a set-up sample, a timed repetition, a slice of passes.
    reps: List[Repetition] = []
    calib_s: List[float] = []
    setups: List[Dict[str, float]] = []
    passes = tmp / "passes.sqlite"
    began = time.perf_counter()
    with ResultStore(passes) as store:
        warm = StorePath(workload, store, tracer, checks)
        # Stop where one more iteration would overshoot ``seconds`` by more
        # than it undershoots now.
        while len(reps) < MIN_REPETITIONS or (
            (time.perf_counter() - began) * (1 + 0.5 / len(reps)) < seconds
        ):
            tracer.repetition = len(reps)
            calib_s.append(calibrate())
            setups.append(_setup_sample(build, seed, tracer, tmp / f"open-{len(reps)}.sqlite"))
            with tracer.span("harness.repetition"):
                reps.append(repetition(None))
            if len(reps) == 1:
                warm.record_rows(reps[0])
            for _ in range(PASSES_PER_REPETITION):
                warm.one_pass()
    rss_mb = peak_rss_mb(with_workers=workload.sweep)  # before the probes spawn anything

    sampler = Sampler()
    traced: Optional[Repetition] = None
    if trace:
        tracer.repetition = len(reps)
        with tracer.span("harness.repetition", traced=True):
            traced = repetition(sampler)
    traced_repetition = tracer.repetition
    tracer.repetition = -1
    pair = workload.accuracy_pair
    rel_err = _accuracy(pair, tracer, checks) if pair else 0.0

    # ---- end-to-end: best sample per scenario (or set-up part), then summed,
    # so a slow phase that hits a scenario in every repetition but one cannot
    # move the result.
    best_wall = best_by_key([r.wall for r in reps])
    wall_s = min(r.total for r in reps) if workload.sweep else sum(best_wall.values())
    setup_s = sum(best_by_key(setups).values())
    record = {
        "workload": workload.name,
        "env": env,
        "repetitions": len(reps),
        "sim_digest": checks.digests,
        "end_to_end": {
            "wall_s": {**summarize([r.total for r in reps], wall_s), "unit": "s"},
            "setup_s": {
                **summarize([sum(sample.values()) for sample in setups], setup_s), "unit": "s"
            },
            "peak_rss_mb": {"value": rss_mb, "unit": "MiB", "n": 1},
            "store_pass_ms": {**summarize([t * 1e3 for t in warm.pass_s]), "unit": "ms"},
        },
        "host.calib_s": summarize(calib_s),
        "wall_samples_s": {label: [r.wall.get(label) for r in reps] for label in best_wall},
    }
    if traced is not None:
        layers = _per_layer(workload, reps, best_wall, wall_s, tracer, checks, tmp)
        layers.update({f"{k}.self_share": v for k, v in sampler.shares(SAMPLED_LAYERS).items()})
        layers.update({
            "experiments.build_s": min(sample["scenarios"] for sample in setups),
            "experiments.sweep.warm_ms": min(warm.warm_s) * 1e3,
            "results.record_ms": statistics.median(warm.record_s) * 1e3,
            "results.get_ms": statistics.median(warm.get_s) * 1e3,
            "results.db_bytes": float(passes.stat().st_size),
            "analysis.report_ms": min(warm.report_s) * 1e3 if workload.reports else 0.0,
            "flow.makespan_rel_err": rel_err,
            "host.calib_s": min(calib_s),
            "trace.overhead_ratio": traced.total / statistics.median(r.total for r in reps),
        })
        record["per_layer"] = layers
        record["span_self_s"] = tracer.self_times(traced_repetition)
        record["sampler_samples"] = sampler.counts
    record.update(
        attempted=checks.attempted, failed=len(checks.failures), failures=checks.failures[:20]
    )
    return record


def _per_layer(
    workload: Workload,
    reps: List[Repetition],
    best_wall: Dict[str, float],
    wall_s: float,
    tracer: Tracer,
    checks: Checks,
    tmp: Path,
) -> Dict[str, float]:
    """Exact counts, sums of span times, and the isolated probes.

    A metric whose subject does not run on this workload reads 0: its time or
    count here *is* zero (``flow.mix1000.run_s`` on ``mix1056``, say).
    """
    last = reps[-1]
    scenarios = list(workload.scenarios.values())

    def total(key: str) -> float:
        return float(sum(metrics.get(key, 0) for metrics in last.metrics.values()))

    def routed_s(algorithm: str) -> float:
        return sum(
            wall
            for label, wall in best_wall.items()
            if workload.scenarios[label].config.routing.algorithm == algorithm
        )

    events = total("events_fired")
    mix_s = best_wall.get("mix1000", 0.0)
    layers = {
        "core.events_fired": events,
        "core.events_per_s": events / wall_s if wall_s else 0.0,
        "core.calendar_ops_per_s": max(_calendar_ops_per_s() for _ in range(3)),
        "network.packets_ejected": total("packets_ejected"),
        "network.build_s": _best_of(3, _network_build_s),
        "routing.par.run_s": routed_s("par"),
        "routing.qadaptive.run_s": routed_s("q-adaptive"),
        "stats.flatten_ms": sum(best_by_key([r.flatten for r in reps]).values()) * 1e3,
        "mpi.messages_delivered": total("messages_delivered"),
        "flow.mix1000.run_s": mix_s,
        "flow.shift40k.run_s": best_wall.get("shift40k", 0.0),
        "flow.mix1000.events_per_s": (
            last.metrics["mix1000"]["events_fired"] / mix_s if mix_s else 0.0
        ),
        "backends.fast.run_s": 0.0,
        "experiments.scenario_hash_us": _per_call_us(scenarios, scenario_hash),
        "experiments.from_json_us": _per_call_us(
            [scenario.to_json() for scenario in scenarios], Scenario.from_json
        ),
        "experiments.sweep.cold_s": wall_s if workload.sweep else 0.0,
        "experiments.sweep.parallel_eff": (
            statistics.median(sum(r.wall.values()) / (SWEEP_WORKERS * r.total) for r in reps)
            if workload.sweep
            else 0.0
        ),
        "traces.record_overhead_ratio": 0.0,
        "traces.load_ms": 0.0,
        "traces.replay_s": 0.0,
        "cli.startup_s": _best_of(3, _cli_startup_s),
    }
    if workload.fast_probe is not None and "fast" in backend_names():
        scenario = workload.scenarios[workload.fast_probe]
        fast = replace(scenario, config=scenario.config.with_backend("fast"))
        with tracer.span("experiments.run", scenario=f"{workload.fast_probe}[fast]"):
            layers["backends.fast.run_s"] = _timed_run(fast)
    if workload.trace_probe is not None:
        with tracer.span("traces.probe"):
            layers.update(_trace_probe(workload.scenarios[workload.trace_probe], checks, tmp))
    return layers
