"""Mixed-workload analysis (Section VI).

Six applications with distinct communication patterns co-run on the system
(job sizes proportional to Table II).  Per-application interference is
measured against per-application standalone baselines (Fig. 10):
:func:`mixed_rows_from_store` reads the recorded ``mixed/table2`` and
``mixed/solo/<App>`` runs (see
:func:`repro.experiments.scenario.mixed_solo_scenarios`) back out of a
:class:`~repro.results.ResultStore` with zero simulation.  The system-wide
views of the mixed run — stall-time maps (Fig. 11), the congestion-index
matrix (Fig. 12), packet latency and throughput (Fig. 13) — are the
:mod:`repro.metrics` functions applied to its
:class:`~repro.experiments.runner.RunResult`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.results import ResultStore

from repro.metrics.interference import InterferenceSummary

__all__ = ["mixed_rows_from_store"]

#: Scenario names the store-backed Fig. 10 rows are looked up under.
MIXED_SCENARIO_NAME = "mixed/table2"
MIXED_SOLO_PREFIX = "mixed/solo/"


def mixed_rows_from_store(
    store: "ResultStore",
    routings: Optional[Sequence[str]] = None,
    seed: Optional[int] = None,
    scale: Optional[float] = None,
    placement: Optional[str] = None,
    start_time: Optional[float] = None,
    knobs: Optional[Dict[str, Dict[str, object]]] = None,
    fidelity: Optional[str] = None,
) -> List[dict]:
    """Fig. 10 interference rows built from a result store — no simulation.

    For every routing (all present when ``routings=None``), compares each
    application's communication time in the recorded ``mixed/table2`` run
    against its ``mixed/solo/<App>`` standalone baseline, aggregating across
    the matching seeds.  Raises ``ValueError`` when a required run is missing
    (populate the store with ``dragonfly-sim sweep --scenario 'mixed/*'
    --store PATH``, or ``run_sweep(..., store=...)`` over
    :func:`repro.experiments.scenario.mixed_scenario` and
    :func:`~repro.experiments.scenario.mixed_solo_scenarios`).
    """
    from repro.results.store import ensure_comparable, ensure_uniform, mean_metric

    filters = dict(seed=seed, scale=scale, placement=placement, fidelity=fidelity)
    # start_time/knobs narrow the mixed co-run; solo baselines are always the
    # simultaneous-arrival standalone runs (as in pairwise.comparison_rows).
    mixed_runs = store.runs_named(
        MIXED_SCENARIO_NAME, start_time=start_time, knobs=knobs, **filters
    )
    if not mixed_runs:
        raise ValueError(
            f"no stored {MIXED_SCENARIO_NAME!r} runs; populate the store with "
            f"'dragonfly-sim sweep --scenario {MIXED_SCENARIO_NAME} --store PATH'"
        )
    if routings is None:
        routings = sorted({run.routing for run in mixed_runs})

    rows = []
    for routing in routings:
        mixes = [run for run in mixed_runs if run.routing == routing]
        if not mixes:
            raise ValueError(
                f"no stored {MIXED_SCENARIO_NAME!r} run under routing {routing!r}"
            )
        ensure_uniform(mixes, MIXED_SCENARIO_NAME)
        for app in mixes[0].jobs:
            solos = [
                run
                for run in store.runs_named(
                    f"{MIXED_SOLO_PREFIX}{app}", start_time=0.0, **filters
                )
                if run.routing == routing
            ]
            if not solos:
                raise ValueError(
                    f"no stored {MIXED_SOLO_PREFIX + app!r} baseline under routing "
                    f"{routing!r}; populate it with 'dragonfly-sim sweep --scenario "
                    f"{MIXED_SOLO_PREFIX}{app} --store PATH' (one per application "
                    "in the mix)"
                )
            ensure_uniform(solos, MIXED_SOLO_PREFIX + app)
            ensure_comparable(
                mixes + solos, f"{MIXED_SCENARIO_NAME} vs {MIXED_SOLO_PREFIX}{app}"
            )
            summary = InterferenceSummary(
                app=app,
                standalone_comm_ns=mean_metric(solos, "comm_time_ns", app),
                interfered_comm_ns=mean_metric(mixes, "comm_time_ns", app),
                standalone_std_ns=mean_metric(solos, "comm_time_std_ns", app),
                interfered_std_ns=mean_metric(mixes, "comm_time_std_ns", app),
            )
            rows.append({"routing": routing, **summary.as_dict()})
    return rows
