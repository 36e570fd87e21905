"""Pairwise workload analysis (Section V).

A *pairwise* experiment co-runs one target application with one background
application and compares the target's communication time and its variation
against its standalone baseline (Fig. 4).  Both runs are scenario presets
(``pairwise/<T>+<B>`` and ``pairwise/<T>``, see
:func:`repro.experiments.scenario.pairwise_scenario`); sweep them into a
:class:`~repro.results.ResultStore` and :func:`comparison_rows` rebuilds the
comparison rows from it with zero simulation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.results import ResultStore

from repro.metrics.interference import InterferenceSummary
from repro.workloads import resolve_application

__all__ = ["comparison_rows"]


def comparison_rows(
    store: "ResultStore",
    target: str,
    background: Optional[str],
    routings: Optional[Sequence[str]] = None,
    seed: Optional[int] = None,
    scale: Optional[float] = None,
    placement: Optional[str] = None,
    start_time: Optional[float] = None,
    knobs: Optional[Dict[str, Dict[str, object]]] = None,
    fidelity: Optional[str] = None,
) -> List[dict]:
    """Fig. 4 comparison rows built from a result store — no simulation.

    Looks up the recorded ``pairwise/<target>`` standalone baseline and (when
    ``background`` is given) the ``pairwise/<target>+<background>`` co-run,
    aggregates each metric across the matching seeds, and returns one row per
    routing algorithm: ``routing``, ``target``, ``background`` and the
    :class:`~repro.metrics.interference.InterferenceSummary` columns.
    ``routings=None`` reports every routing present; the remaining filters
    narrow the matched runs.  ``start_time`` narrows the *co-run* family to
    one arrival stagger (``0.0`` = simultaneous), which disambiguates stores
    holding both staggered and simultaneous runs of one pair; the
    comparison's baseline is always the simultaneous-arrival standalone run
    (a standalone job delayed into an empty network is the same experiment
    shifted in time).  With ``background=None`` — a pure baseline report —
    ``start_time`` selects among the standalone runs themselves.  ``knobs``
    (``{job: {kwarg: value}}``) likewise narrows the co-run family to one
    cell of a ``job_knobs`` sweep, e.g. ``{"hotspot": {"hot_fraction":
    0.9}}``.  Raises ``ValueError`` when a required run is missing (populate
    the store with ``dragonfly-sim sweep --scenario pairwise/<T>+<B> --store
    PATH``).
    """
    from repro.results.store import ensure_comparable, ensure_uniform, mean_metric

    target = resolve_application(target)
    background = resolve_application(background) if background else None
    base_name = f"pairwise/{target}"
    pair_name = f"pairwise/{target}+{background}" if background else base_name
    # Fidelity filters both families: comparing a flow-level co-run against
    # a packet-level baseline would mix approximations (docs/fidelity.md).
    filters = dict(seed=seed, scale=scale, placement=placement, fidelity=fidelity)
    base_runs = store.runs_named(
        base_name,
        start_time=start_time if background is None else 0.0,
        knobs=knobs if background is None else None,
        **filters,
    )
    pair_runs = (
        base_runs
        if background is None
        else store.runs_named(pair_name, start_time=start_time, knobs=knobs, **filters)
    )
    if routings is None:
        routings = sorted({run.routing for run in (pair_runs if background else base_runs)})
        if not routings:
            raise ValueError(
                f"no stored {pair_name!r} runs; populate the store with "
                f"'dragonfly-sim sweep --scenario {pair_name} --store PATH'"
                + (f" (and --scenario {base_name} for the baseline)" if background else "")
            )

    rows = []
    for routing in routings:
        bases = [run for run in base_runs if run.routing == routing]
        pairs = [run for run in pair_runs if run.routing == routing]
        if not bases:
            raise ValueError(
                f"no stored {base_name!r} baseline under routing {routing!r}; populate "
                f"the store with 'dragonfly-sim sweep --scenario {base_name} --store PATH'"
            )
        if background and not pairs:
            raise ValueError(
                f"no stored {pair_name!r} co-run under routing {routing!r}; populate "
                f"the store with 'dragonfly-sim sweep --scenario {pair_name} --store PATH'"
            )
        interfered_runs = pairs if background else bases
        ensure_uniform(bases, base_name)
        if background:
            ensure_uniform(interfered_runs, pair_name)
            ensure_comparable(bases + interfered_runs, f"{base_name} vs {pair_name}")
        summary = InterferenceSummary(
            app=target,
            standalone_comm_ns=mean_metric(bases, "comm_time_ns", target),
            interfered_comm_ns=mean_metric(interfered_runs, "comm_time_ns", target),
            standalone_std_ns=mean_metric(bases, "comm_time_std_ns", target),
            interfered_std_ns=mean_metric(interfered_runs, "comm_time_std_ns", target),
        )
        rows.append(
            {
                "routing": routing,
                "target": target,
                "background": background or "None",
                **summary.as_dict(),
            }
        )
    return rows
