"""Ablation A2 — Q-adaptive hyperparameters (learning rate / exploration).

Checks that Q-adaptive's benefit does not hinge on a razor-thin
hyperparameter choice: across a small sweep of learning rates and exploration
probabilities, the FFT3D-vs-Halo3D interference stays within a reasonable
band of the default configuration, and learning activity (feedback updates)
scales as expected.
"""

from conftest import BENCH_SCALE, BENCH_SEED

from repro.analysis.reports import format_table
from repro.experiments.configs import bench_config
from repro.experiments.scenario import pairwise_scenario
from repro.metrics.interference import interference_summary

SETTINGS = [
    {"q_learning_rate": 0.2, "q_exploration": 0.02},   # paper-style default
    {"q_learning_rate": 0.5, "q_exploration": 0.02},
    {"q_learning_rate": 0.2, "q_exploration": 0.10},
]


def _sweep():
    rows = []
    baseline = None
    for params in SETTINGS:
        config = bench_config("q-adaptive", seed=BENCH_SEED)
        config = config.with_routing("q-adaptive", **params)
        alone, pair = (
            pairwise_scenario(
                "FFT3D", background, scale=BENCH_SCALE,
                target_ranks=24, background_ranks=24, config=config,
            )
            for background in (None, "Halo3D")
        )
        # The first setting's standalone run is the baseline of every setting.
        if baseline is None:
            baseline = alone.run()
        co_run = pair.run()
        summary = interference_summary(baseline.record("FFT3D"), co_run.record("FFT3D"))
        rows.append(
            {
                **params,
                "interfered_comm_ns": summary.interfered_comm_ns,
                "slowdown": summary.slowdown,
                "feedback_updates": co_run.network.routing.feedback_count,
            }
        )
    return rows


def test_ablation_qadaptive_hyperparameters(benchmark):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    print("\nAblation A2 — Q-adaptive hyperparameters\n" + format_table(rows))
    default = rows[0]
    assert default["feedback_updates"] > 0
    for row in rows:
        assert row["interfered_comm_ns"] > 0
        # Robustness: no setting in the sweep should blow interference up by
        # more than 50 % relative to the default.
        assert row["interfered_comm_ns"] <= default["interfered_comm_ns"] * 1.5
