"""Experiment harness: one driver per table/figure of the paper's evaluation.

Every ``run_*`` function takes scale parameters with small defaults (so the
benchmark suite finishes in minutes on a laptop) and returns a result object
with ``rows()`` (list of dicts, one per table row / curve point) and
``format_table()`` (an aligned text table matching what the paper reports).
Run ``python -m repro.harness <experiment>`` for a command-line entry point.

==========  =================================================================
Driver      Paper result it regenerates
==========  =================================================================
table2      Table 2 — RMSPE validation of the traffic model vs the
            hand-coded MITSIM-style baseline.
figure3     Figure 3 — traffic single-node time vs segment length
            (MITSIM vs BRACE without/with spatial indexing).
figure4     Figure 4 — fish single-node time vs visibility range
            (with/without spatial indexing).
figure5     Figure 5 — predator throughput under the four optimization
            configurations (No-Opt, Idx-Only, Inv-Only, Idx+Inv).
figure6     Figure 6 — traffic scale-up (throughput vs worker count).
figure7     Figure 7 — fish scale-up with and without load balancing.
figure8     Figure 8 — fish per-epoch time with and without load balancing.
==========  =================================================================

``run_figure6_brasil`` and ``run_figure7_brasil`` regenerate the two
scale-up figures *from BRASIL source* via ``Simulation.from_script``
(``figure6-brasil`` / ``figure7-brasil`` on the command line).
"""

from repro.harness.common import format_table
from repro.harness.table2 import rmspe_from_histories, run_table2, Table2Result
from repro.harness.figure3 import run_figure3, Figure3Result
from repro.harness.figure4 import run_figure4, Figure4Result
from repro.harness.figure5 import run_figure5, Figure5Result
from repro.harness.figure6 import run_figure6, run_figure6_brasil, Figure6Result
from repro.harness.figure7 import run_figure7, run_figure7_brasil, Figure7Result
from repro.harness.figure8 import run_figure8, Figure8Result
from repro.harness.registry import (
    EXPERIMENTS,
    Experiment,
    experiment_names,
    run_all,
    run_experiment,
)

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "experiment_names",
    "run_experiment",
    "run_all",
    "format_table",
    "run_table2",
    "rmspe_from_histories",
    "Table2Result",
    "run_figure3",
    "Figure3Result",
    "run_figure4",
    "Figure4Result",
    "run_figure5",
    "Figure5Result",
    "run_figure6",
    "run_figure6_brasil",
    "Figure6Result",
    "run_figure7",
    "run_figure7_brasil",
    "Figure7Result",
    "run_figure8",
    "Figure8Result",
]
