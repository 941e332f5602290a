"""Experiment harness reproducing the paper's evaluation.

* :mod:`repro.experiments.figure5` regenerates Figure 5 (RAS of Tommy vs the
  TrueTime baseline as clock standard deviation and the inter-message gap
  vary).
* :mod:`repro.experiments.ablations` contains the ablation sweeps the paper's
  discussion motivates: batching threshold, p_safe, non-Gaussian
  distributions, learned vs seeded distributions, client-count scaling, and
  the FIFO/WFO baselines.
* :mod:`repro.experiments.cluster_sweep` sweeps shard count × client count
  through the sharded fair-sequencing cluster and reports cross-shard RAS,
  merge latency and per-shard throughput.
* :mod:`repro.experiments.runner` runs one scenario through any set of
  sequencers and collects the metric bundle.
* :mod:`repro.experiments.reporting` renders result rows as aligned text
  tables or CSV for EXPERIMENTS.md.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.experiments.runner": ("SequencerComparison", "run_comparison"),
        "repro.experiments.figure5": ("Figure5Point", "Figure5Settings", "run_figure5"),
        "repro.experiments.ablations": (
            "run_baseline_comparison",
            "run_distribution_ablation",
            "run_learning_ablation",
            "run_psafe_sweep",
            "run_scaling_sweep",
            "run_threshold_sweep",
        ),
        "repro.experiments.cluster_sweep": (
            "ClusterRunOutcome",
            "run_cluster_scenario",
            "run_cluster_sweep",
        ),
        "repro.experiments.chaos_sweep": ("run_chaos_sweep",),
        "repro.experiments.learned_sweep": ("run_learned_sweep",),
        "repro.experiments.reporting": ("format_table", "rows_to_csv"),
    },
)

__all__ = [
    "run_chaos_sweep",
    "ClusterRunOutcome",
    "run_cluster_scenario",
    "run_cluster_sweep",
    "SequencerComparison",
    "run_comparison",
    "Figure5Point",
    "Figure5Settings",
    "run_figure5",
    "run_threshold_sweep",
    "run_psafe_sweep",
    "run_distribution_ablation",
    "run_learning_ablation",
    "run_learned_sweep",
    "run_scaling_sweep",
    "run_baseline_comparison",
    "format_table",
    "rows_to_csv",
]
