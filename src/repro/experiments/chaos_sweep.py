"""Chaos sweep: fault family × intensity × shard count scenario matrix.

Every cell runs the live chaos workload (:mod:`repro.workloads.chaos`) with
one named fault armed and reports RAS degradation against the fault-free
control at the same shard count, the failover/replay/loss accounting, and
the streaming-vs-offline merge parity flag — the degraded-conditions
evaluation the paper's fairness claims need to survive.  All rows are
deterministic for a fixed seed (wall-clock measurements are deliberately
excluded), so ``python -m repro.cli chaos`` emits identical reports across
machines and reruns.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.workloads.chaos import (
    FAULT_NAMES,
    ChaosReport,
    ChaosSettings,
    run_chaos_scenario,
)

#: Fault families swept by default — every named fault, control first.
DEFAULT_FAULTS = FAULT_NAMES


def chaos_row(report: ChaosReport, control: Optional[ChaosReport] = None) -> Dict[str, object]:
    """One sweep row: the report plus RAS degradation vs the control."""
    row = report.as_row()
    if control is not None:
        row["ras_delta"] = round(report.ras_normalized - control.ras_normalized, 4)
    return row


def run_chaos_sweep(
    faults: Sequence[str] = DEFAULT_FAULTS,
    intensities: Sequence[float] = (1.0,),
    shard_counts: Sequence[int] = (4,),
    num_clients: int = 24,
    messages_per_client: int = 4,
    seed: int = 7,
) -> List[Dict[str, object]]:
    """Run the fault × intensity × shards matrix and return report rows.

    The fault-free control runs once per shard count (it has no intensity
    axis) and every faulted row carries ``ras_delta`` relative to it.
    Unknown fault names raise; the ``crash`` fault is skipped at one shard
    (there is nowhere to fail over).
    """
    unknown = sorted(set(faults) - set(FAULT_NAMES))
    if unknown:
        raise ValueError(f"unknown fault families {unknown!r}; expected from {FAULT_NAMES}")
    rows: List[Dict[str, object]] = []
    for num_shards in shard_counts:
        settings = ChaosSettings(
            num_clients=num_clients,
            num_shards=num_shards,
            messages_per_client=messages_per_client,
            seed=seed,
        )
        control = run_chaos_scenario(fault="none", settings=settings)
        for fault in faults:
            if fault == "none":
                rows.append(chaos_row(control, control))
                continue
            if fault == "crash" and num_shards < 2:
                continue
            for intensity in intensities:
                report = run_chaos_scenario(fault=fault, intensity=intensity, settings=settings)
                rows.append(chaos_row(report, control))
    return rows
