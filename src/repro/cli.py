"""Command-line interface for the experiment harness.

Every paper artifact and ablation can be regenerated from the shell::

    python -m repro.cli figure5 --num-clients 80
    python -m repro.cli thresholds
    python -m repro.cli psafe
    python -m repro.cli baselines
    python -m repro.cli learning
    python -m repro.cli learned
    python -m repro.cli scaling
    python -m repro.cli cluster --shards 4 --num-clients 64
    python -m repro.cli cluster --shards 4 --runtime procs
    python -m repro.cli chaos --shards 4 --fault partition
    python -m repro.cli telemetry --workload cluster --trace-out trace.json
    python -m repro.cli serve --port 7341 --max-inflight 64 --runtime procs
    python -m repro.cli all --csv-dir results/

Each experiment subcommand prints the same rows the corresponding benchmark
target regenerates; ``--csv-dir`` additionally writes one CSV per
experiment.  ``serve`` is different: it binds the live ingestion edge
(:mod:`repro.edge`) on a TCP port, sequences whatever framed clients send,
and prints the run summary when traffic drains (see docs/operations.md).
Each subcommand imports its own experiment modules, so ``serve`` loads the
serving layers only.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from repro.runtime.base import RUNTIME_NAMES


def _figure5_rows(args: argparse.Namespace) -> List[Dict[str, object]]:
    from repro.experiments.figure5 import Figure5Settings, figure5_rows, run_figure5

    settings = Figure5Settings(
        num_clients=args.num_clients, threshold=args.threshold, seed=args.seed
    )
    return figure5_rows(run_figure5(settings))


def _threshold_rows(args: argparse.Namespace) -> List[Dict[str, object]]:
    from repro.experiments.ablations import run_threshold_sweep

    return run_threshold_sweep(num_clients=args.num_clients, seed=args.seed)


#: The online p_safe sweep re-runs tentative batching on every arrival, so
#: its cost grows roughly cubically with the client count; it is capped to
#: keep the CLI responsive.
PSAFE_MAX_CLIENTS = 12


def _psafe_rows(args: argparse.Namespace) -> List[Dict[str, object]]:
    from repro.experiments.ablations import run_psafe_sweep

    effective = min(args.num_clients, PSAFE_MAX_CLIENTS)
    if effective != args.num_clients:
        print(
            f"warning: psafe runs the online sequencer and caps --num-clients at "
            f"{PSAFE_MAX_CLIENTS} (requested {args.num_clients}, using {effective})",
            file=sys.stderr,
        )
    return run_psafe_sweep(num_clients=effective, seed=args.seed)


def _baseline_rows(args: argparse.Namespace) -> List[Dict[str, object]]:
    from repro.experiments.ablations import run_baseline_comparison

    return run_baseline_comparison(num_clients=args.num_clients, seed=args.seed)


def _learning_rows(args: argparse.Namespace) -> List[Dict[str, object]]:
    from repro.experiments.ablations import run_learning_ablation

    return run_learning_ablation(num_clients=args.num_clients, seed=args.seed)


def _scaling_rows(args: argparse.Namespace) -> List[Dict[str, object]]:
    from repro.experiments.ablations import run_scaling_sweep

    return run_scaling_sweep(seed=args.seed)


#: The live-learning sweep replays every probe stream through the online
#: sequencer three times (static / live / oracle); the client count is capped
#: to keep the CLI responsive.
LEARNED_MAX_CLIENTS = 24


def _learned_rows(args: argparse.Namespace) -> List[Dict[str, object]]:
    from repro.experiments.learned_sweep import run_learned_sweep

    effective = min(args.num_clients, LEARNED_MAX_CLIENTS)
    if effective != args.num_clients:
        print(
            f"warning: learned replays the online sequencer per configuration and caps "
            f"--num-clients at {LEARNED_MAX_CLIENTS} (requested {args.num_clients}, "
            f"using {effective})",
            file=sys.stderr,
        )
    return run_learned_sweep(num_clients=effective, seed=args.seed)


def _shard_counts_up_to(max_shards: int) -> List[int]:
    """Doubling shard counts from 1 up to (and always including) the max."""
    counts = []
    count = 1
    while count < max_shards:
        counts.append(count)
        count *= 2
    counts.append(max_shards)
    return counts


def _cluster_rows(args: argparse.Namespace) -> List[Dict[str, object]]:
    from repro.experiments.cluster_sweep import run_cluster_sweep

    return run_cluster_sweep(
        shard_counts=_shard_counts_up_to(args.shards),
        client_counts=(args.num_clients,),
        seed=args.seed,
        merge_topology=args.merge_topology,
        merge_fanout=args.fanout,
        runtime=args.runtime,
        num_workers=args.workers,
        max_restarts=args.max_restarts,
        on_shard_loss=args.on_shard_loss,
    )


#: The chaos sweep drives the full live stack (transports, chaos hooks,
#: heartbeat failover, streaming merge) once per fault cell; the client
#: count is capped to keep the CLI responsive.
CHAOS_MAX_CLIENTS = 32


def _chaos_rows(args: argparse.Namespace) -> List[Dict[str, object]]:
    from repro.experiments.chaos_sweep import run_chaos_sweep
    from repro.workloads.chaos import FAULT_NAMES

    effective = min(args.num_clients, CHAOS_MAX_CLIENTS)
    if effective != args.num_clients:
        print(
            f"warning: chaos runs the live cluster per fault cell and caps --num-clients "
            f"at {CHAOS_MAX_CLIENTS} (requested {args.num_clients}, using {effective})",
            file=sys.stderr,
        )
    # dict.fromkeys dedupes while keeping the control first (--fault none
    # would otherwise emit the control row twice)
    faults = FAULT_NAMES if args.fault == "all" else tuple(dict.fromkeys(("none", args.fault)))
    return run_chaos_sweep(
        faults=faults,
        intensities=(args.intensity,),
        shard_counts=(args.shards,),
        num_clients=effective,
        seed=args.seed,
    )


def _telemetry_rows(args: argparse.Namespace) -> List[Dict[str, object]]:
    from repro.obs.export import write_chrome_trace, write_metrics_json
    from repro.obs.spans import stage_latency_rows
    from repro.obs.workload import run_instrumented_workload

    effective = min(args.num_clients, CHAOS_MAX_CLIENTS)
    if effective != args.num_clients:
        print(
            f"warning: telemetry runs the live cluster and caps --num-clients at "
            f"{CHAOS_MAX_CLIENTS} (requested {args.num_clients}, using {effective})",
            file=sys.stderr,
        )
    fault = args.fault
    if args.workload == "chaos" and fault == "all":
        fault = "delay"
        print(
            "warning: telemetry instruments one fault family at a time; "
            "--fault all falls back to 'delay'",
            file=sys.stderr,
        )
    run = run_instrumented_workload(
        workload=args.workload,
        num_shards=args.shards,
        num_clients=effective,
        seed=args.seed,
        fault=fault,
        intensity=args.intensity,
        merge_topology=args.merge_topology,
        merge_fanout=args.fanout,
        runtime=args.runtime,
        num_workers=args.workers,
        max_restarts=args.max_restarts,
        on_shard_loss=args.on_shard_loss,
    )
    if args.trace_out:
        # non-sim runtimes always get the wall-clock mirror tracks: showing
        # the real process overlap next to the sim schedule is their point
        wall_tracks = args.wall_tracks or args.runtime != "sim"
        count = write_chrome_trace(run.telemetry, args.trace_out, wall_tracks=wall_tracks)
        print(f"wrote {args.trace_out} ({count} trace events; open in ui.perfetto.dev)")
    if args.metrics_out:
        write_metrics_json(run.telemetry, args.metrics_out)
        print(f"wrote {args.metrics_out}")
    _print_merge_nodes(run.telemetry)
    return stage_latency_rows(run.telemetry)


def _print_merge_nodes(telemetry) -> None:
    """Print the per-merge-node pruning table alongside the latency rows."""
    from repro.experiments.reporting import format_table

    if telemetry.registry is None:
        return
    merge_report = telemetry.registry.snapshot().get("sources", {}).get("cluster.merge")
    if not isinstance(merge_report, dict):
        return
    nodes = merge_report.get("nodes") or []
    if not nodes:
        return
    title = (
        f"MERGE NODES: topology={merge_report.get('topology')} "
        f"fanout={merge_report.get('fanout')} depth={merge_report.get('depth')}"
    )
    print(format_table(list(nodes), title=title))


def serve_spec(args: argparse.Namespace):
    """The live cluster shape ``repro serve`` provisions.

    Clients come from the same deterministic multi-region scenario generator
    the experiments use (``--num-clients``/``--seed``), so a client process
    built from the same seed knows exactly which client ids are provisioned
    — and a loopback replay of the frozen workload must reproduce the
    :class:`~repro.runtime.sim.SimBackend` fingerprint bitwise.
    """
    from repro.core.config import TommyConfig
    from repro.runtime.live import LiveClusterSpec
    from repro.workloads.cluster import build_cluster_scenario

    scenario = build_cluster_scenario(num_clients=args.num_clients, seed=args.seed)
    scenario = getattr(scenario, "scenario", scenario)
    return LiveClusterSpec(
        client_distributions=dict(scenario.client_distributions),
        num_shards=args.shards,
        config=TommyConfig(seed=args.seed),
        merge_topology=args.merge_topology,
        merge_fanout=args.fanout,
    )


def _run_serve(args: argparse.Namespace) -> int:
    """Run the live ingestion edge until traffic drains; print the summary."""
    import asyncio
    import hashlib

    from repro.edge.server import EdgeServer
    from repro.obs import Telemetry
    from repro.runtime.live import LiveDispatcher

    telemetry = Telemetry()
    dispatcher = LiveDispatcher(
        serve_spec(args),
        runtime=args.runtime,
        num_workers=args.workers,
        telemetry=telemetry,
    )

    async def _serve():
        server = EdgeServer(
            dispatcher,
            host=args.host,
            port=args.port,
            max_inflight=args.max_inflight,
            telemetry=telemetry,
        )
        await server.start()
        print(f"listening on {args.host}:{server.port}", flush=True)
        try:
            outcome = await server.serve_until_idle(idle_grace=args.idle_grace)
        finally:
            await server.close()
        return server, outcome

    try:
        server, outcome = asyncio.run(_serve())
    except KeyboardInterrupt:  # pragma: no cover - interactive teardown
        dispatcher.close()
        return 130
    # imported once serving is over: the serve path loads no experiment module
    from repro.experiments.reporting import format_table

    digest = hashlib.sha256(repr(outcome.fingerprint()).encode()).hexdigest()[:16]
    rows = [
        {
            "runtime": outcome.backend,
            "messages": outcome.message_count,
            "batches": len(outcome.merge.result.batches),
            "duplicates": outcome.details.get("duplicates_rejected", 0),
            "late": outcome.details.get("late_arrivals", 0),
            "peak_depth": server.intake_depth_peak,
            "max_inflight": server.max_inflight,
            "fingerprint": digest,
        }
    ]
    print(format_table(rows, title=SERVE_TITLE))
    return 0


EXPERIMENTS: Dict[str, Callable[[argparse.Namespace], List[Dict[str, object]]]] = {
    "figure5": _figure5_rows,
    "thresholds": _threshold_rows,
    "psafe": _psafe_rows,
    "baselines": _baseline_rows,
    "learning": _learning_rows,
    "learned": _learned_rows,
    "scaling": _scaling_rows,
    "cluster": _cluster_rows,
    "chaos": _chaos_rows,
    "telemetry": _telemetry_rows,
}

TITLES = {
    "figure5": "Figure 5: RAS of Tommy vs TrueTime",
    "thresholds": "ABL-THRESH: batching-threshold sweep",
    "psafe": "ABL-PSAFE: safe-emission confidence sweep",
    "baselines": "ABL-BASE: FIFO / WFO / TrueTime / Tommy on a burst",
    "learning": "ABL-LEARN: seeded vs probe-learned distributions",
    "learned": "LEARNED: static-Gaussian vs live-learned online sequencing",
    "scaling": "ABL-SCALE: client-count scaling",
    "cluster": "CLUSTER: sharded fair sequencing, shard-count scaling",
    "chaos": "CHAOS: fault injection on the live sharded cluster",
    "telemetry": "TELEMETRY: message-lifecycle stage latency on an instrumented run",
}

# ``serve`` is a service mode, not an experiment: it has a summary title but
# no EXPERIMENTS entry (TITLES is pinned to exactly the experiment registry).
SERVE_TITLE = "SERVE: live ingestion edge run summary"


class _Deferred:
    """Argparse ``choices`` computed on first use.

    The fault and workload names live beside the chaos harness; ``serve``
    never validates them, so it never imports that harness.  An option using
    one names its ``metavar``, or argparse lists the choices on construction.
    """

    def __init__(self, load: Callable[[], List[str]]) -> None:
        self._load = load

    def __contains__(self, value: object) -> bool:
        return value in self._load()

    def __iter__(self) -> Iterator[str]:
        return iter(self._load())


def _fault_choices() -> List[str]:
    from repro.workloads.chaos import FAULT_NAMES

    return sorted(FAULT_NAMES) + ["all"]


def _workload_choices() -> List[str]:
    from repro.obs.workload import WORKLOAD_NAMES

    return list(WORKLOAD_NAMES)


def _positive_int(value: str) -> int:
    parsed = int(value)
    if parsed < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value!r}")
    return parsed


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Regenerate the evaluation of 'Beyond Lamport, Towards Probabilistic Fair Ordering'."
        ),
    )
    parser.add_argument(
        "--num-clients", type=int, default=60, help="clients per scenario (default 60)"
    )
    parser.add_argument(
        "--threshold", type=float, default=0.75, help="batching threshold (default 0.75)"
    )
    parser.add_argument("--seed", type=int, default=7, help="root random seed")
    parser.add_argument(
        "--shards",
        type=_positive_int,
        default=4,
        help="max shard count for the cluster sweep (swept 1, 2, ... up to this; default 4)",
    )
    parser.add_argument(
        "--merge-topology",
        choices=["flat", "binary", "region"],
        default="flat",
        help="cluster/telemetry: merge-tree topology the priced cross-shard pairs are "
        "attributed to — flat (one root), binary (balanced fanout tree), or region "
        "(tree grouped by the router's region map); same pricing and merged order "
        "(default flat)",
    )
    parser.add_argument(
        "--fanout",
        type=_positive_int,
        default=2,
        help="cluster/telemetry: merge-tree fanout for --merge-topology binary/region "
        "(default 2)",
    )
    parser.add_argument(
        "--runtime",
        choices=list(RUNTIME_NAMES),
        default="sim",
        help="cluster/telemetry: execution backend — sim (deterministic event loop, "
        "the parity oracle) or procs (one worker process per shard, coordinator-side "
        "streaming merge); same seed yields a bitwise-identical merged order "
        "(default sim)",
    )
    parser.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        help="--runtime procs: cap the worker-process count (default: one per shard)",
    )
    parser.add_argument(
        "--max-restarts",
        type=int,
        default=None,
        help="--runtime procs: restart budget per worker slot before its shards "
        "are handled by --on-shard-loss (default: supervisor default, 2; "
        "0 fails fast on the first death)",
    )
    parser.add_argument(
        "--on-shard-loss",
        choices=["raise", "exclude"],
        default="raise",
        help="--runtime procs: once the restart budget is exhausted, either raise "
        "WorkerCrashed (default) or finalize the merge over surviving shards and "
        "record the loss in the run details",
    )
    parser.add_argument(
        "--fault",
        choices=_Deferred(_fault_choices),
        metavar="FAULT",
        default="all",
        help="chaos sweep only: fault family to inject, one of %(choices)s "
        "('all' sweeps every family)",
    )
    parser.add_argument(
        "--intensity",
        type=float,
        default=1.0,
        help="chaos sweep only: fault intensity knob (default 1.0)",
    )
    parser.add_argument(
        "--workload",
        choices=_Deferred(_workload_choices),
        metavar="WORKLOAD",
        default="cluster",
        help="telemetry only: which workload to instrument, one of %(choices)s "
        "(default cluster)",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        help="telemetry only: write a perfetto-loadable Chrome trace_event JSON here",
    )
    parser.add_argument(
        "--wall-tracks",
        action="store_true",
        help="telemetry only: add wall-clock mirror tracks to --trace-out "
        "(always on for --runtime procs)",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        help="telemetry only: write the structured JSON metrics snapshot here",
    )
    parser.add_argument(
        "--csv-dir", default=None, help="also write one CSV per experiment into this directory"
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="serve only: interface to bind (default 127.0.0.1)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="serve only: TCP port to bind (default 0 = pick a free port; "
        "the bound port is printed on startup)",
    )
    parser.add_argument(
        "--max-inflight",
        type=_positive_int,
        default=64,
        help="serve only: bound on the items gated since the last advance() "
        "— at the bound, connections stop reading their sockets until the "
        "advance and TCP flow control pushes back to clients (default 64)",
    )
    parser.add_argument(
        "--idle-grace",
        type=float,
        default=0.2,
        help="serve only: seconds of idleness (no open connection and "
        "nothing gated, after at least one connection was served) before "
        "the edge drains and prints the run summary (default 0.2)",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["serve", "all"],
        help="which experiment to regenerate ('all' runs every one), or "
        "'serve' to run the live ingestion edge",
    )
    return parser


def run_experiment(name: str, args: argparse.Namespace) -> List[Dict[str, object]]:
    """Run one named experiment and return its rows."""
    if name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}")
    return EXPERIMENTS[name](args)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.experiment == "serve":
        return _run_serve(args)
    from repro.experiments.reporting import format_table, rows_to_csv

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]

    if args.csv_dir:
        os.makedirs(args.csv_dir, exist_ok=True)

    for name in names:
        rows = run_experiment(name, args)
        print(format_table(rows, title=TITLES[name]))
        if args.csv_dir:
            path = os.path.join(args.csv_dir, f"{name}.csv")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(rows_to_csv(rows))
            print(f"wrote {path}\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in examples
    sys.exit(main())
