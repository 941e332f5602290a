"""Socket-to-merged-order benchmark: one command, every metric, outputs checked.

    python3 bench/run.py [--workload NAME] [--seed N] [--scenario N] [--seconds S]
                         [--trace 0|1] [--out FILE] [--trace-out FILE]

Drives the real product path (loopback sockets, ``EdgeServer``,
``LiveDispatcher``, per-shard sequencers, ``StreamingMerger``, ``finish()``)
in a server child process and checks every merged order against the
``SimBackend`` oracle.  ``--trace 0`` measures the end-to-end metrics with
nothing installed; ``--trace 1`` makes the traced run that gives the per-layer
metrics; without ``--trace`` both happen.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

_ROOT = Path(__file__).resolve().parent.parent
if str(_ROOT / "src") not in sys.path:  # `python3 bench/run.py` from a bare checkout
    sys.path.insert(0, str(_ROOT / "src"))

try:
    from tommybench_loadgen import PassOutcome, ServerChild, plan_frames, run_pass
    from tommybench_replays import ReplayMismatch, merge_replay_seconds, procs_replay
    from tommybench_workloads import SHAPE_BY_NAME, SHAPES, Inputs, Shape, prepare
except ModuleNotFoundError as exc:
    raise SystemExit(f"bench/run.py needs the repository's src/ tree beside bench/: {exc}")

#: Measured passes per workload never fall below this, whatever ``--seconds`` says.
MIN_PASSES = 10
#: Cold starts timed, one at a time, before any pass runs; ``setup_s`` is their median.
COLD_STARTS = 3
#: A pass whose acks or result line take longer than this has failed.
PASS_TIMEOUT_S = 60.0
#: Modes of the traced child's passes after its warm-up.  Pass A (traced) and pass B
#: (telemetry) each sit between two plain passes, the reference for their overhead.
TRACED_PASSES = ("plain", "traced", "plain", "telemetry", "plain")


def load_spec() -> dict:
    """``BENCHMARK.json``: the metric names, units, directions and bounds."""
    with open(_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def percentile(ordered: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def summarize(values: Sequence[float], better: Optional[str] = None) -> Dict[str, float]:
    """One metric's per-pass values: the reported value, quartiles, extremes, count.

    The reported ``value`` is the median, or with ``better`` given the
    quartile on the better side (q3 of a throughput, q1 of a latency): this
    box slows down by a quarter for phases of 10 to 30 seconds, which moves
    the median of a short run with them and the fast quartile far less
    (figures in ``bench/README.md``).  The median is kept beside it.
    """
    if not values:
        return {"value": 0.0, "median": 0.0, "q1": 0.0, "q3": 0.0, "min": 0.0, "max": 0.0, "n": 0}
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    median = statistics.median(values)
    return {
        "value": {None: median, "higher": q3, "lower": q1}[better],
        "median": median,
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def host_facts() -> Dict[str, object]:
    """What the numbers were measured on."""
    import numpy
    import scipy

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


class WorkloadRun:
    """One workload's inputs, server child and the passes made so far."""

    def __init__(self, inputs: Inputs, seed: int, child: Optional[ServerChild] = None) -> None:
        self.inputs = inputs
        self.shape: Shape = inputs.shape
        self.plan = plan_frames(inputs, seed)
        # workloads with the same clients, seed and shard count may share a child
        self.child = child or ServerChild(
            self.shape.clients, inputs.seed_used, self.shape.shards, PASS_TIMEOUT_S
        )
        self.setup_s: List[float] = []
        self.passes: List[PassOutcome] = []
        self.problems: List[str] = []

    async def cold_starts(self, count: int) -> None:
        """Time spawn → ``listening`` on fresh children (interpreter, imports, cluster build).

        The last child stays for the passes: its empty pass is finished, not killed.
        """
        for remaining in reversed(range(count)):
            await self.child.close()
            await self.child.spawn()
            await self.child.start_pass(self.shape)
            self.setup_s.append(time.perf_counter() - self.child.spawned_at)
            if not remaining:
                await self.child.finish_pass()

    async def one_pass(self, mode: str = "plain", trace_out: Optional[str] = None) -> PassOutcome:
        """Run one pass and check the counts that must be exact."""
        outcome = await run_pass(
            self.child, self.inputs, self.plan, PASS_TIMEOUT_S, mode=mode, trace_out=trace_out
        )
        self.passes.append(outcome)
        if outcome.error:
            self.problems.append(f"pass {len(self.passes)}: {outcome.error}")
        else:
            result = outcome.result
            expected = {
                "messages": self.shape.messages,
                "duplicates_rejected": self.shape.duplicates,
                "late_arrivals": 0,
                "cycles_broken": self.inputs.oracle.merge.cycles_broken,
            }
            for name, value in expected.items():
                if result[name] != value:
                    self.problems.append(f"{name} is {result[name]}, expected {value}")
            if result["intake_depth_peak"] > self.shape.max_inflight:
                self.problems.append("intake queue exceeded its bound")
        return outcome

    @property
    def attempted(self) -> int:
        """Frames attempted over every pass made."""
        return sum(outcome.attempted for outcome in self.passes)

    @property
    def failed(self) -> int:
        """Frames failed over every pass made."""
        return sum(outcome.failed for outcome in self.passes)


# ------------------------------------------------------------------ untraced
async def measure_end_to_end(
    runs: List[WorkloadRun],
    seconds: float,
    cold_starts: int = COLD_STARTS,
    min_passes: int = MIN_PASSES,
) -> Dict[str, dict]:
    """Cold starts, a warm-up pass, then measured passes round-robin across workloads.

    Round-robin makes a slow phase of the machine hit every workload instead
    of one; every value is taken over all measured passes (see ``summarize``).
    A workload stops early only when a pass fails, which already makes the run
    incorrect.
    """
    peak_rss_mb: Dict[str, float] = {}
    for run in runs:
        await run.cold_starts(cold_starts)
    for run in runs:
        warm_up = await run.one_pass()
        peak_rss_mb[run.shape.name] = float(warm_up.result.get("peak_rss_kb", 0)) / 1024.0
    measured_s = {run.shape.name: 0.0 for run in runs}
    active = [run for run in runs if not run.problems]
    while active:
        for run in list(active):
            started = time.perf_counter()
            outcome = await run.one_pass()
            measured_s[run.shape.name] += time.perf_counter() - started
            enough = len(run.passes) > min_passes and measured_s[run.shape.name] >= seconds
            if outcome.error or enough:
                active.remove(run)

    report: Dict[str, dict] = {}
    for run in runs:
        good = [outcome for outcome in run.passes[1:] if not outcome.error]
        ordered = [sorted(outcome.ack_ms) for outcome in good]
        metrics = {
            "throughput_msgs_per_s": summarize(
                [run.shape.messages / o.wall_s for o in good], "higher"
            ),
            "ack_p50_ms": summarize([percentile(acks, 0.50) for acks in ordered], "lower"),
            "ack_p99_ms": summarize([percentile(acks, 0.99) for acks in ordered], "lower"),
            "setup_s": summarize(run.setup_s),
            "peak_rss_mb": summarize([peak_rss_mb.get(run.shape.name, 0.0)]),
            "failed_share": summarize([run.failed / max(run.attempted, 1)]),
            "parity_ok": summarize([float(all(o.parity for o in run.passes))]),
        }
        report[run.shape.name] = {
            "metrics": metrics,
            "ack_samples_per_pass": run.plan.attempted,
        }
    return report


# -------------------------------------------------------------------- traced
async def measure_layers(run: WorkloadRun, trace_out: Optional[str]) -> Dict[str, object]:
    """The traced run: a warm-up, then reference passes around pass A and pass B.

    Pass A carries the timing wrappers (span self times and call counts),
    pass B has ``telemetry=Telemetry()`` and no wrappers (the registry's
    counters and the cost of telemetry).  The plain passes between them are
    the reference both overhead shares are taken against.
    """
    first = len(run.passes)
    for mode in ("plain", *TRACED_PASSES):  # the first one warms the child up
        outcome = await run.one_pass(mode, trace_out if mode == "traced" else None)
        if outcome.error:
            return {}
    made = run.passes[first:]
    warm_up, after = made[0], made[1:]
    traced = after[TRACED_PASSES.index("traced")]
    telemetry = after[TRACED_PASSES.index("telemetry")]
    plain = [outcome for mode, outcome in zip(TRACED_PASSES, after) if mode == "plain"]
    plain_wall = statistics.median(outcome.wall_s for outcome in plain)

    def overhead_share(index: int) -> float:
        """1 − throughput ÷ that of the two plain passes around pass ``index``."""
        around = (after[index - 1].wall_s + after[index + 1].wall_s) / 2.0
        return 1.0 - around / after[index].wall_s

    layers: Dict[str, dict] = traced.result["layers"]
    counters: Dict[str, int] = telemetry.result["counters"]
    # live-procs runs its engines in the workers and returns no engine counters;
    # the oracle executed the identical event sequence
    engine = telemetry.result["engine"] or run.inputs.oracle.details["observability"]["engine"]
    result = traced.result
    messages = run.shape.messages
    merge_s = sum(layers[f"cluster.merge.{call}"]["self_s"] for call in ("observe_batch", "result"))
    self_total = sum(layer["self_s"] for layer in layers.values())
    pairs = result["cross_pairs_evaluated"] + result["cross_pairs_pruned"]

    values: Dict[str, float] = {f"{name}_s": layer["self_s"] for name, layer in layers.items()}
    values.update(
        {
            "edge.protocol.frames": counters.get("edge.frames", 0),
            "edge.wire_bytes_per_msg": traced.wire_bytes / messages,
            "edge.server.intake_depth_peak": result["intake_depth_peak"],
            "edge.server.backpressure_stalls": counters.get("edge.backpressure_stalls", 0),
            "edge.server.acks": counters.get("edge.acks", 0),
            "edge.server.unattributed_s": traced.wall_s - self_total,
            "edge.client.ack_p99_ms": statistics.median(
                percentile(sorted(outcome.ack_ms), 0.99) for outcome in plain
            ),
            "runtime.live.advance_calls": layers["runtime.live.advance"]["calls"],
            "runtime.live.msgs_per_advance": messages / layers["runtime.live.advance"]["calls"],
            "runtime.live.late_arrivals": result["late_arrivals"],
            "runtime.live.rss_growth_mb_per_pass": (
                (after[-1].result["rss_kb"] - warm_up.result["rss_kb"]) / 1024.0 / len(after)
            ),
            "cluster.intake.duplicates_rejected": result["duplicates_rejected"],
            "core.online.batches_emitted": result["nodes"],
            "core.online.msgs_per_batch": messages / result["nodes"],
            "core.engine.rows_appended": engine["rows_appended"],
            "core.engine.vectorized_evaluations": engine["vectorized_evaluations"],
            "core.engine.scalar_evaluations": engine["scalar_evaluations"],
            "core.engine.group_computations": engine["group_computations"],
            "simulation.event_loop.events": result["loop_events"],
            "cluster.merge.nodes": result["nodes"],
            "cluster.merge.cross_pairs_evaluated": result["cross_pairs_evaluated"],
            "cluster.merge.cross_pairs_pruned": result["cross_pairs_pruned"],
            "cluster.merge.pruned_share": result["cross_pairs_pruned"] / pairs if pairs else 0.0,
            "cluster.merge.cycles_broken": result["cycles_broken"],
            "cluster.merge.share_of_pass": merge_s / traced.wall_s,
            "runtime.sim.run_s": run.inputs.oracle_seconds,
            "runtime.sim.msgs_per_s": messages / run.inputs.oracle_seconds,
            "obs.telemetry_overhead_share": overhead_share(TRACED_PASSES.index("telemetry")),
            "bench.trace_overhead_share": overhead_share(TRACED_PASSES.index("traced")),
            "bench.cold_import_s": run.child.import_s,
        }
    )
    try:
        values["cluster.merge.replay_s"] = merge_replay_seconds(run.inputs, tree=False)
        values["cluster.tree.replay_s"] = merge_replay_seconds(run.inputs, tree=True)
        for name, value in procs_replay(run.inputs).items():
            values[f"runtime.procs.{name}"] = value
    except ReplayMismatch as exc:
        run.problems.append(str(exc))
    return {
        "metrics": values,
        "pass_wall_s": {
            "plain": plain_wall,
            "traced": traced.wall_s,
            "telemetry": telemetry.wall_s,
        },
        "span_self_total_s": self_total,
    }


# -------------------------------------------------------------------- output
def print_report(document: dict, spec: dict) -> None:
    """Every metric by name, with its unit, per workload."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update({"ack_p99_ms": "ms", "failed_share": "ratio", "parity_ok": "0/1"})
    host = document["host"]
    print(
        f"host: {host['cores']} cores, python {host['python']}, numpy {host['numpy']}, "
        f"scipy {host['scipy']}; --seed {document['seed']} --scenario {document['scenario']} "
        f"--seconds {document['seconds']}"
    )
    for name, entry in document["workloads"].items():
        print(
            f"\n== {name}: seed_used={entry['seed_used']} seeds_skipped={entry['seeds_skipped']} "
            f"messages={entry['messages']} regime="
            f"{'cyclic' if entry['cycles_broken'] else 'acyclic'} =="
        )
        end_to_end = entry.get("end_to_end")
        if end_to_end:
            print(
                f"  {'end-to-end metric':<24}{'unit':<8}{'value':>11}{'median':>11}{'q1':>11}"
                f"{'q3':>11}{'min':>11}{'max':>11}{'n':>4}"
            )
            for metric, s in end_to_end["metrics"].items():
                print(
                    f"  {metric:<24}{units[metric]:<8}{s['value']:>11.4f}{s['median']:>11.4f}"
                    f"{s['q1']:>11.4f}{s['q3']:>11.4f}{s['min']:>11.4f}{s['max']:>11.4f}{s['n']:>4}"
                )
            print(f"  ack samples per pass: {end_to_end['ack_samples_per_pass']}")
        per_layer = entry.get("per_layer")
        if per_layer:
            walls = per_layer["pass_wall_s"]
            print(
                f"  traced run: pass wall plain {walls['plain']:.4f}s, traced "
                f"{walls['traced']:.4f}s, telemetry {walls['telemetry']:.4f}s; "
                f"span self times sum to {per_layer['span_self_total_s']:.4f}s"
            )
            for metric, value in per_layer["metrics"].items():
                print(f"  {metric:<42}{units.get(metric, ''):<8}{value:>14.6g}")
        for problem in entry["problems"]:
            print(f"  PROBLEM: {problem}")


def is_correct(entry: dict) -> bool:
    """Whether every output of one workload's run was right."""
    return not entry["problems"] and entry["failed"] == 0


def driver_line(entry: dict, spec: dict, traced: bool) -> str:
    """The one-object last line the benchmark contract asks for."""
    if traced:
        measured = entry.get("per_layer", {}).get("metrics", {})
        metrics = {
            m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        measured = entry["end_to_end"]["metrics"]
        metrics = {
            m["name"]: {"value": measured[m["name"]]["value"], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    return json.dumps(
        {
            "correct": is_correct(entry),
            "attempted": max(entry["attempted"], 1),
            "failed": entry["failed"],
            "metrics": metrics,
        }
    )


async def measure(
    runs: List[WorkloadRun],
    seconds: float,
    untraced: bool,
    traced: bool,
    trace_out: Optional[str] = None,
    **end_to_end_options: int,
) -> Dict[str, dict]:
    """Run the prepared workloads; every child and procs worker ends in the ``finally``."""
    workloads: Dict[str, dict] = {}
    try:
        end_to_end = (
            await measure_end_to_end(runs, seconds, **end_to_end_options) if untraced else {}
        )
        for run in runs:  # the traced run starts from a fresh child, as `--trace 1` alone does
            await run.child.close()
        for run in runs:
            entry: dict = {
                "seed_used": run.inputs.seed_used,
                "seeds_skipped": run.inputs.seeds_skipped,
                "messages": run.shape.messages,
                "cycles_broken": run.inputs.oracle.merge.cycles_broken,
            }
            if untraced:
                entry["end_to_end"] = end_to_end[run.shape.name]
            if traced:
                path = f"{trace_out}.{run.shape.name}" if trace_out and len(runs) > 1 else trace_out
                entry["per_layer"] = await measure_layers(run, path)
            entry.update(attempted=run.attempted, failed=run.failed, problems=list(run.problems))
            workloads[run.shape.name] = entry
    finally:
        for run in runs:
            await run.child.close()
    return workloads


def main(argv: Optional[List[str]] = None) -> int:
    """Parse arguments, run, print; exit 1 when any output was wrong."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(SHAPE_BY_NAME), help="default: all five")
    parser.add_argument("--seed", type=int, default=0,
                        help="how the messages reach the server: connection split, retransmits")
    parser.add_argument("--scenario", type=int, default=0,
                        help="which generated population of messages (regime-guarded)")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measuring time per workload (never fewer than 10 passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end only; 1: the traced per-layer run only")
    parser.add_argument("--out", help="write the result document (compare.py reads it)")
    parser.add_argument("--trace-out", help="write pass A's spans as Chrome trace_event JSON")
    args = parser.parse_args(argv)
    if args.scenario < 0:
        parser.error("--scenario must be non-negative")

    spec = load_spec()
    shapes = [SHAPE_BY_NAME[args.workload]] if args.workload else list(SHAPES)
    runs = [WorkloadRun(prepare(shape, args.scenario), args.seed) for shape in shapes]
    document = {
        "host": host_facts(),
        "seed": args.seed,
        "scenario": args.scenario,
        "seconds": args.seconds,
        "workloads": asyncio.run(
            measure(runs, args.seconds, args.trace != 1, args.trace != 0, args.trace_out)
        ),
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print_report(document, spec)
    entries = document["workloads"]
    if args.workload and args.trace is not None:
        print(driver_line(entries[args.workload], spec, traced=bool(args.trace)))
    return 0 if all(map(is_correct, entries.values())) else 1


if __name__ == "__main__":
    sys.exit(main())
