"""The system under test, as a child process the benchmark owns.

Builds ``LiveClusterSpec``, ``LiveDispatcher`` and ``EdgeServer`` through
their public constructors, the way ``repro serve`` does, but with telemetry
off (``repro serve`` hard-wires ``Telemetry()``).  One child provisions one
cluster shape and serves many *passes*: each pass is a fresh dispatcher and
edge server on a free port.

Control is JSON lines on stdin/stdout:

* ``{"op": "pass", "mode": "plain" | "traced" | "telemetry", "runtime": ...,
  "workers": N, "max_inflight": N}`` starts a pass and answers
  ``{"event": "listening", "port": N}``;
* ``{"op": "finish"}`` runs ``await server.finish()`` and answers one
  ``{"event": "result", ...}`` line with the fingerprint digest and the counts
  the public API returned;
* ``{"op": "quit"}`` or end of input ends the child.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import sys
import time
from typing import Dict, List, Optional

_IMPORT_STARTED = time.perf_counter()

from repro.core.config import TommyConfig  # noqa: E402
from repro.edge.server import EdgeServer  # noqa: E402
from repro.obs import Telemetry  # noqa: E402
from repro.runtime.live import LiveClusterSpec, LiveDispatcher  # noqa: E402
from tommybench_trace import SpanRecorder  # noqa: E402
from repro.workloads.cluster import build_cluster_scenario  # noqa: E402
from tommybench_workloads import fingerprint_digest  # noqa: E402

#: Wall time of the imports above in a cold interpreter (``bench.cold_import_s``).
IMPORT_SECONDS = time.perf_counter() - _IMPORT_STARTED


def _emit(payload: Dict[str, object]) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def _proc_status_kb(field: str) -> int:
    """One ``kB`` field of ``/proc/self/status`` (0 where unavailable)."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def _peak_rss_kb() -> int:
    """High-water RSS of this process and of the procs workers it has reaped.

    ``VmHWM`` rather than ``ru_maxrss`` for this process: across fork and exec
    ``ru_maxrss`` starts from the parent's resident size, so it would report
    the benchmark process's memory.  Forked workers start from zero.
    """
    return max(
        _proc_status_kb("VmHWM"), resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )


def _result(outcome, server: EdgeServer) -> Dict[str, object]:
    details = outcome.details
    if "per_shard" in details:  # procs: the loops ran in the workers
        loops: List[dict] = [shard["loop"] for shard in details["per_shard"].values()]
    else:
        loops = [details["loop"]]
    result: Dict[str, object] = {
        "event": "result",
        "digest": fingerprint_digest(outcome),
        "messages": outcome.message_count,
        "late_arrivals": details["late_arrivals"],
        "duplicates_rejected": details["duplicates_rejected"],
        "intake_depth_peak": server.intake_depth_peak,
        "nodes": sum(len(batches) for batches in outcome.shard_batches),
        "cross_pairs_evaluated": outcome.merge.cross_pairs_evaluated,
        "cross_pairs_pruned": outcome.merge.cross_pairs_pruned,
        "cycles_broken": outcome.merge.cycles_broken,
        "loop_events": sum(loop.get("executed", 0) for loop in loops),
        "peak_rss_kb": _peak_rss_kb(),
        "rss_kb": _proc_status_kb("VmRSS"),
    }
    if outcome.telemetry is not None:
        snapshot = outcome.telemetry.registry.snapshot()
        result["counters"] = snapshot["counters"]
        result["engine"] = snapshot["sources"].get("cluster.engine")
    return result


async def _serve(
    dispatcher: LiveDispatcher,
    max_inflight: int,
    telemetry: Optional[Telemetry],
    recorder: Optional[SpanRecorder],
) -> None:
    server = EdgeServer(
        dispatcher, host="127.0.0.1", port=0, max_inflight=max_inflight, telemetry=telemetry
    )
    await server.start()
    try:
        _emit({"event": "listening", "port": server.port, "import_s": IMPORT_SECONDS})
        line = await asyncio.to_thread(sys.stdin.readline)
        if not line or json.loads(line).get("op") != "finish":
            return  # the generator gave the pass up
        result = _result(await server.finish(), server)
        if recorder is not None:
            result["layers"] = recorder.layers()
        # the generator stops its clock on this line, so it goes out before teardown
        _emit(result)
    finally:
        await server.close()


def serve_pass(spec: LiveClusterSpec, command: Dict[str, object]) -> None:
    """Serve one pass: a fresh dispatcher and edge server, then teardown."""
    mode = command.get("mode", "plain")
    recorder = SpanRecorder() if mode == "traced" else None
    telemetry = Telemetry() if mode == "telemetry" else None
    if recorder is not None:
        recorder.install()
    try:
        # built before the loop starts, as `repro serve` does: the procs
        # runtime forks its workers here, while no thread exists
        dispatcher = LiveDispatcher(
            spec,
            runtime=str(command.get("runtime", "sim")),
            num_workers=int(command.get("workers", 2)),
            telemetry=telemetry,
        )
        try:
            asyncio.run(
                _serve(dispatcher, int(command.get("max_inflight", 64)), telemetry, recorder)
            )
        finally:
            dispatcher.close()
    finally:
        if recorder is not None:
            recorder.uninstall()
    if recorder is not None and command.get("trace_out"):
        recorder.write_chrome_trace(str(command["trace_out"]))


def build_spec(clients: int, seed: int, shards: int) -> LiveClusterSpec:
    """The cluster shape ``repro serve`` would provision for these flags.

    The recipe of ``repro.cli.serve_spec``, written out: importing
    ``repro.cli`` pulls in every experiment module and adds half a second to
    each cold start this benchmark times.
    """
    scenario = build_cluster_scenario(num_clients=clients, seed=seed)
    scenario = getattr(scenario, "scenario", scenario)
    return LiveClusterSpec(
        client_distributions=dict(scenario.client_distributions),
        num_shards=shards,
        config=TommyConfig(seed=seed),
    )


def main(argv: Optional[List[str]] = None) -> int:
    """Serve passes until told to quit."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--clients", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--shards", type=int, required=True)
    args = parser.parse_args(argv)
    spec = build_spec(args.clients, args.seed, args.shards)
    while True:
        line = sys.stdin.readline()
        if not line:
            return 0
        command = json.loads(line)
        if command.get("op") == "quit":
            return 0
        if command.get("op") == "pass":
            serve_pass(spec, command)


if __name__ == "__main__":
    sys.exit(main())
