"""Retired names stay retired.

Each row of :data:`RETIRED` is one deletion: a regular expression for the
names that left, the paths (relative to the repository root) they must not
come back to, and why they went.  The scan reads the files in-process, line
by line like ``grep -rnE``, skipping ``__pycache__``.  This module spells
every pattern out, so it is the one file the scan never reads.  A new
deletion adds a row here, and a line to :data:`PUT_BACK` that shows the row
catches the name coming back.
"""

import re
from pathlib import Path

import pytest

THIS_FILE = Path(__file__).resolve()
REPO = THIS_FILE.parents[1]

RETIRED = {
    "one-lineariser": (
        r"import networkx|use_engine|TournamentGraph|resolve_cycles|engine_pair_tables",
        ("src", "setup.py"),
        "one lineariser and one online path: no networkx, graph tournament, graph cycle "
        "breaker or engine knob in src/",
    ),
    "edge-callback-protocol": (
        r"asyncio\.Queue|start_server|StreamReader|read_chunk",
        ("src/repro/edge/server.py",),
        "the edge is a callback protocol: no stream reader, handler task, intake queue or "
        "pump between the socket and the gate",
    ),
    "event-heap-tuples": (
        r"order=True",
        ("src/repro/simulation/event_loop.py",),
        "the event heap orders (time, priority, seq) tuples in C, never Event objects",
    ),
    "flat-merge-band": (
        r"np\.isin|cross_upper|np\.ones\(\(n, n\)\)",
        ("src/repro/cluster/merge.py",),
        "the flat merge hashes no store and builds no square: the band Kahn pass reads "
        "windows and pair store; only a cycle builds a bool direction matrix",
    ),
    "one-cluster-path": (
        r"streaming_merge[=:]|no-streaming-merge|merge_threshold|receive_many_at|_route_many"
        r"|coalesce_bursts",
        (
            "src/repro/cluster",
            "src/repro/runtime",
            "src/repro/experiments",
            "src/repro/workloads",
            "src/repro/cli.py",
        ),
        "one cluster path: no streaming-merge switch, merge-threshold override, burst "
        "routing or burst fan-in in the cluster, runtimes, sweeps or CLI",
    ),
    "one-intake-path": (
        r"receive_many|add_messages|_compute_block|coalesce_bursts|on_burst|BurstCallback"
        r"|block_appends",
        ("src",),
        "one intake path: every message enters the engine through add_message; no block "
        "append, burst receive or transport coalescing",
    ),
    "one-shard-host-replay": (
        r"replay_messages|replay_scenario",
        ("src",),
        "one shard host: no scenario-replay helper in src/",
    ),
    "one-shard-host-runtimes": (
        r"^\s*(from|import)\s+repro\.cluster\.sharded"
        r"|^\s*from\s+repro\.cluster\s+import.*ShardedSequencer",
        ("src/repro/runtime",),
        "one shard host: nothing in the runtimes imports the chaos harness's ShardedSequencer",
    ),
    "one-test-tree": (
        r"BENCH_RESULTS_JSON|check_regression|baselines\.json|_BENCH_(MESSAGES|BATCHES|SHARDS"
        r"|CLIENTS)|pytest-benchmark",
        (
            "src",
            "tests",
            "pyproject.toml",
            "requirements.txt",
            ".github/workflows/nightly.yml",
        ),
        "one test tree, one gate: tests/ and bench/ are the test tree and bench/run.py under "
        "BENCHMARK.json is the performance gate; no results-file knob, regression script, "
        "frozen floors, bench size knob or pytest-benchmark",
    ),
    "src-holds-what-runs": (
        r"SyncProtocol|AdaptiveOffsetLearner|RegimeShiftDetector|DriftTracker"
        r"|per_client_fairness|SealedBidAuction|ReferenceClock|OracleSequencer|LamportClock",
        ("src",),
        "src/ holds only what runs: the sync protocol, drift tracking, per-client fairness, "
        "sealed-bid auction, reference clock, oracle and Lamport modules had no caller "
        "outside tests/",
    ),
    "one-offline-path": (
        r"\b(build_relation|form_batches|BatchingOutcome|_strict_boundary_strengths)\b"
        r"|repro\.core\.batching",
        ("src",),
        "one offline path: TommySequencer orders and batches on the engine's matrix; no "
        "n^2-entry relation dict build or pair-by-pair batching in src/ (the per-pair "
        "batching is the oracle tests/reference/batching_reference.py)",
    ),
}


#: One line per row that puts a retired name back; the new row lists every
#: name it retires.  ``test_each_row_catches_its_names_put_back`` plants each
#: line in a scratch tree and checks that the row's scan reports it.
PUT_BACK = [
    ("one-lineariser", "import networkx as nx"),
    ("edge-callback-protocol", "queue = asyncio.Queue()"),
    ("event-heap-tuples", "@dataclass(order=True)"),
    ("flat-merge-band", "mask = np.isin(keys, seen)"),
    ("one-cluster-path", "def receive_many_at(self, messages):"),
    ("one-intake-path", "engine.add_messages(batch)"),
    ("one-shard-host-replay", "from repro.cluster.host import replay_messages"),
    ("one-shard-host-runtimes", "from repro.cluster.sharded import ShardedSequencer"),
    ("one-test-tree", 'RESULTS = os.environ.get("BENCH_RESULTS_JSON")'),
    ("src-holds-what-runs", "from repro.sync.protocol import SyncProtocol"),
    ("src-holds-what-runs", "learner = AdaptiveOffsetLearner()"),
    ("src-holds-what-runs", "detector = RegimeShiftDetector()"),
    ("src-holds-what-runs", "tracker = DriftTracker()"),
    ("src-holds-what-runs", "rates = per_client_fairness(result)"),
    ("src-holds-what-runs", "auction = SealedBidAuction()"),
    ("src-holds-what-runs", "clock = ReferenceClock(loop)"),
    ("src-holds-what-runs", "sequencer = OracleSequencer()"),
    ("src-holds-what-runs", "clock = LamportClock()"),
    ("one-offline-path", "relation = build_relation(messages, model)"),
    ("one-offline-path", "outcome = form_batches(order, relation, 0.75)"),
    ("one-offline-path", "def batch(order) -> BatchingOutcome:"),
    ("one-offline-path", "strengths = _strict_boundary_strengths(order, relation)"),
    ("one-offline-path", "from repro.core.batching import form_batches"),
]


def scanned_files(path: Path):
    if path.is_file():
        yield path
        return
    for child in sorted(path.rglob("*")):
        if child.is_file() and "__pycache__" not in child.parts:
            yield child


def row_hits(row, root: Path):
    """``grep -rnE`` of ``row``'s pattern over its paths under ``root``."""
    pattern, paths, _ = RETIRED[row]
    regex = re.compile(pattern)
    hits = []
    for relative in paths:
        path = root / relative
        assert path.exists(), f"{relative} is gone: drop it from the {row!r} row"
        for file in scanned_files(path):
            if file == THIS_FILE:
                continue
            lines = file.read_text(errors="replace").splitlines()
            hits.extend(
                f"{file.relative_to(root)}:{number}: {line.strip()}"
                for number, line in enumerate(lines, 1)
                if regex.search(line)
            )
    return hits


@pytest.mark.parametrize("row", list(RETIRED))
def test_retired_names_stay_out(row):
    hits = row_hits(row, REPO)
    assert not hits, f"{RETIRED[row][2]}\n" + "\n".join(hits)


def test_every_row_has_a_put_back_line():
    assert {row for row, _ in PUT_BACK} == set(RETIRED)


@pytest.mark.parametrize(
    "row, line", [pytest.param(row, line, id=f"{row}:{line}") for row, line in PUT_BACK]
)
def test_each_row_catches_its_names_put_back(row, line, tmp_path):
    """A scratch tree with every path of the row, one of them holding ``line``."""
    _, paths, _ = RETIRED[row]
    for relative in paths:
        target = tmp_path / relative
        if (REPO / relative).is_dir():
            target.mkdir(parents=True, exist_ok=True)
            target = target / "clean.py"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text("x = 1\n")
    planted = tmp_path / paths[0]
    if planted.is_dir():
        planted = planted / "restored.py"
    planted.write_text(f"x = 1\n{line}\n")
    hits = row_hits(row, tmp_path)
    assert hits == [f"{planted.relative_to(tmp_path)}:2: {line}"]


def test_no_benchmarks_tree():
    """tests/ and bench/ are the one test tree."""
    assert not (REPO / "benchmarks").exists()
