"""Compare two result documents of ``bench/run.py --out``.

    python3 bench/compare.py A.json B.json

For every (end-to-end metric, workload) pair prints one of

* ``within-bound`` — B's reported value is no worse than A's by more than the
  bound ``BENCHMARK.json`` fixes for the metric;
* ``worse`` — it is worse by more than the bound;
* ``unresolved`` — a run's quartile spread (q3 − q1 over its median) is wider
  than the bound and the two runs' quartile boxes overlap, so the passes
  cannot tell a change of that size from noise.

``failed_share`` and ``parity_ok`` are exact: any failed frame or parity
miss in B is ``worse``.  Rows pair a workload with itself only, and a pair
whose inputs had different regimes is refused.  Exits 1 when any pair is
``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

_ROOT = Path(__file__).resolve().parent.parent

#: The two exact end-to-end rows.  ``BENCHMARK.json`` cannot list them (its
#: metrics must never be 0); there they are the result line's ``failed`` and
#: ``correct``.  ``ack_p99_ms`` is printed by ``run.py`` but demoted, so not judged.
EXACT = (
    {"name": "failed_share", "better": "lower", "bound": 0.0},
    {"name": "parity_ok", "better": "higher", "bound": 0.0},
)


def verdict(a: Dict[str, float], b: Dict[str, float], better: str, bound: float) -> str:
    """Classify one metric of one workload from its two summaries."""
    if a["value"] == 0:
        return "within-bound" if b["value"] == 0 else "worse"
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["value"] - a["value"]) / a["value"]
    spread = max((s["q3"] - s["q1"]) / s.get("median", s["value"]) for s in (a, b) if s["value"])
    overlap = a["q1"] <= b["q3"] and b["q1"] <= a["q3"]
    if spread > bound and overlap:
        return "unresolved"
    return "worse" if worse_by > bound else "within-bound"


def compare(doc_a: dict, doc_b: dict, spec: dict) -> List[Dict[str, object]]:
    """One row per (workload, end-to-end metric) present in both documents."""
    metrics = [dict(m) for m in spec["end_to_end"]] + [dict(m) for m in EXACT]
    rows: List[Dict[str, object]] = []
    for workload, entry_a in doc_a["workloads"].items():
        entry_b = doc_b["workloads"].get(workload)
        if entry_b is None or "end_to_end" not in entry_a or "end_to_end" not in entry_b:
            continue
        if bool(entry_a["cycles_broken"]) != bool(entry_b["cycles_broken"]):
            raise ValueError(f"{workload}: the two runs' inputs have different regimes")
        for metric in metrics:
            a = entry_a["end_to_end"]["metrics"][metric["name"]]
            b = entry_b["end_to_end"]["metrics"][metric["name"]]
            rows.append(
                {
                    "workload": workload,
                    "metric": metric["name"],
                    "a": a["value"],
                    "b": b["value"],
                    "bound": metric["bound"],
                    "verdict": verdict(a, b, metric["better"], metric["bound"]),
                }
            )
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    """Print the comparison; exit 1 on any ``worse``."""
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    documents = []
    for path in args:
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    with open(_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    rows = compare(documents[0], documents[1], spec)
    print(f"{'workload':<18}{'metric':<24}{'A':>12}{'B':>12}{'change':>9}{'bound':>7}  verdict")
    for row in rows:
        change = (row["b"] - row["a"]) / row["a"] if row["a"] else 0.0
        print(
            f"{row['workload']:<18}{row['metric']:<24}{row['a']:>12.4f}{row['b']:>12.4f}"
            f"{change:>+9.1%}{row['bound']:>7.0%}  {row['verdict']}"
        )
    counts = {name: sum(row["verdict"] == name for row in rows) for name in
              ("within-bound", "unresolved", "worse")}
    print(", ".join(f"{count} {name}" for name, count in counts.items()))
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main())
