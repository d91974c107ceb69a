"""Compare paired benchmark records of a parent commit and a change.

    python3 bench/compare.py --parent p1.json p2.json ... --change c1.json c2.json ...

Each file is a ``bench/run.py --out`` record; the i-th parent and i-th
change file form one pair (same seed, run back to back, alternating which
side runs first).  For every workload and end-to-end metric it prints both
sides' median and quartiles, how many pairs the change won, the parent's
own spread, and a verdict:

- ``gain``: over at least 10 pairs, the change won at least 9 of every 10
  (ties count for neither) and the medians differ by more than the parent's
  quartile spread;
- ``regression``: the change's median is worse than the parent's by more
  than the metric's bound in BENCHMARK.json;
- ``unresolved``: the parent's own spread exceeds the bound and not every
  change run beats every parent run;
- ``no change`` otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _load(paths: list[str]) -> list[dict]:
    return [{r["workload"]: r for r in json.loads(Path(p).read_text())["results"]} for p in paths]


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], bound: float) -> tuple[str, int]:
    """Lower is better for every end-to-end metric of this benchmark."""
    wins = sum(c < p for p, c in zip(parent, change))
    p1, pm, p3 = _quartiles(parent)
    cm = statistics.median(change)
    if len(parent) >= 10 and wins >= 0.9 * len(parent) and pm - cm > p3 - p1:
        return "gain", wins
    if cm > pm * (1 + bound):
        return "regression", wins
    if (p3 - p1) / pm > bound and max(change) >= min(parent):
        return "unresolved", wins
    return "no change", wins


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args()
    if len(args.parent) != len(args.change):
        parser.error("give one change record per parent record")
    parent, change = _load(args.parent), _load(args.change)
    bounds = {m["name"]: m["bound"] for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    for workload in parent[0]:
        for metric, bound in bounds.items():
            pv = [run[workload][metric]["median"] for run in parent]
            cv = [run[workload][metric]["median"] for run in change]
            result, wins = verdict(pv, cv, bound)
            p1, pm, p3 = _quartiles(pv)
            c1, cm, c3 = _quartiles(cv)
            print(
                f"{workload:<17} {metric:<12} parent {pm:.5g} [{p1:.5g}, {p3:.5g}]  "
                f"change {cm:.5g} [{c1:.5g}, {c3:.5g}]  wins {wins}/{len(pv)}  "
                f"parent spread {(p3 - p1) / pm:.3f}  {result}"
            )


if __name__ == "__main__":
    main()
