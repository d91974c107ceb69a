"""quadorbit benchmark: seeded workloads run through quadorbit.cli.main.

    python3 bench/run.py --workload sweep-sampled --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --out bench/out/parent.json

A closed loop: one client issues the commands of a pass one after another,
each pass in a fresh worker process (cold caches, its own peak RSS), with
QUADORBIT_JOBS=1.  Passes repeat, each with its own seeded inputs, until
--seconds is used up.  Every output is checked (goldens byte for byte, and
the library's oracles); the metrics go to stdout by name with their units,
and the last line is one JSON object: end-to-end metrics with --trace 0,
per-layer metrics from a traced run with --trace 1.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
GOLDENS = BENCH / "goldens.json"
# Each run must end well inside 180 s, whatever --seconds asks for.
HARD_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def run_pass(workload: str, seed: int, index: int, trace: bool, timeout: float) -> dict:
    spec = {"workload": workload, "seed": seed, "pass": index, "trace": trace}
    env = dict(os.environ, QUADORBIT_JOBS="1", PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} pass {index} did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass {index} could not run:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def load_goldens() -> dict[str, str]:
    return json.loads(GOLDENS.read_text())["outputs"] if GOLDENS.exists() else {}


def golden_failures(record: dict, goldens: dict[str, str]) -> list[dict]:
    failures = []
    for out in record["outputs"]:
        want = goldens.get(out["key"])
        got = f"{out['sha256']}:{out['bytes']}"
        if want is not None and want != got:
            failures.append({"command": out["key"], "reason": f"output differs from the golden ({got} != {want})"})
    return failures


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, goldens: dict, why: dict) -> dict:
    """Run passes until ``seconds`` is used; with ``trace`` each pass index runs
    untraced and then traced on the same inputs."""
    start = time.perf_counter()
    plain: list[dict] = []
    traced: list[dict] = []
    failures: list[str] = []
    attempted = failed = 0
    index = 0
    batch = (False, True) if trace else (False,)
    while True:
        for traced_pass in batch:
            remaining = HARD_LIMIT_S - (time.perf_counter() - start)
            record = run_pass(workload, seed, index, traced_pass, max(remaining, 1.0))
            (traced if traced_pass else plain).append(record)
            attempted += record["attempted"]
            found = record["failures"] + golden_failures(record, goldens)
            failed += len({f["command"] for f in found})
            failures += [f"{f['command']}: {f['reason']}" for f in found]
        index += 1
        elapsed = time.perf_counter() - start
        # Start another pass only if it is expected to end within the budget.
        if elapsed + elapsed / index > seconds:
            break
    result = {
        "workload": workload,
        "why": why[workload],
        "params": workloads.PARAMS[workload],
        "seed": seed,
        "passes": index,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": failures[:20],
        "setup_s": quartiles([r["setup_s"] for r in plain]),
        "wall_s": quartiles([r["wall_s"] for r in plain]),
        "peak_rss_mb": quartiles([r["peak_rss_mb"] for r in plain]),
        "command_s": {
            label: statistics.median(r["seconds"][label] for r in plain)
            for label in plain[0]["seconds"]
        },
    }
    if trace:
        totals: dict[str, float] = {}
        for record in traced:
            for key, value in record["trace"].items():
                totals[key] = totals.get(key, 0) + value
        n = len(traced)
        result["layers"] = tracing.metrics(
            totals,
            n,
            wall=sum(r["wall_s"] for r in traced) / n,
            untraced_wall=sum(r["wall_s"] for r in plain) / n,
            bytes_out=sum(o["bytes"] for r in traced for o in r["outputs"]) / n,
        )
    return result


def end_to_end(result: dict) -> dict:
    return {
        "wall_s": {"value": result["wall_s"]["median"], "unit": "s"},
        "setup_s": {"value": result["setup_s"]["median"], "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"]["median"], "unit": "MB"},
    }


def print_result(result: dict) -> None:
    print(f"workload {result['workload']}: seed {result['seed']}, {result['passes']} passes")
    for name, unit in (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")):
        q = result[name]
        print(f"  {name:<12} {q['median']:.6g} {unit} (median of {q['n']}; quartiles {q['q1']:.6g} .. {q['q3']:.6g})")
    print(f"  {'failed_frac':<12} {result['failed_frac']:.6g} fraction ({result['failed']} of {result['attempted']} commands)")
    for reason in result["failures"]:
        print(f"  FAILED {reason}")
    for name, metric in result.get("layers", {}).items():
        print(f"  {name:<36} {metric['value']:.6g} {metric['unit']}")


def commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = ROOT / ".git" / ref[5:]
        if ref_path.exists():
            return ref_path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int, seconds: float) -> dict:
    return {
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "seed": seed,
        "seconds": seconds,
        "QUADORBIT_JOBS": "1",
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full record (environment, quartiles, failures) as JSON")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "quadorbit" / "cli.py").is_file():
        print(f"bench: no quadorbit sources at {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    goldens = load_goldens()
    why = {w["name"]: w["why"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    env = environment(args.seed, args.seconds)
    print("environment " + json.dumps(env, sort_keys=True))
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds, bool(args.trace), goldens, why))
            print_result(results[-1])
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps({"environment": env, "results": results}, indent=2) + "\n")

    if len(results) == 1:
        metrics = results[0]["layers"] if args.trace else end_to_end(results[0])
    else:
        per = ((r["workload"], r["layers"] if args.trace else end_to_end(r)) for r in results)
        metrics = {f"{w}.{name}": value for w, m in per for name, value in m.items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
