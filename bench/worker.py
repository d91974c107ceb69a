"""One benchmark pass in a fresh process, so its caches start cold and its
peak resident memory is its own.

Usage: python3 bench/worker.py '{"workload": ..., "seed": ..., "pass": ..., "trace": ...}'

Prints one JSON object on stdout.  Exits non-zero only if the pass could
not be set up (for example, no ``src/quadorbit`` beside ``bench/``); a
command that fails is reported in the object, not by the exit code.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _load_library():
    """Import quadorbit from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import quadorbit.cli

    if Path(quadorbit.__file__).resolve().parent.parent != src:
        raise ImportError(f"quadorbit was imported from {quadorbit.__file__}, not from {src}")
    return {layer: sys.modules[f"quadorbit.{layer}"] for layer in tracing.LAYERS}


def _clear_caches(modules: dict) -> None:
    for module, attr in tracing.CACHES.values():
        getattr(modules[module], attr).cache_clear()


def run_pass(spec: dict) -> dict:
    # An inherited QUADORBIT_JOBS > 1 would move sweep work into a process pool
    # that the tracing wrappers do not reach.
    os.environ["QUADORBIT_JOBS"] = "1"
    start = time.perf_counter()
    modules = _load_library()
    modules["cli"].build_parser()
    commands = workloads.commands(spec["workload"], spec["seed"], spec["pass"])
    setup_s = time.perf_counter() - start

    tracer = tracing.install(modules) if spec["trace"] else None
    cli, lcp = modules["cli"], modules["lcp"]
    wall = 0.0
    attempted = 0
    failures: list[dict] = []  # {"command": ..., "reason": ...}
    outputs: list[dict] = []
    seconds: dict[str, float] = {}
    for command in commands:
        # Every command starts cold, as it would in its own CLI process.
        _clear_caches(modules)
        label = command["label"]
        if command["kind"] == "verify":
            p = command["p"]
            for seed in command["seeds"]:
                attempted += 1
                begin = time.perf_counter()
                try:
                    report = lcp.verify_profile_bounds(p, seed)
                except Exception as exc:  # a crash is a failed command, not a failed pass
                    elapsed = time.perf_counter() - begin
                    reason = f"raised {exc!r}"
                else:
                    elapsed = time.perf_counter() - begin
                    reason = workloads.check_report(command, report)
                if reason:
                    failures.append({"command": f"verify_profile_bounds {p} {seed}", "reason": reason})
                wall += elapsed
                seconds[label] = seconds.get(label, 0.0) + elapsed
            if tracer:
                tracer.record_caches()
            continue
        attempted += 1
        argv = command["argv"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            begin = time.perf_counter()
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse rejected the command line
                rc = exc.code
            except Exception as exc:
                rc = repr(exc)
            elapsed = time.perf_counter() - begin
        wall += elapsed
        seconds[label] = seconds.get(label, 0.0) + elapsed
        if tracer:
            tracer.record_caches()
        text = out.getvalue()
        data = text.encode()
        reason = workloads.check_cli(command, rc, text) if isinstance(rc, int) else f"raised {rc}"
        key = " ".join(argv)
        if reason:
            failures.append({"command": key, "reason": f"{reason} {err.getvalue().strip()}".strip()})
        outputs.append({"key": key, "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)})
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": attempted,
        "failures": failures,
        "outputs": outputs,
        "seconds": seconds,
        "trace": tracer.totals() if tracer else None,
    }


if __name__ == "__main__":
    print(json.dumps(run_pass(json.loads(sys.argv[1]))))
