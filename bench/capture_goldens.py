"""Record the sha256 and length of every CLI output of the default seed's
first passes in bench/goldens.json.

    python3 bench/capture_goldens.py

bench/run.py then compares every command whose argv matches a recorded one
byte for byte.  The goldens belong to the commit recorded in the file.  A
change that keeps output byte-identical must pass against them as they are;
recapture only for a change that is meant to alter output bytes, and say so.
"""

from __future__ import annotations

import json

import run

# More passes than a 30-second run of each workload gets through on a
# 2-core machine; sweep-exhaustive runs the same commands in every pass.
PASSES = {"sweep-sampled": 48, "sweep-exhaustive": 1, "enumerate": 12, "bounds": 24}
SEED = 0


def main() -> None:
    outputs: dict[str, str] = {}
    for workload, passes in PASSES.items():
        for index in range(passes):
            record = run.run_pass(workload, SEED, index, False, run.HARD_LIMIT_S)
            if record["failures"]:
                raise SystemExit(f"{workload} pass {index} failed its oracles: {record['failures']}")
            for out in record["outputs"]:
                outputs[out["key"]] = f"{out['sha256']}:{out['bytes']}"
        print(f"{workload}: {passes} passes recorded", flush=True)
    golden = {"commit": run.commit(), "seed": SEED, "passes": PASSES, "outputs": dict(sorted(outputs.items()))}
    run.GOLDENS.write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    main()
