"""Set-up probe: import oddspan and build one workload's inputs.

Run in a fresh interpreter by ``run.py``.  Prints one JSON line with the
wall time from before the first import to the built inputs, and the
inputs themselves.

    python3 perfbench/probe.py --workload check-small --seed 1
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402

from checkout import use_checkout_source  # noqa: E402

use_checkout_source()

import workloads  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()
    ops = workloads.build(args.workload, args.seed, args.tiny)
    setup_s = time.perf_counter() - T0
    print(json.dumps({"setup_s": setup_s, "digest": workloads.digest(ops), "ops": workloads.to_json(ops)}))


if __name__ == "__main__":
    main()
