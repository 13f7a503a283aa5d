"""Set-up probe: import, build the fleet, plan its shards, say ``ready``.

``run.py`` starts this in a fresh interpreter and times it from launch
to the ``ready`` line, which it prints at the point where the first
shard could start.  Usage::

    python3 perfbench/setup_probe.py --workload sweep-1d --seed 0 [--tiny]
"""

import argparse
import sys

from workloads import WORKLOADS, build_specs

from repro.fleet import FleetRunner


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    specs = build_specs(workload, args.seed, args.tiny)
    runner = FleetRunner(specs, **workload.runner_kwargs())
    shards = runner.shards()
    print(f"ready {len(shards)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
