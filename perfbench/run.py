"""Benchmark entry point. Run from the root of a wgtsim checkout:

    python3 perfbench/run.py --workload sensor6 --seed 0 --seconds 20 --trace 0

It imports wgtsim from the checkout's src/, writes its inputs and outputs
under .perfbench_work/, and prints one JSON result object as the last line
of standard output. --trace 0 gives the end-to-end metrics, --trace 1 the
per-layer metrics of a separate traced run. NOTES.md describes both.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

WORK = Path(".perfbench_work")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path(".")
    if not (root / "src" / "wgtsim" / "__init__.py").is_file() or not (root / "configs").is_dir():
        print("perfbench: src/wgtsim or configs/ not found; run from the root of a wgtsim checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str((root / "src").resolve()))
    import bench
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(known: {', '.join(workloads.NAMES)})", file=sys.stderr)
        return 2
    result = bench.measure(args.workload, args.seed, args.seconds, bool(args.trace),
                           root, WORK / args.workload)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
