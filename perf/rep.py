"""One rep of one workload in this (fresh) interpreter.

``run.py`` starts this file as a subprocess, with ``src/`` on
``PYTHONPATH``, and reads the JSON object it prints last; nothing else
imports it.
"""

from __future__ import annotations

import argparse
import json
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    import workloads
    result = workloads.run_rep(
        workloads.SPECS[args.workload], args.seed, out_dir=args.out_dir,
        traced=args.trace, smoke=args.smoke)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
