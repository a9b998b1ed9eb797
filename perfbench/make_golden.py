"""Write golden.json: the digests and final errors of the benchmark's
operations for the default workload seed and one held-out seed.

Run from the root of a checkout whose outputs are known to be right:

    python3 perfbench/make_golden.py

A change that alters a trajectory, a plan or a verify verdict makes
``run.py`` fail those operations until the golden file is rewritten, which
is a change to the benchmark, not to the program.
"""

import json
import sys

from run import GOLDEN_PATH, OpFailed, check_op, op_digest, op_errors, run_child, scratch_dir
from workloads import WORKLOADS, build_op, op_seed

GOLDEN_WORKLOAD_SEEDS = (1, 2)  # the default seed and a held-out one


def main():
    golden = {}
    with scratch_dir("golden") as workdir:
        for workload in WORKLOADS:
            golden[workload] = {}
            for workload_seed in GOLDEN_WORKLOAD_SEEDS:
                seed = op_seed(workload_seed)
                calls = build_op(workload, seed, workdir)
                result = run_child(calls, False, workdir, 170.0)
                problems = check_op(workload, seed, calls, result, {})
                if problems:
                    raise OpFailed(f"{workload} seed {seed}: {problems}")
                golden[workload][str(seed)] = {
                    "digest": op_digest(result), "errors": op_errors(result),
                }
                print(workload, seed, golden[workload][str(seed)]["digest"])
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
