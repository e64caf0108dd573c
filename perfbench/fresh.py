"""Measurements that need a fresh interpreter.

    python3 -m perfbench.fresh op WORKLOAD OP_SEED SCRATCH
    python3 -m perfbench.fresh cli ARG...

Run from the repository root with ``src`` on ``PYTHONPATH``.  Both modes
time set-up: ``import repro`` plus building the inputs.  ``op`` then runs
and checks the workload's first op, before any law table exists.  ``cli``
runs ``repro.cli.main(ARG...)``, as ``python -m repro ARG...`` does, and
times it.  The last stdout line is one JSON object with the timings.
"""

import json
import sys
import time
from pathlib import Path

if __name__ == "__main__":
    started = time.perf_counter()
    import repro  # noqa: F401  (the import is what set-up measures)

    mode, args = sys.argv[1], sys.argv[2:]
    if mode == "cli":
        import repro.cli

        setup_s = time.perf_counter() - started
        code = repro.cli.main(args)
        run_s = time.perf_counter() - started - setup_s
        print(json.dumps({"setup_s": setup_s, "run_s": run_s}))
        sys.exit(code)

    from perfbench import workloads

    name, seed, scratch = args[0], int(args[1]), Path(args[2])
    ops = workloads.build(name)
    setup_s = time.perf_counter() - started
    ctx = workloads.Context(root=Path.cwd(), scratch=scratch, cli_in_subprocess=False)
    record = workloads.execute(ops[0], seed, ctx, index=0)
    print(json.dumps({"setup_s": setup_s, "cold": record}))
