"""One timed set-up: import cfl, then generate and write a workload's inputs.

    python3 perfbench/setup_inputs.py <workload> <directory>

Prints one JSON object: the seconds from before `import cfl` to the last
input written, and the paths written.  The benchmark runs this in a fresh
process several times per run, so each repeat pays the import a user's
`cfl` command pays.
"""

import json
import os
import sys
import time


def main() -> int:
    start = time.perf_counter()
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    import cfl  # noqa: F401  (the import is part of what is timed)
    import workloads

    inputs = workloads.write_inputs(sys.argv[1], sys.argv[2])
    print(json.dumps({"setup_s": time.perf_counter() - start, "inputs": inputs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
