"""One timed set-up of a workload: package import plus input generation.

Usage: python bench/setup_child.py WORKLOAD SEED

Prints one JSON line with ``import_s``, ``generate_s``, the generated
``inputs`` and ``loop_s``, the calibration loop's time just before, which
scales the set-up time to reference speed.  Each set-up runs in a fresh
interpreter, so the import is cold in the module sense and no cache of the
library survives into the next one.
"""

import json
import statistics
import sys
import time
from pathlib import Path

import speed


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    loop_s = statistics.median(speed.calibration_loop_s()
                               for _ in range(speed.CAL_WINDOW))
    start = time.perf_counter()
    import regionchoice  # noqa: F401
    imported = time.perf_counter()
    import workloads
    begin = time.perf_counter()
    inputs = workloads.generate(workload, seed)
    end = time.perf_counter()
    print(json.dumps({"loop_s": loop_s, "import_s": imported - start,
                      "generate_s": end - begin, "inputs": inputs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
