"""Time, in this fresh process, to import mcfnet and build one problem's inputs.

Usage: python3 perfbench/setup_probe.py <workload> <problem seed>
Prints the seconds from interpreter start-up done to the conflict matrix built.
"""

import sys
import time

started = time.perf_counter()

from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import mcfnet  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

evidence, _ = WORKLOADS[sys.argv[1]].make(int(sys.argv[2]))
mcfnet.conflict_matrix(evidence)
print(time.perf_counter() - started)
