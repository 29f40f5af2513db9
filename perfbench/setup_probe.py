"""One set-up of a workload in a fresh interpreter, for timing by run.py.

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR TINY

Imports clustersc cold, prepares the workload's inputs exactly as a run
does, prints the import time in seconds and exits. The caller times the
whole process, from spawn to exit, as one set-up sample.
"""

import sys
import time
from pathlib import Path

start = time.perf_counter()
import clustersc.cli  # noqa: E402  (the timed cold import)

import_s = time.perf_counter() - start

from workloads import WORKLOADS, prepare  # noqa: E402

workload, seed, work, tiny = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]), sys.argv[4] == "1"
prepare(WORKLOADS[workload], seed, work, tiny)
print(repr(import_s))
