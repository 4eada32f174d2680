"""Write one workload's input files: ``generate.py WORKLOAD SCALE SEED OUT_DIR``.

``run.py`` starts this in its own process, so the generator's memory does not
count towards the peak resident memory of the process that runs the workload.
"""

import sys
from pathlib import Path

from workloads import WORKLOADS, generate

if __name__ == "__main__":
    name, scale, seed, out_dir = sys.argv[1:]
    generate(WORKLOADS[scale][name], int(seed), Path(out_dir))
