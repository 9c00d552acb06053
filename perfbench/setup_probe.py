"""One set-up of a workload, in a fresh process: import llgeo and generate
the workload's inputs, then exit.  The benchmark times this process from
start to exit as `setup_s`.

    python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys

import workloads

if __name__ == "__main__":
    workloads.make_inputs(sys.argv[1], int(sys.argv[2]))
