"""Set-up probe: import nhchain.cli in a fresh interpreter and build a workload's configs.

    PYTHONPATH=src python3 perfbench/setup_probe.py <workload> <seed>

run.py times whole runs of this script as ``setup_s``: what a CLI user pays
before any work starts.
"""

import sys

import workloads


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    import nhchain.cli

    workloads.prepare(nhchain.cli, workloads.ops(workload, workloads.draw(seed)))


if __name__ == "__main__":
    main()
