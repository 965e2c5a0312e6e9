#!/usr/bin/env python3
"""Regenerate perfbench/reference.json from the nhchain sources of this checkout.

    python3 perfbench/make_reference.py

Runs every distinct op that any seed can draw, once, and stores the header,
row count and sampled rows of each CSV it writes (checks.extract).  Regenerate
only when the program's intended outputs change, and say so in the change.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import nhchain.cli as cli

    distinct = {}
    for workload in workloads.WORKLOADS:
        for drawn in workloads.all_draws():
            for op in workloads.ops(workload, drawn):
                distinct.setdefault(op.key(), op)
    reference = {}
    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    for op in distinct.values():
        outdir = Path(tempfile.mkdtemp(dir=out))
        try:
            if op.preset:
                cli.run_preset(op.preset, outdir, seed=op.spec.get("seed"))
            else:
                cli.run_config(workloads.prepare(cli, [op])[0], outdir)
            files = checks.read_outputs(outdir)
        finally:
            shutil.rmtree(outdir)
        reference.update(checks.extract(op, files))
        problems = checks.check(op, files, reference)
        if problems:
            print(f"{op.name}: {problems}", file=sys.stderr)
            return 1
        print(f"{op.name} {op.key()}", flush=True)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
