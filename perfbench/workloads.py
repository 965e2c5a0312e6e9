"""The ops of each benchmark workload, generated from the workload seed.

An op is one ``nhchain.cli.run_preset`` or ``nhchain.cli.run_config`` call.
This module does not import nhchain at import time, so that the set-up
probe can time that import itself.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field

WORKLOADS = ("presets", "spectrum-scan", "dense-record")

# Ops whose median time is printed as <op>_s: the ROADMAP targets.
NAMED_OPS = {"presets": ("fig3", "fig4", "fig5")}

# Drawn inputs come from small fixed sets, so that every input a seed can
# produce has stored reference values (make_reference.py enumerates them).
SEED_KEYS = (223, 1009, 4242, 31337)
CENTERS = (-6, 0, 6)
WIDTHS = (6.0, 9.0, 12.0)

CHAIN = {"J": 1.0, "V": 2e-4}


@dataclass(frozen=True)
class Op:
    """One benchmark operation.

    ``spec`` is ``{"preset": name, ...}`` for a preset, else the raw config
    handed to ``cli.parse_config``.  It holds every input the op depends on.
    """

    name: str
    spec: dict = field(hash=False)

    @property
    def preset(self) -> str | None:
        return self.spec.get("preset")

    def key(self) -> str:
        return json.dumps(self.spec, sort_keys=True)


def draw(seed: int) -> dict:
    """The seed-dependent inputs of a workload."""
    rng = random.Random(seed)
    return {
        "seed": rng.choice(SEED_KEYS),
        "initial_center": rng.choice(CENTERS),
        "initial_width": rng.choice(WIDTHS),
    }


def all_draws() -> list[dict]:
    """Every value ``draw`` can return."""
    return [
        {"seed": s, "initial_center": c, "initial_width": w}
        for s, c, w in itertools.product(SEED_KEYS, CENTERS, WIDTHS)
    ]


def ops(workload: str, drawn: dict) -> list[Op]:
    """The ops of one pass over ``workload``, in run order.

    Only the ops whose outputs depend on them get the drawn keys: the
    ``seed`` key feeds the random initial state of convergence runs only.
    """
    if workload == "presets":
        return [
            Op("fig2", {"preset": "fig2"}),
            Op("fig3", {"preset": "fig3", "seed": drawn["seed"]}),
            Op("fig4", {"preset": "fig4"}),
            Op("fig5", {"preset": "fig5"}),
        ]
    if workload == "spectrum-scan":
        scan = [
            Op(f"spectrum-M{m}", {"experiment": "spectrum", **CHAIN, "M": m, "count": 12})
            for m in (100, 200, 300, 400, 500)
        ]
        full = Op("spectrum-full-M100",
                  {"experiment": "spectrum", **CHAIN, "M": 100, "count": 201})
        return scan + [full]
    if workload == "dense-record":
        return [
            Op("probability-M400", {"experiment": "probability", **CHAIN, "M": 400,
                                    "t_end": 400.0, "record_stride": 1}),
            Op("convergence-M100", {"experiment": "convergence", **CHAIN, "M": 100,
                                    "t_end": 40.0, "record_stride": 1, **drawn}),
            Op("switch-M100", {"experiment": "switch", **CHAIN, "M": 100,
                               "t_relax": 60.0, "record_stride": 1}),
        ]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


# Untimed first op of every process: pages in LAPACK's eig, whose first call
# in a fresh process after idle can take ten times its warm time.
WARMUP = Op("warmup", {"experiment": "spectrum", **CHAIN, "M": 100, "count": 12})


def prepare(cli, op_list: list[Op]) -> list:
    """Parse each config op through the CLI; presets resolve inside run_preset."""
    return [None if op.preset else cli.parse_config(json.dumps(op.spec)) for op in op_list]
