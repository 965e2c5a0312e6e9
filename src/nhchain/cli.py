"""Command-line interface: config ingestion, figure presets, file emission.

Subcommands:

* ``run <config.json>`` -- execute the experiment described by a config
* ``preset <name>``     -- canned experiments (fig2 | fig3 | fig4 | fig5)

Every run writes, into one output directory and one file at a time as it
is made: the fully resolved config (JSON), one or more CSVs (17 significant
digits, so reruns are byte-identical), one or more SVG plots, and last a
manifest listing the SHA-256 hash and size of every file's written bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
import warnings
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

from .dynamics import (
    DEFAULT_SEED,
    STATE_KINDS,
    IntegratorConfig,
    ObservableSeries,
    default_dt,
    make_initial_state,
    run_convergence_experiment,
    two_mode_series,
)
from .model import ChainParams, Hamiltonian, ModelError, NumericError, SiteState, build_hamiltonian
from .quench import PulseSchedule, run_switch_experiment
from .spectral import numeric_spectrum, spectrum_table
from .svgplot import render_line_plot

__all__ = ["ExperimentConfig", "parse_config", "run_preset", "main"]

EXPERIMENTS = ("spectrum", "convergence", "probability", "switch")
PRESETS = ("fig2", "fig3", "fig4", "fig5")

# ratio omega/J -> (V at J=1, half_width)
PROBABILITY_SWEEP = ((0.01, 2e-4, 100), (0.1, 0.02, 50), (0.4, 0.32, 30))

TIME_LABEL = "time (1/J)"

# A run warns, without failing, of a chain whose envelope tail exceeds TAIL_TOL
# and of a pulse whose hardness mu / ||H||_inf is below HARDNESS_ADVERTISED.
TAIL_TOL = 1e-13
HARDNESS_ADVERTISED = 10.0


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    J: float
    V: float
    M: int
    count: int
    t_end: float
    dt: float
    record_stride: int
    seed: int
    initial_center: int
    initial_width: float
    delta: float
    t_relax: float
    initial_level: str

    def chain_params(self) -> ChainParams:
        return ChainParams(J=self.J, V=self.V, half_width=self.M)

    def integrator(self) -> IntegratorConfig:
        return IntegratorConfig(dt=self.dt, record_stride=self.record_stride)

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True) + "\n"


def _require(condition: bool, key: str, message: str) -> None:
    if not condition:
        raise ModelError(f"config key '{key}': {message}")


def _resolve(raw: dict) -> ExperimentConfig:
    known = {field.name for field in dataclasses.fields(ExperimentConfig)}
    for key in raw:
        if key not in known:
            raise ModelError(f"unknown config key '{key}'")

    experiment = raw.get("experiment")
    _require(experiment in EXPERIMENTS, "experiment", f"must be one of {EXPERIMENTS}, got {experiment!r}")

    def number(key, default, exclusive=True):
        value = raw.get(key, default)
        _require(isinstance(value, (int, float)) and not isinstance(value, bool),
                 key, f"must be a number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:
            value = math.inf
        _require(math.isfinite(value), key, "must be finite")
        if exclusive:
            _require(value > 0.0, key, f"must be > 0.0, got {value!r}")
        else:
            _require(value >= 0.0, key, f"must be >= 0.0, got {value!r}")
        return value

    def integer(key, default, minimum):
        value = raw.get(key, default)
        _require(isinstance(value, int) and not isinstance(value, bool),
                 key, f"must be an integer, got {value!r}")
        _require(value >= minimum, key, f"must be >= {minimum}, got {value!r}")
        return value

    J = number("J", 1.0)
    V = number("V", 2e-4)
    M = integer("M", 100, minimum=1)
    count = integer("count", min(12, 2 * M + 1), minimum=1)
    _require(count <= 2 * M + 1, "count", f"must be <= chain dimension {2 * M + 1}")
    seed = integer("seed", DEFAULT_SEED, minimum=0)

    default_t_end = {"spectrum": 0.0, "convergence": 600.0, "probability": 200.0, "switch": 0.0}
    t_end = number("t_end", default_t_end[experiment], exclusive=False)

    try:
        params = ChainParams(J=J, V=V, half_width=M)
    except ModelError as exc:  # each key is checked above: omega or V * M**2 is out of range
        raise ModelError(f"config keys 'J', 'V' and 'M': {exc}") from exc
    dt = number("dt", default_dt(params))

    delta = number("delta", 0.02)
    t_relax = number("t_relax", 600.0, exclusive=False)

    horizon = t_end if experiment != "switch" else delta + t_relax  # pulse and relaxation
    steps = horizon / dt
    _require(math.isfinite(steps), "dt", f"the step count over time {horizon!r} is not finite")
    auto_stride = max(1, int(round(steps)) // 2000)
    record_stride = integer("record_stride", auto_stride, minimum=1)

    initial_center = integer("initial_center", 0, minimum=-M)
    _require(abs(initial_center) <= M, "initial_center", f"must satisfy |center| <= {M}")
    initial_width = number("initial_width", 10.0)
    initial_level = raw.get("initial_level", "g")
    _require(initial_level in ("g", "e"), "initial_level",
             f"must be 'g' or 'e', got {initial_level!r}")

    return ExperimentConfig(
        experiment=experiment, J=J, V=V, M=M, count=count,
        t_end=t_end, dt=dt, record_stride=record_stride, seed=seed,
        initial_center=initial_center, initial_width=initial_width,
        delta=delta, t_relax=t_relax, initial_level=initial_level,
    )


def _load_object(text: str) -> dict:
    try:
        raw = json.loads(text)
    except ValueError as exc:  # malformed, or an integer literal beyond Python's digit limit
        raise ModelError(f"malformed JSON config: {exc}") from exc
    if not isinstance(raw, dict):
        raise ModelError("config must be a JSON object")
    return raw


def parse_config(text: str) -> ExperimentConfig:
    """Parse a JSON config; unknown keys and bad values are hard errors."""
    return _resolve(_load_object(text))


# ---------------------------------------------------------------------------
# file emission

def _profile_csv(state: SiteState) -> str:
    lines = ["l,re_amp,im_amp,abs2"]
    for l, amp in zip(state.sites(), state.amplitudes):
        lines.append(f"{l},{amp.real:.17g},{amp.imag:.17g},{abs(amp) ** 2:.17g}")
    return "\n".join(lines) + "\n"


def _finish_run(outdir: Path, files: Iterator[tuple[str, str]]) -> list[Path]:
    """Write each (name, text) as it comes, then a manifest of the written bytes; return paths."""
    outputs = {}
    for name, text in files:
        if not outputs:
            outdir.mkdir(parents=True, exist_ok=True)
        data = text.encode()
        (outdir / name).write_bytes(data)
        outputs[name] = {"name": name, "sha256": hashlib.sha256(data).hexdigest(),
                         "bytes": len(data)}
    manifest = {"outputs": [entry for _, entry in sorted(outputs.items())]}
    (outdir / "manifest.json").write_bytes((json.dumps(manifest, indent=2) + "\n").encode())
    return [outdir / name for name in outputs] + [outdir / "manifest.json"]


# ---------------------------------------------------------------------------
# experiment runners: each computes before its first yield, so a failed computation
# writes nothing, then yields config.json and its files as (name, text) on demand

def _build_chain(params: ChainParams) -> Hamiltonian:
    """The chain's Hamiltonian; warns once per chain when its envelope tail exceeds TAIL_TOL."""
    if params.envelope_tail > TAIL_TOL:
        warnings.warn(f"envelope tail exp(-omega*M^2/(2J)) = {params.envelope_tail:.3e} exceeds "
                      f"{TAIL_TOL:.3e}; boundary effects may matter", stacklevel=2)
    return build_hamiltonian(params)


def _run_spectrum(cfg: ExperimentConfig, h: Hamiltonian) -> Iterator[tuple[str, str]]:
    spec = numeric_spectrum(h, count=cfg.count)
    curves = []
    for branch in "+-":
        modes = [mode for mode in spec.modes if mode.branch == branch]
        if modes:
            curves.append((f"Re E ({branch} branch)", [mode.m for mode in modes],
                           [mode.energy.real for mode in modes]))
    curves.append(("Im E", [mode.m for mode in spec.modes],
                   [mode.energy.imag for mode in spec.modes]))
    yield "config.json", cfg.to_json()
    yield "spectrum.csv", spectrum_table(spec)
    yield "ladder.svg", render_line_plot(curves, xlabel="mode index m", ylabel="energy (J)",
                                         title="spectral ladder")


def _run_convergence(cfg: ExperimentConfig, h: Hamiltonian) -> Iterator[tuple[str, str]]:
    initials = {kind: make_initial_state(kind, h.params, center=cfg.initial_center,
                                         width=cfg.initial_width, seed=cfg.seed)
                for kind in STATE_KINDS}
    results = run_convergence_experiment(initials, h, cfg.t_end, cfg.integrator())
    yield "config.json", cfg.to_json()
    for kind, state in initials.items():
        yield f"profile_{kind}.csv", _profile_csv(state)
        yield f"fidelity_{kind}.csv", results[kind].to_csv()
    yield "profile_ground.csv", _profile_csv(results[STATE_KINDS[0]].targets["g"])
    yield "fidelity.svg", render_line_plot(
        [(kind, series["time"], series["F_g"]) for kind, series in results.items()],
        TIME_LABEL, "F_g(t)", "convergence to the ground mode",
    )


def _probability_series(cfg: ExperimentConfig, h: Hamiltonian) -> ObservableSeries:
    """P(t) from (g + e) / ||g + e||, the stable pair's superposition, in closed form."""
    ground, excited = numeric_spectrum(h, count=2).stable_pair()
    return two_mode_series(ground, excited, (0.0, cfg.t_end), cfg.integrator())


def _run_probability(cfg: ExperimentConfig, h: Hamiltonian) -> Iterator[tuple[str, str]]:
    series = _probability_series(cfg, h)
    yield "config.json", cfg.to_json()
    yield "probability.csv", series.to_csv()
    yield "probability.svg", render_line_plot([("P", series["time"], series["P"])],
                                              TIME_LABEL, "P(t)", "Dirac probability")


def _run_probability_sweep(cfg: ExperimentConfig) -> Iterator[tuple[str, str]]:
    """Three-ratio probability comparison (the fig4 preset)."""
    sub_configs = []
    for ratio, V, M in PROBABILITY_SWEEP:
        raw = {"experiment": "probability", "J": cfg.J, "V": V, "M": M,
               "t_end": cfg.t_end, "seed": cfg.seed}
        sub_configs.append((ratio, _resolve(raw)))
    series_list = [_probability_series(sub, _build_chain(sub.chain_params()))
                   for _, sub in sub_configs]
    resolved = {
        "sweep": [dataclasses.asdict(sub) for _, sub in sub_configs],
        "base": dataclasses.asdict(cfg),
    }
    yield "config.json", json.dumps(resolved, indent=2, sort_keys=True) + "\n"
    for (ratio, _), series in zip(sub_configs, series_list):
        yield f"probability_ratio_{ratio:g}.csv", series.to_csv()
    yield "probability.svg", render_line_plot(
        [(f"omega/J = {ratio:g}", series["time"], series["P"])
         for (ratio, _), series in zip(sub_configs, series_list)],
        TIME_LABEL, "P(t)", "Dirac probability vs dissipation scale",
    )


def _run_switch(cfg: ExperimentConfig, h: Hamiltonian) -> Iterator[tuple[str, str]]:
    schedule = PulseSchedule(delta=cfg.delta)
    hardness = schedule.hardness_ratio(h)
    if hardness < HARDNESS_ADVERTISED:
        warnings.warn(f"pulse hardness ratio {hardness:.3g} < {HARDNESS_ADVERTISED:g}: "
                      "impulse approximation not advertised as valid")
    series = run_switch_experiment(h, schedule, cfg.t_relax, cfg.integrator(),
                                   initial=cfg.initial_level)
    sidecar = {
        "delta": cfg.delta,
        "mu": schedule.mu,
        "hardness_ratio": hardness,
        "t_relax": cfg.t_relax,
        "initial_level": cfg.initial_level,
        "dt_pulse": schedule.dt,
        "chain": {"J": cfg.J, "V": cfg.V, "M": cfg.M},
    }
    yield "config.json", cfg.to_json()
    yield "switch.csv", series.to_csv()
    yield "switch_plan.json", json.dumps(sidecar, indent=2, sort_keys=True) + "\n"
    yield "switch.svg", render_line_plot(
        [("F_g(t)", series["time"], series["F_g"]),
         ("F_e(t)", series["time"], series["F_e"])],
        TIME_LABEL, "fidelity", "pulse-driven level switch",
    )


def run_config(cfg: ExperimentConfig, outdir: Path) -> list[Path]:
    """Build the config's chain once and run its experiment on it into ``outdir``."""
    runner = {
        "spectrum": _run_spectrum,
        "convergence": _run_convergence,
        "probability": _run_probability,
        "switch": _run_switch,
    }[cfg.experiment]
    return _finish_run(outdir, runner(cfg, _build_chain(cfg.chain_params())))


PRESET_CONFIGS = {
    "fig2": {"experiment": "spectrum", "J": 1.0, "V": 2e-4, "M": 100, "count": 12},
    "fig3": {"experiment": "convergence", "J": 1.0, "V": 2e-4, "M": 100, "t_end": 600.0},
    "fig4": {"experiment": "probability", "J": 1.0, "V": 2e-4, "M": 100, "t_end": 200.0},
    "fig5": {"experiment": "switch", "J": 1.0, "V": 2e-4, "M": 100,
             "delta": 0.02, "t_relax": 600.0},
}


def run_preset(name: str, outdir: Path, seed: int | None = None) -> list[Path]:
    """Execute one canned figure experiment into ``outdir``."""
    if name not in PRESETS:
        raise ModelError(f"unknown preset {name!r}; expected one of {PRESETS}")
    raw = dict(PRESET_CONFIGS[name])
    if seed is not None:
        raw["seed"] = seed
    cfg = _resolve(raw)
    if name == "fig4":
        return _finish_run(outdir, _run_probability_sweep(cfg))
    return run_config(cfg, outdir)


# ---------------------------------------------------------------------------
# entry point

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nhchain",
                                     description="dissipative-chain two-level simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in ("run", "preset"):
        p = sub.add_parser(command)
        if command == "preset":
            p.add_argument("name", choices=PRESETS)
        else:
            p.add_argument("config", type=Path)
        p.add_argument("--out", type=Path, default=None)
        p.add_argument("--seed", type=int, default=None)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error; 2 is kept for numeric failures
        return 1 if exc.code else 0
    try:
        if args.command == "preset":
            outdir = args.out or Path("runs") / args.name
            paths = run_preset(args.name, outdir, seed=args.seed)
        else:
            raw = _load_object(args.config.read_text(encoding="utf-8"))
            if args.seed is not None:
                raw["seed"] = args.seed
            cfg = _resolve(raw)
            outdir = args.out or Path("runs") / cfg.experiment
            paths = run_config(cfg, outdir)
        for path in paths:
            print(path)
        return 0
    except (ModelError, OSError, UnicodeDecodeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
