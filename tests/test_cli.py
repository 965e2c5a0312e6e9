import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nhchain import cli, dynamics, svgplot
from nhchain.dynamics import (
    DEFAULT_SEED,
    STATE_KINDS,
    ObservableSeries,
    eigen_propagate,
    make_initial_state,
    propagate,
    stepping_method,
)
from nhchain.model import ModelError, NumericError, SiteState, build_hamiltonian
from nhchain.quench import PulseSchedule, quenched_hamiltonian
from nhchain.spectral import numeric_spectrum
from nhchain.cli import (
    PRESET_CONFIGS,
    main,
    parse_config,
    run_preset,
)
from nhchain.svgplot import render_line_plot


# ---------------------------------------------------------------------------
# config parsing

def test_minimal_config_gets_defaults():
    cfg = parse_config('{"experiment": "spectrum"}')
    assert cfg.J == 1.0
    assert cfg.V == 2e-4
    assert cfg.M == 100
    assert cfg.count == 12
    assert cfg.seed == DEFAULT_SEED
    assert cfg.t_end == 0.0
    assert cfg.dt > 0.0
    # convergence never reads count; its default must not reject a small chain
    assert parse_config('{"experiment": "convergence", "M": 5}').count == 11
    assert parse_config('{"experiment": "spectrum", "M": 1}').count == 3
    assert parse_config('{"experiment": "spectrum", "M": 6}').count == 12


def test_readme_lists_every_config_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    listing = readme.split("Config keys (all optional except `experiment`):", 1)[1].split(";", 1)[0]
    listed = re.findall(r"`([^`]+)`", re.sub(r"\([^)]*\)", "", listing))  # not `g|e`
    keys = [field.name for field in dataclasses.fields(cli.ExperimentConfig)]
    assert listed == [key for key in keys if key != "experiment"]


def test_explicit_values_survive_round_trip():
    cfg = parse_config(
        '{"experiment": "switch", "J": 2.0, "V": 0.01, "M": 40,'
        ' "delta": 0.05, "t_relax": 10.0, "initial_level": "e"}'
    )
    assert (cfg.J, cfg.V, cfg.M) == (2.0, 0.01, 40)
    assert cfg.delta == 0.05
    assert cfg.initial_level == "e"
    restored = json.loads(cfg.to_json())
    assert restored["J"] == 2.0
    assert restored["initial_level"] == "e"


@pytest.mark.parametrize(
    "text,fragment",
    [
        ('{"experiment": "spectrum", "V": 0}', "'V'"),
        ('{"experiment": "spectrum", "V": -1.0}', "'V'"),
        ('{"experiment": "spectrum", "J": "one"}', "'J'"),
        ('{"experiment": "spectrum", "M": 0}', "'M'"),
        ('{"experiment": "spectrum", "M": 2.5}', "'M'"),
        ('{"experiment": "spectrum", "count": 300}', "'count'"),
        pytest.param('{"experiment": "spectrum", "J": 1%s}' % ("0" * 400), "'J'", id="J-1e400"),
        pytest.param('{"experiment": "spectrum", "M": 1%s}' % ("0" * 400), "'M'", id="M-1e400"),
        ('{"experiment": "spectrum", "Vv": 1}', "'Vv'"),
        ('{"experiment": "orbit"}', "'experiment'"),
        ('{"experiment": "convergence", "initial_kind": "blob"}', "'initial_kind'"),
        ('{"experiment": "switch", "initial_level": "x"}', "'initial_level'"),
        ("[1, 2]", "object"),
        ('{"experiment": "spectrum",', "malformed"),
    ],
)
def test_bad_configs_name_the_offending_key(text, fragment):
    with pytest.raises(ModelError, match=fragment):
        parse_config(text)


KEYS = ("experiment", "J", "V", "M", "count", "t_end", "dt", "record_stride",
        "seed", "initial_center", "initial_width", "delta", "t_relax", "initial_level")
json_values = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=8)
    | st.integers() | st.integers(-10**500, 10**500)
    | st.sampled_from(("spectrum", "convergence", "probability", "switch", "g", "e", "point")),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(raw=st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), json_values, max_size=6),
       experiment=st.sampled_from(("spectrum", "convergence", "probability", "switch", None)))
@example(raw={"J": 10**400}, experiment="spectrum")
@example(raw={"M": 10**400}, experiment="spectrum")
@example(raw={"t_end": 1e308, "dt": 1e-300}, experiment="probability")
@example(raw={"delta": 1e308, "t_relax": 1e308}, experiment="switch")
def test_parse_config_raises_only_config_error(raw, experiment):
    if experiment is not None:
        raw = {**raw, "experiment": experiment}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            parse_config(json.dumps(raw))
        except ModelError:
            pass


# ---------------------------------------------------------------------------
# SVG emission

def _toy_curves(n=5):
    xs = [float(k) for k in range(n)]
    return [("F_g", xs, [1.0] * n)]


def test_render_line_plot_structure():
    svg = render_line_plot(_toy_curves(), "time (1/J)", "fidelity", "demo")
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert "demo" in svg
    assert "F_g" in svg


def test_render_line_plot_deterministic():
    assert render_line_plot(_toy_curves(), "t", "F") == render_line_plot(_toy_curves(), "t", "F")


def test_render_line_plot_single_point_uses_marker():
    assert "<circle" in render_line_plot(_toy_curves(n=1), "t", "F")


def test_render_line_plot_reads_arrays_as_it_reads_lists():
    curves = [("a", [0.0, 0.5, 2.0], [1.0, -3.0, 0.25]), ("marker", [1], [7]),
              ("b", [-1.5, 4], [0, 2.5])]

    def frozen(values):
        array = np.array(values, dtype=float)
        array.flags.writeable = False
        return array

    arrays = [(label, frozen(xs), frozen(ys)) for label, xs, ys in curves]
    svg = render_line_plot(curves, "t", "F", "demo")
    assert "<circle" in svg and render_line_plot(arrays, "t", "F", "demo") == svg


def _quarter_range(values, pad):
    """render_line_plot's axis bounds of ``values``, in quarters: widened if flat, then padded."""
    lo, hi = min(map(float, values)) / 4, max(map(float, values)) / 4
    if hi == lo:
        lo, hi = lo - max(0.125, math.ulp(lo)), hi + max(0.125, math.ulp(hi))
    margin = pad * (hi - lo)
    return lo - margin, hi + margin


_PLOT_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.2e-310, 1e308, -1e308]),
    st.integers(-(2**53), 2**53),
    st.floats(allow_nan=False, allow_infinity=False),
)
_MAX = 1.7976931348623157e308


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_PLOT_VALUES, _PLOT_VALUES), min_size=2, max_size=30))
@example([(1e20, 0.0), (1e20, 1.0)])  # flat x where x +- 0.5 rounds back to x
@example([(0.0, -1e20), (1.0, -1e20)])  # the same for y
@example([(1e308, 0.0), (-1e308, 1.0)])  # an x span that overflows
@example([(-_MAX, _MAX), (_MAX, -_MAX)])  # both spans overflow, and the padded y bounds
@example([(-_MAX, -_MAX), (-_MAX, -_MAX)])  # flat at the end of the range
def test_polyline_points_match_per_point_formatting(points):
    xs, ys = [x for x, _ in points], [y for _, y in points]
    x_lo, x_hi = _quarter_range(xs, 0.0)
    y_lo, y_hi = _quarter_range(ys, 0.04)
    plot_w = svgplot.WIDTH - svgplot.MARGIN_L - svgplot.MARGIN_R
    plot_h = svgplot.HEIGHT - svgplot.MARGIN_T - svgplot.MARGIN_B
    expected = " ".join(
        f"{svgplot.MARGIN_L + (float(x) / 4 - x_lo) / (x_hi - x_lo) * plot_w:.2f},"
        f"{svgplot.MARGIN_T + (y_hi - float(y) / 4) / (y_hi - y_lo) * plot_h:.2f}"
        for x, y in points
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow or invalid value on the way
        svg = render_line_plot([("c", xs, ys)], "x", "y")
    assert f'<polyline points="{expected}" ' in svg
    assert "nan" not in svg and "inf" not in svg


def test_render_line_plot_returns_on_unresolvable_ranges():
    # A span near the rounding of its bounds gets its ticks on the float
    # grid (spacing 2 at 1e16); one whose span/count underflows and one that
    # overflows get one tick, at the low end.
    for xs, ticks in (([1e16, 1e16 + 4], [1e16, 1e16, 1e16 + 2, 1e16 + 4, 1e16 + 4]),
                      ([0.0, 5e-324], [0.0]), ([-1e308, 1e308], [-1e308])):
        done = []
        worker = threading.Thread(
            target=lambda: done.append(render_line_plot([("c", xs, [0.0, 1.0])], "x", "y")),
            daemon=True,
        )
        worker.start()
        worker.join(timeout=1.0)
        assert done, f"render_line_plot did not return on x in {xs}"
        assert "nan" not in done[0]
        assert svgplot._ticks(*xs) == ticks
    assert svgplot._ticks(-math.inf, 1.0) == []  # a padded bound that overflowed: no tick


@settings(max_examples=100, deadline=None)
@given(_PLOT_VALUES, _PLOT_VALUES)
def test_ticks_are_few_sorted_and_within_the_range(a, b):
    lo, hi = min(a, b), max(a, b)
    ticks = svgplot._ticks(lo, hi)
    assert 1 <= len(ticks) <= 7 and ticks == sorted(ticks)
    if len(ticks) > 1:
        slack = 1e-9 * (hi - lo)
        assert lo - slack <= ticks[0] and ticks[-1] <= hi + slack


def test_ticks_are_integer_multiples_of_the_step():
    assert svgplot._ticks(0.0, 1.0) == [0.0, 0.2, 0.4, 3 * 0.2, 0.8, 1.0]
    assert svgplot._ticks(-0.3, 0.7) == [-0.2, 0.0, 0.2, 0.4, 3 * 0.2]
    assert svgplot._ticks(2.0, 2.0) == [2.0]
    assert svgplot._ticks(3.0, 1.0) == [3.0]


def test_render_line_plot_rejects_empty():
    with pytest.raises(ModelError):
        render_line_plot([], "t", "F")
    with pytest.raises(ModelError):
        render_line_plot(_toy_curves(n=0), "t", "F")


# ---------------------------------------------------------------------------
# presets and entry point

def _read(path):
    return path.read_text()


def test_spectrum_preset_outputs(tmp_path):
    outdir = tmp_path / "fig2"
    paths = run_preset("fig2", outdir)
    names = sorted(p.name for p in paths)
    assert names == ["config.json", "ladder.svg", "manifest.json", "spectrum.csv"]

    manifest = json.loads(_read(outdir / "manifest.json"))
    entries = {e["name"]: e for e in manifest["outputs"]}
    assert set(entries) == {"config.json", "ladder.svg", "spectrum.csv"}
    for name, entry in entries.items():
        payload = (outdir / name).read_bytes()
        assert hashlib.sha256(payload).hexdigest() == entry["sha256"]
        assert len(payload) == entry["bytes"]

    lines = _read(outdir / "spectrum.csv").strip().split("\n")
    assert lines[0] == "m,branch,re_energy,im_energy,residual"
    assert len(lines) == 13
    cfg = json.loads(_read(outdir / "config.json"))
    assert cfg["experiment"] == "spectrum"


def test_spectrum_preset_is_reproducible(tmp_path):
    run_preset("fig2", tmp_path / "a")
    run_preset("fig2", tmp_path / "b")
    for name in ("spectrum.csv", "ladder.svg", "config.json", "manifest.json"):
        assert _read(tmp_path / "a" / name) == _read(tmp_path / "b" / name)


def test_switch_preset_short_run(tmp_path):
    raw = dict(PRESET_CONFIGS["fig5"], t_relax=50.0)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(raw))
    outdir = tmp_path / "out"
    assert main(["run", str(config), "--out", str(outdir)]) == 0
    assert (outdir / "switch.csv").exists()
    sidecar = json.loads(_read(outdir / "switch_plan.json"))
    assert sidecar["mu"] == pytest.approx(math.pi / 0.02)
    assert sidecar["hardness_ratio"] > 10.0
    # mu / ||H||_inf of fig5's chain (3.9502), not of the parameter radius max(2J, V M^2) = 2
    h = build_hamiltonian(parse_config(json.dumps(raw)).chain_params())
    assert sidecar["hardness_ratio"] == PulseSchedule(delta=0.02).mu / h.norm == 39.76498219824051
    header = _read(outdir / "switch.csv").split("\n", 1)[0]
    assert header == "time,norm2,P,F_g,F_e"


def test_probability_sweep_layout(tmp_path):
    outdir = tmp_path / "fig4"
    raw = dict(PRESET_CONFIGS["fig4"], t_end=20.0)
    from nhchain.cli import _resolve, _run_probability_sweep

    paths = _run_probability_sweep(_resolve(raw), outdir)  # no chain of the sweep warns
    names = sorted(p.name for p in paths)
    assert names == [
        "config.json",
        "manifest.json",
        "probability.svg",
        "probability_ratio_0.01.csv",
        "probability_ratio_0.1.csv",
        "probability_ratio_0.4.csv",
    ]
    svg = _read(outdir / "probability.svg")
    for label in ("omega/J = 0.01", "omega/J = 0.1", "omega/J = 0.4"):
        assert label in svg


def test_probability_run_through_main(tmp_path):
    raw = {"experiment": "probability", "M": 20, "t_end": 5.0, "record_stride": 1}
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(raw))
    with pytest.warns(UserWarning, match="envelope tail"):  # tail 0.135 at M = 20
        assert main(["run", str(config), "--out", str(tmp_path / "a")]) == 0
        assert main(["run", str(config), "--out", str(tmp_path / "b")]) == 0
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == ["config.json", "manifest.json", "probability.csv", "probability.svg"]
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    header, *rows = _read(tmp_path / "a" / "probability.csv").strip().split("\n")
    assert header == "time,norm2,P"
    assert len(rows) == 251  # t = 0 and every one of the 250 steps of dt = 0.02
    for row in rows:
        _, norm2, prob = map(float, row.split(","))
        assert prob == norm2 * norm2


def _pair_state(raw):
    """The chain of a probability config and its start state (g + e) / ||g + e||."""
    cfg = parse_config(json.dumps(raw))
    h = build_hamiltonian(cfg.chain_params())
    ground, excited = numeric_spectrum(h, 2).stable_pair()
    amps = (ground.right_vector.amplitudes + excited.right_vector.amplitudes) / math.sqrt(2.0)
    return cfg, h, SiteState(amps, cfg.M).normalized()


def test_probability_run_at_a_step_past_the_rk4_limit_follows_the_mode_expansion(tmp_path):
    # dt = 1.125 lies below 2.5 / max(2|H_l,l+1|, max|H_ll|) = 1.25 but above
    # 2.5 / ||H||_inf = 0.633; stepped with RK4 it ended at P = 2.7e-74.  The
    # run's P is the closed form; propagate steps the same state at that dt.
    raw = {"experiment": "probability", "M": 100, "t_end": 90.0, "dt": 1.125}
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(raw))
    assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 0
    last = _read(tmp_path / "out" / "probability.csv").strip().split("\n")[-1]
    time, _, prob = map(float, last.split(","))

    cfg, h, state = _pair_state(raw)
    [stepped] = propagate(h, [state], (0.0, cfg.t_end), cfg.integrator())
    oracle = eigen_propagate(numeric_spectrum(h, h.dimension), h, state, time)
    assert time == 90.0
    assert prob == pytest.approx(oracle.norm2() ** 2, rel=1e-9)  # e^(4 Im E t) = 1.0045
    assert stepped.norm2() ** 2 == pytest.approx(oracle.norm2() ** 2, rel=1e-9)


def test_stiff_chain_steps_beyond_the_rk4_limit_with_expm(tmp_path):
    # dt = 0.02 exceeds this chain's RK4 stability limit 0.00866, so
    # propagate steps it with the exact route, which has no such limit.  The
    # probability run records the same 2001 times without stepping.
    raw = {"experiment": "probability", "V": 0.32, "M": 30, "dt": 0.02, "t_end": 200.0}
    cfg, h, state = _pair_state(raw)
    assert stepping_method(h, cfg.dt, cfg.record_stride) == "exact"
    series = ObservableSeries()
    propagate(h, [state], (0.0, cfg.t_end), cfg.integrator(), series=[series])
    config = tmp_path / "stiff.json"
    config.write_text(json.dumps(raw))
    assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 0
    header, *rows = _read(tmp_path / "out" / "probability.csv").strip().split("\n")
    assert header == "time,norm2,P" and len(rows) == len(series) == 2001
    assert [float(row.split(",")[0]) for row in rows] == series["time"].tolist()


def test_probability_series_steps_nothing(tmp_path, monkeypatch):
    calls = []
    stepped = dynamics.propagate

    def counted(*args, **kwargs):
        calls.append(args[2])
        return stepped(*args, **kwargs)

    monkeypatch.setattr(dynamics, "propagate", counted)
    probability = parse_config('{"experiment": "probability", "M": 30, "V": 0.32, "t_end": 50.0}')
    series = cli._probability_series(probability, build_hamiltonian(probability.chain_params()))
    assert calls == [] and series["time"][-1] == 50.0 and not hasattr(cli, "propagate")
    # the wrapper sees a run that steps: a convergence run is one block
    convergence = parse_config('{"experiment": "convergence", "M": 30, "V": 0.32, "t_end": 5.0}')
    cli.run_config(convergence, tmp_path / "c")
    assert calls == [(0.0, 5.0)]


def test_wide_switch_steps_its_pulse_exactly(tmp_path):
    # At M = 400 the relaxation (stride 1) steps with RK4, but the pulse's
    # field mu * l puts its step of 5e-5 past the pulsed chain's RK4 limit
    # 3.98e-5.  The pulse is routed on its own Hamiltonian, so it steps
    # exactly and the run succeeds.
    raw = {"experiment": "switch", "M": 400, "record_stride": 1, "t_relax": 1.0}
    cfg = parse_config(json.dumps(raw))
    h = build_hamiltonian(cfg.chain_params())
    sched = PulseSchedule(delta=cfg.delta)
    assert stepping_method(h, cfg.dt, 1) == "rk4"
    assert stepping_method(quenched_hamiltonian(h, sched), sched.dt, 1) == "exact"
    config = tmp_path / "switch.json"
    config.write_text(json.dumps(raw))
    with pytest.warns(UserWarning, match="hardness"):  # 4.64 at M = 400
        assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 0
    header, *rows = _read(tmp_path / "out" / "switch.csv").strip().split("\n")
    assert header == "time,norm2,P,F_g,F_e"
    assert len(rows) == 400 + 1 + round(cfg.t_relax / cfg.dt)  # the seam sample once


def test_main_exit_codes(tmp_path, capsys, monkeypatch):
    bad = tmp_path / "bad.json"
    bad.write_text('{"experiment": "spectrum", "V": -2}')
    assert main(["run", str(bad), "--out", str(tmp_path / "x")]) == 1
    assert "'V'" in capsys.readouterr().err

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["run", str(broken), "--out", str(tmp_path / "y")]) == 1

    # dt = 0.6 is within this chain's RK4 limit 0.633, but a span of 0.87 is
    # one step of 0.87, past the limit, so a convergence run steps it exactly,
    # as it does a dt past the limit.  A probability run steps nothing.
    unstable = tmp_path / "unstable.json"
    beyond = tmp_path / "beyond.json"
    for experiment in ("probability", "convergence"):
        unstable.write_text('{"experiment": "%s", "t_end": 0.87, "dt": 0.6}' % experiment)
        assert main(["run", str(unstable), "--out", str(tmp_path / "z" / experiment)]) == 0
        beyond.write_text('{"experiment": "%s", "t_end": 1.0, "dt": 10.0}' % experiment)
        assert main(["run", str(beyond), "--out", str(tmp_path / "v" / experiment)]) == 0

    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"experiment": "spectr\xe9"}')
    taken = tmp_path / "taken"
    taken.write_text("")
    huge = "1" + "0" * 400  # beyond the float range
    huge_j = tmp_path / "huge_j.json"
    huge_j.write_text('{"experiment": "spectrum", "J": %s}' % huge)
    huge_m = tmp_path / "huge_m.json"
    huge_m.write_text('{"experiment": "spectrum", "M": %s}' % huge)
    too_long = tmp_path / "too_long.json"
    too_long.write_text('{"experiment": "spectrum", "seed": 1%s}' % ("0" * 5000))
    full_wide = tmp_path / "full_wide.json"  # all 10001 modes: refused before allocating
    full_wide.write_text('{"experiment": "spectrum", "M": 5000, "count": 10001}')
    # mu = pi / delta overflows; width**2 underflows; a stride must be an integer
    tiny_pulse = tmp_path / "tiny_pulse.json"
    tiny_pulse.write_text('{"experiment": "switch", "delta": 1e-320, "t_relax": 1.0}')
    tiny_width = tmp_path / "tiny_width.json"
    tiny_width.write_text('{"experiment": "convergence", "initial_width": 1e-320}')
    half_stride = tmp_path / "half_stride.json"
    half_stride.write_text('{"experiment": "probability", "record_stride": 2.5}')
    huge_width = tmp_path / "huge_width.json"  # width**2 overflows
    huge_width.write_text('{"experiment": "convergence", "M": 5, "t_end": 1.0, '
                          '"initial_width": 1e155}')
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the tail warning of huge_width's M = 5 chain
        for argv in (["run", str(tmp_path / "missing.json")],  # no such file
                     ["run", str(tmp_path)],  # a directory
                     ["run", str(latin1)],  # not UTF-8
                     ["preset", "fig2", "--out", str(taken)],  # --out is a file
                     ["run", str(huge_j)],
                     ["run", str(huge_m)],
                     ["run", str(too_long)],  # beyond Python's integer digit limit
                     ["run", str(tiny_pulse), "--out", str(tmp_path / "p")],
                     ["run", str(tiny_width), "--out", str(tmp_path / "c")],
                     ["run", str(half_stride), "--out", str(tmp_path / "h")],
                     ["run", str(huge_width), "--out", str(tmp_path / "g")],
                     ["run", str(full_wide), "--out", str(tmp_path / "w")]):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
    assert "N = 10001" in err and not (tmp_path / "w").exists()
    with pytest.raises(ModelError, match="fig9"):
        run_preset("fig9", tmp_path / "fig9")
    assert not (tmp_path / "fig9").exists()

    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.49 GiB for an array")

    monkeypatch.setattr(cli, "run_config", out_of_memory)
    assert main(["run", str(unstable)]) == 1
    assert capsys.readouterr().err == "error: Unable to allocate 1.49 GiB for an array\n"


def test_main_reports_an_overflowing_omega_by_its_keys(tmp_path, capsys):
    # J and V are each finite, but omega = sqrt(J V / 2) is not
    config = tmp_path / "cfg.json"
    config.write_text('{"experiment": "spectrum", "J": 1e200, "V": 1e200, "M": 1}')
    with pytest.raises(ModelError, match="'J', 'V'"):
        parse_config(config.read_text())
    assert main(["run", str(config), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config keys 'J', 'V'") and err.count("\n") == 1
    assert "J * V" in err and "'dt'" not in err


def test_a_span_past_2_53_taylor_substeps_is_an_input_error(tmp_path, capsys):
    # The pulse lasts 1e300: every Taylor degree would need more than 2**53
    # substeps.  Its hardness ratio, 8e-301, warns first.
    config = tmp_path / "cfg.json"
    config.write_text('{"experiment": "switch", "delta": 1e300}')
    capsys.readouterr()
    with pytest.warns(UserWarning, match="hardness"):
        assert main(["run", str(config), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        "error: a span of 1e+300 needs more than 2**53 Taylor substeps\n"
    )
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("config", [
    '{"experiment": "probability", "J": 1e300, "V": 1e-300, "t_end": 1}',
    '{"experiment": "switch", "J": 1e200, "V": 1e-200, "t_relax": 1}',
    '{"experiment": "convergence", "J": 1e200, "V": 1e-200, "t_end": 1}',
    '{"experiment": "spectrum", "J": 1e200, "V": 1e-200, "M": 3000, "count": 12}',
])
def test_a_band_edge_search_with_no_usable_mode_is_a_numeric_failure(tmp_path, capsys, config):
    # At these scales every refining LU solve returns an exact zero vector;
    # normalizing it gave nan modes, and an empty selection a ValueError.
    (tmp_path / "cfg.json").write_text(config)
    capsys.readouterr()
    with pytest.warns(UserWarning, match="envelope tail|pulse hardness"):  # the switch warns twice
        assert main(["run", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: shift-invert search at ") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("config, tail, named", [
    ('{"experiment": "probability", "J": 1e100, "V": 1e100, "t_end": 1}', False,
     "dt = 4.9996464716076396e-105 is too small for the span (0.0, 1.0)"),
    ('{"experiment": "convergence", "M": 10, "t_end": 1, "dt": 1e-300}', True, "dt = 1e-300"),
    ('{"experiment": "convergence", "M": 2, "t_end": 10, "initial_width": 1e-200}', True,
     "width must be > 0 with a finite square, got 1e-200"),
])
def test_inputs_below_the_float_spacing_are_named(tmp_path, capsys, config, tail, named):
    # The first two record times t = k dt whose last ones round to the same
    # float; the third has a width whose square underflows to 0.
    (tmp_path / "cfg.json").write_text(config)
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "o")]) == 1
    assert [str(w.message)[:13] for w in caught] == ["envelope tail"] * tail
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("config", [
    '{"experiment": "switch", "M": 10, "t_relax": 1e18}',
    '{"experiment": "convergence", "M": 10, "t_end": 1e12, "record_stride": 1}',
    '{"experiment": "probability", "M": 10, "t_end": 1e12, "record_stride": 1}',
])
def test_work_beyond_the_bound_is_refused_before_it_starts(tmp_path, capsys, config):
    # 2e17 products of the switch's relaxation; 5e13 recorded times of the others
    (tmp_path / "cfg.json").write_text(config)
    capsys.readouterr()
    with pytest.warns(UserWarning, match="envelope tail"):
        assert main(["run", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the span needs ") and err.count("\n") == 1
    assert err.endswith(f"above MAX_WORK = {dynamics.MAX_WORK:,}\n")
    assert not (tmp_path / "o").exists()


def test_every_preset_plans_work_within_the_bound(tmp_path, monkeypatch):
    planned = []
    check_work = dynamics._check_work

    def spy(count, what):
        planned.append((what, count))
        check_work(count, what)

    monkeypatch.setattr(dynamics, "_check_work", spy)
    for name in cli.PRESETS:
        run_preset(name, tmp_path / name)
    assert {what for what, _ in planned} == {"recorded times", "operator products"}
    # measured at most 2,025 recorded times (fig4) and 2,000 products (fig3, fig5)
    assert max(count for _, count in planned) <= dynamics.MAX_WORK // 100


def test_record_stride_beyond_the_float_range_records_the_ends(tmp_path):
    # The route is chosen on the sample actually taken, all 50 steps, not on
    # 10**400 steps, whose length in time does not fit a float.  The
    # convergence run steps; the probability run records the same two times.
    config = tmp_path / "cfg.json"
    for experiment, csv in (("convergence", "fidelity_point.csv"),
                            ("probability", "probability.csv")):
        config.write_text('{"experiment": "%s", "M": 5, "t_end": 1.0, '
                          '"record_stride": 1%s}' % (experiment, "0" * 400))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the tail warning of the M = 5 chain
            assert main(["run", str(config), "--out", str(tmp_path / experiment)]) == 0
        _, *rows = _read(tmp_path / experiment / csv).strip().split("\n")
        assert [float(row.split(",")[0]) for row in rows] == [0.0, 1.0]


def test_main_reports_an_omega_that_underflows_to_zero_by_its_keys(tmp_path, capsys):
    # J * V = 5e-324 is positive, but J * V / 2 rounds to 0, and so does omega
    config = tmp_path / "cfg.json"
    config.write_text('{"experiment": "probability", "t_end": 1.0, "V": 5e-324}')
    assert main(["run", str(config), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config keys 'J', 'V'") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_main_exit_code_2_on_numeric_failures(tmp_path, capsys, monkeypatch):
    # The slowest mode of this 7-site chain has Im E = +1.74, so the state
    # grows like exp(1.74 t) and overflows long before t = 2000: stepped, in
    # its amplitudes; in closed form, in its norm.
    config = tmp_path / "overflow.json"
    capsys.readouterr()
    for experiment, failure in (("convergence", "non-finite amplitudes at t = "),
                                ("probability", "non-finite norm at t=")):
        config.write_text('{"experiment": "%s", "V": 8, "M": 3, "t_end": 2000, '
                          '"record_stride": 100000}' % experiment)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the tail warning of the M = 3 chain
            assert main(["run", str(config), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: " + failure) and err.count("\n") == 1
    # Here norm2 stays finite (3.2e199 at t = 132) but P = norm2^2 overflows
    # from t = 102: the run fails there, warns only of the tail and writes nothing.
    config.write_text('{"experiment": "probability", "V": 8, "M": 3, "t_end": 132}')
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", str(config), "--out", str(tmp_path / "p")]) == 2
    assert [str(w.message)[:13] for w in caught] == ["envelope tail"]
    assert capsys.readouterr().err == "numeric failure: non-finite norm at t=102.04054054054055\n"
    assert not (tmp_path / "p").exists()

    def not_converged(*args, **kwargs):
        raise NumericError("worst eigenpair residual 1.000e-03 exceeds tolerance")

    monkeypatch.setattr(cli, "numeric_spectrum", not_converged)
    assert main(["preset", "fig2", "--out", str(tmp_path / "fig2")]) == 2
    assert capsys.readouterr().err == (
        "numeric failure: worst eigenpair residual 1.000e-03 exceeds tolerance\n"
    )


def test_fig4_preset_passes_its_seed_to_every_sweep_entry(tmp_path):
    paths = run_preset("fig4", tmp_path / "fig4", seed=7)
    names = sorted(p.name for p in paths if p.name.startswith("probability_ratio_"))
    assert names == [f"probability_ratio_{ratio:g}.csv" for ratio, _, _ in cli.PROBABILITY_SWEEP]
    resolved = json.loads(_read(tmp_path / "fig4" / "config.json"))
    assert resolved["base"]["seed"] == 7
    assert [entry["seed"] for entry in resolved["sweep"]] == [7, 7, 7]


def test_cli_run_warns_once_at_the_callers_line(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text('{"experiment": "switch", "M": 20, "t_relax": 1.0}')  # tail 0.135
    path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run(
        [sys.executable, "-m", "nhchain.cli", "run", str(config), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    tail = [line for line in done.stderr.splitlines() if "envelope tail" in line]
    assert len(tail) == 1
    assert tail[0].startswith(cli.__file__ + ":")  # run_config builds the chain


def test_convergence_builds_each_initial_state_once(tmp_path, monkeypatch):
    built = []

    def counting(kind, *args, **kwargs):
        built.append(kind)
        return make_initial_state(kind, *args, **kwargs)

    monkeypatch.setattr(cli, "make_initial_state", counting)
    monkeypatch.setattr(dynamics, "make_initial_state", counting)
    cfg = parse_config('{"experiment": "convergence", "t_end": 1.0, "record_stride": 100}')
    cli.run_config(cfg, tmp_path / "run")
    assert built == list(STATE_KINDS)


def test_seed_override_changes_random_profile(tmp_path):
    raw = {"experiment": "convergence", "t_end": 1.0, "record_stride": 100}
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(raw))
    assert main(["run", str(config), "--out", str(tmp_path / "a"), "--seed", "7"]) == 0
    assert main(["run", str(config), "--out", str(tmp_path / "b"), "--seed", "8"]) == 0
    assert main(["run", str(config), "--out", str(tmp_path / "c"), "--seed", "7"]) == 0
    a = _read(tmp_path / "a" / "profile_random.csv")
    assert a != _read(tmp_path / "b" / "profile_random.csv")
    assert a == _read(tmp_path / "c" / "profile_random.csv")
    # deterministic profiles are seed-independent
    assert _read(tmp_path / "a" / "profile_point.csv") == _read(tmp_path / "b" / "profile_point.csv")


@pytest.mark.parametrize("argv, code", [
    (["bogus"], 1),
    (["run"], 1),  # no config path
    (["preset", "fig9"], 1),
    (["run", "x.json", "--seed", "abc"], 1),
    (["spectrum", "x.json"], 1),  # no such subcommand: run takes a spectrum config
    (["--help"], 0),
    (["run", "--help"], 0),
], ids=lambda value: " ".join(value) if isinstance(value, list) else None)
def test_usage_errors_exit_1_and_help_exits_0(argv, code, capsys):
    # argparse exits 2 on a usage error, and 2 is kept for numeric failures
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert "usage: nhchain" in (err if code else out)
