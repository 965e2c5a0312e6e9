import hashlib
import json
import math
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

from nhchain import cli
from nhchain.dynamics import DEFAULT_SEED
from nhchain.model import ModelError
from nhchain.cli import (
    ConfigError,
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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # envelope tail of the short chains
        assert parse_config('{"experiment": "convergence", "M": 5}').count == 11
        assert parse_config('{"experiment": "spectrum", "M": 1}').count == 3
        assert parse_config('{"experiment": "spectrum", "M": 6}').count == 12


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
    with pytest.raises(ConfigError, match=fragment):
        parse_config(text)


KEYS = ("experiment", "J", "V", "M", "tail_tol", "count", "t_end", "dt", "record_stride",
        "seed", "initial_kind", "initial_center", "initial_width", "delta", "t_relax",
        "initial_level")
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
        except ConfigError:
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
    header = _read(outdir / "switch.csv").split("\n", 1)[0]
    assert header == "time,norm2,P,F_g,F_e"


def test_probability_sweep_layout(tmp_path):
    outdir = tmp_path / "fig4"
    raw = dict(PRESET_CONFIGS["fig4"], t_end=20.0)
    from nhchain.cli import _resolve, _run_probability_sweep

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        paths = _run_probability_sweep(_resolve(raw), outdir)
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
    raw = {"experiment": "probability", "M": 20, "t_end": 5.0, "record_stride": 1,
           "tail_tol": 1.0}
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(raw))
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


def test_main_exit_codes(tmp_path, capsys, monkeypatch):
    bad = tmp_path / "bad.json"
    bad.write_text('{"experiment": "spectrum", "V": -2}')
    assert main(["run", str(bad), "--out", str(tmp_path / "x")]) == 1
    assert "'V'" in capsys.readouterr().err

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["run", str(broken), "--out", str(tmp_path / "y")]) == 1

    unstable = tmp_path / "unstable.json"
    unstable.write_text('{"experiment": "probability", "t_end": 1.0, "dt": 10.0}')
    assert main(["run", str(unstable), "--out", str(tmp_path / "z")]) == 2

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
    capsys.readouterr()
    for argv in (["run", str(tmp_path / "missing.json")],  # no such file
                 ["run", str(tmp_path)],  # a directory
                 ["run", str(latin1)],  # not UTF-8
                 ["preset", "fig2", "--out", str(taken)],  # --out is a file
                 ["run", str(huge_j)],
                 ["run", str(huge_m)],
                 ["run", str(too_long)],  # beyond Python's integer digit limit
                 ["run", str(full_wide), "--out", str(tmp_path / "w")]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
    assert "N = 10001" in err and not (tmp_path / "w").exists()
    with pytest.raises(ConfigError, match="fig9"):
        run_preset("fig9", tmp_path / "fig9")
    assert not (tmp_path / "fig9").exists()

    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.49 GiB for an array")

    monkeypatch.setattr(cli, "run_config", out_of_memory)
    assert main(["run", str(unstable)]) == 1
    assert capsys.readouterr().err == "error: Unable to allocate 1.49 GiB for an array\n"


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


def test_spectrum_subcommand_rejects_other_experiments(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text('{"experiment": "switch"}')
    assert main(["spectrum", str(config), "--out", str(tmp_path / "o")]) == 1
