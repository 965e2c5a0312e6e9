import dataclasses
import math
import warnings

import numpy as np
import pytest

from nhchain.model import (
    ChainParams,
    Hamiltonian,
    ModelError,
    anti_pt_residual,
    apply_parity,
    build_hamiltonian,
)
from nhchain.spectral import dirac_overlap, numeric_spectrum
from nhchain.dynamics import IntegratorConfig, default_dt, propagate
from nhchain.quench import PulseSchedule, quenched_hamiltonian, run_switch_experiment


# ---------------------------------------------------------------------------
# schedule and experiment inputs

# 1e-320 is positive and finite, but pi / 1e-320 overflows
@pytest.mark.parametrize("delta", [0.0, -0.1, math.inf, math.nan, 1e-320])
def test_schedule_rejects_bad_duration(delta):
    with pytest.raises(ModelError):
        PulseSchedule(delta=delta)


def test_pulse_amplitude_window(h_small_ratio):
    sched = PulseSchedule(delta=0.02)
    mu = math.pi / 0.02
    assert sched.mu == mu
    # inside the window each site l gains mu * l on the diagonal
    shift = quenched_hamiltonian(h_small_ratio, sched).diagonal - h_small_ratio.diagonal
    assert shift[101] == pytest.approx(mu, rel=1e-12)
    # the window (0, delta) is integrated in 400 steps
    assert sched.dt * 400 == pytest.approx(sched.delta, rel=1e-15)


def test_pulse_area_is_pi():
    # mu * delta == pi independent of the duration
    for delta in (0.005, 0.02, 0.3):
        sched = PulseSchedule(delta=delta)
        assert sched.mu * sched.delta == pytest.approx(math.pi, rel=1e-15)


def test_hardness_ratio(h_small_ratio):
    sched = PulseSchedule(delta=0.02)
    # ||H||_inf = 2J + |omega - V l^2| at l = 99 = 3.9502 for this chain
    assert sched.hardness_ratio(h_small_ratio) == pytest.approx(
        math.pi / 0.02 / 3.9502, rel=1e-12
    )


def test_plan_validation(params_small_ratio, h_small_ratio):
    sched = PulseSchedule(delta=0.02)
    config = IntegratorConfig(dt=default_dt(params_small_ratio))
    with pytest.raises(ModelError, match="t_relax"):
        run_switch_experiment(h_small_ratio, sched, -1.0, config)
    assert sched.dt == 0.02 / 400.0


# ---------------------------------------------------------------------------
# quenched Hamiltonian

def test_quenched_hamiltonian_linear_shift(h_small_ratio):
    sched = PulseSchedule(delta=0.02)
    hq = quenched_hamiltonian(h_small_ratio, sched)
    shift = hq.diagonal - h_small_ratio.diagonal
    mu = sched.mu
    assert shift[0] == pytest.approx(-100.0 * mu)
    assert shift[100] == 0.0
    assert shift[200] == pytest.approx(100.0 * mu)
    assert hq.off_diagonal == h_small_ratio.off_diagonal
    assert hq.params is None and h_small_ratio.params is not None


def test_quenched_hamiltonian_rejects_an_overflowing_field(h_small_ratio):
    # mu = pi / 2e-307 is finite, but mu * l overflows at the chain's edge
    with pytest.raises(ModelError, match="overflows"):
        quenched_hamiltonian(h_small_ratio, PulseSchedule(delta=2e-307))


def test_linear_field_breaks_antisymmetry(h_small_ratio):
    sched = PulseSchedule(delta=0.02)
    hq = quenched_hamiltonian(h_small_ratio, sched)
    assert anti_pt_residual(hq) == pytest.approx(2.0 * sched.mu * 100.0, rel=1e-12)


# ---------------------------------------------------------------------------
# impulse limit

def test_parity_maps_ground_to_conjugate_excited(stable_modes):
    ground, excited = stable_modes
    flipped = apply_parity(ground.right_vector)
    conj_excited = dataclasses.replace(
        excited.right_vector, amplitudes=np.conj(excited.right_vector.amplitudes)
    )
    overlap = abs(dirac_overlap(conj_excited, flipped))
    assert overlap > 1.0 - 1e-6


def test_bare_pulse_propagator_approximates_parity():
    # the pulse term alone, integrated over the window, is the parity gate
    p = ChainParams(J=1.0, V=2e-4, half_width=10)
    h = build_hamiltonian(p)
    sched = PulseSchedule(delta=0.02)
    bare = Hamiltonian(
        diagonal=(sched.mu * h.sites()).astype(complex),
        off_diagonal=0.0,
        half_width=10,
    )
    state = numeric_spectrum(h, 2).stable_pair()[0].right_vector
    [out] = propagate(bare, [state], (0.0, sched.delta), IntegratorConfig(dt=sched.delta / 8000.0))
    target = apply_parity(state)
    assert np.abs(out.amplitudes - target.amplitudes).max() < 1e-8
    assert abs(out.norm2() - 1.0) < 1e-10


# ---------------------------------------------------------------------------
# full switch experiment

@pytest.fixture(scope="module")
def short_plan(params_small_ratio, h_small_ratio):
    """Positional inputs of a 200/J switch: chain, pulse, relaxation, stepping."""
    return (h_small_ratio, PulseSchedule(delta=0.02), 200.0,
            IntegratorConfig(dt=default_dt(params_small_ratio)))


def test_switch_ground_to_excited(short_plan):
    series = run_switch_experiment(*short_plan, initial="g")
    assert series["F_g"][0] == pytest.approx(1.0, abs=1e-9)
    assert series["F_e"][-1] > 0.999
    assert series["time"][-1] == pytest.approx(200.02)


def test_switch_is_symmetric(short_plan):
    forward = run_switch_experiment(*short_plan, initial="g")
    backward = run_switch_experiment(*short_plan, initial="e")
    assert backward["F_g"][-1] == pytest.approx(
        forward["F_e"][-1], abs=1e-9
    )


def test_finite_pulse_matches_impulse(short_plan):
    finite = run_switch_experiment(*short_plan, initial="g")
    impulse = run_switch_experiment(*short_plan, initial="g", use_impulse=True)
    assert abs(finite["F_e"][-1] - impulse["F_e"][-1]) < 1e-6


def test_outcome_independent_of_duration(params_small_ratio, h_small_ratio):
    # the pulse area is fixed at pi, so halving the duration changes nothing
    config = IntegratorConfig(dt=default_dt(params_small_ratio))
    results = []
    for delta in (0.02, 0.01):
        series = run_switch_experiment(h_small_ratio, PulseSchedule(delta=delta), 200.0,
                                       config, initial="g")
        results.append(series["F_e"][-1])
    assert abs(results[0] - results[1]) < 1e-6


def test_soft_pulse_is_reported_not_warned(params_small_ratio, h_small_ratio):
    # mu / ||H||_inf = pi / 3.9502; the CLI warns of it
    sched = PulseSchedule(delta=1.0)
    assert sched.hardness_ratio(h_small_ratio) < 10
    config = IntegratorConfig(dt=default_dt(params_small_ratio))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        series = run_switch_experiment(h_small_ratio, sched, 0.0, config, initial="g")
    assert series["time"][-1] == 1.0


def test_bad_initial_label(short_plan):
    with pytest.raises(ModelError):
        run_switch_experiment(*short_plan, initial="x")
