import math
import warnings

import numpy as np
import pytest

from nhchain.cli import parse_config
from nhchain.model import ChainParams, ModelError, SiteState, build_hamiltonian
from nhchain.quench import PulseSchedule, quenched_hamiltonian
from nhchain.spectral import numeric_spectrum
from nhchain.dynamics import (
    EXPM_MAX_DIMENSION,
    UNDERFLOW_GUARD,
    IntegratorConfig,
    NumericError,
    ObservableSeries,
    default_dt,
    dirac_probability,
    eigen_propagate,
    expansion_coefficients,
    fidelity,
    make_initial_state,
    propagate,
    rk4_step_operator,
    run_convergence_experiment,
    stepping_method,
)


@pytest.fixture(scope="module")
def small_chain():
    """21-site chain used for integrator-oracle comparisons."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = ChainParams(J=1.0, V=2e-4, half_width=10)
    h = build_hamiltonian(p)
    return p, h, numeric_spectrum(h, h.dimension)


# ---------------------------------------------------------------------------
# initial states

def test_point_state(params_small_ratio):
    state = make_initial_state("point", params_small_ratio, center=0)
    expected = np.zeros(201, dtype=complex)
    expected[100] = 1.0
    assert np.array_equal(state.amplitudes, expected)


def test_tophat_state(params_small_ratio):
    state = make_initial_state("tophat", params_small_ratio, center=0, width=10.0)
    nonzero = state.amplitudes[state.amplitudes != 0]
    assert len(nonzero) == 21
    assert np.allclose(nonzero, 1.0 / math.sqrt(21.0), atol=1e-15)


def test_random_state_deterministic(params_small_ratio):
    a = make_initial_state("random", params_small_ratio, seed=99)
    b = make_initial_state("random", params_small_ratio, seed=99)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    c = make_initial_state("random", params_small_ratio, seed=100)
    assert not np.array_equal(a.amplitudes, c.amplitudes)


def test_initial_state_validation(params_small_ratio):
    p = params_small_ratio
    with pytest.raises(ModelError):
        make_initial_state("blob", p)
    with pytest.raises(ModelError):
        make_initial_state("point", p, center=101)
    with pytest.raises(ModelError):
        make_initial_state("gaussian", p, width=0.0)
    with pytest.raises(ModelError):
        make_initial_state("tophat", p, width=-1.0)
    with pytest.raises(ModelError):
        make_initial_state("random", p)  # seed required


def test_all_kinds_normalized(params_small_ratio):
    for kind in ("point", "gaussian", "tophat", "random"):
        state = make_initial_state(kind, params_small_ratio, seed=1)
        assert state.is_normalized()


# ---------------------------------------------------------------------------
# propagation

def test_zero_time_returns_input(small_chain, params_small_ratio):
    _, h, _ = small_chain
    state = make_initial_state("gaussian", ChainParams(J=1.0, V=2e-4, half_width=10, tail_tol=1.0), width=3.0)
    out = propagate(h, state, 0.0, IntegratorConfig(dt=0.01))
    assert out is state
    with pytest.raises(NumericError, match="precedes"):
        propagate(h, state, (1.0, 0.5), IntegratorConfig(dt=0.01))


def test_rk4_matches_eigen_expansion(small_chain):
    p, h, spec = small_chain
    state = make_initial_state("gaussian", p, width=3.0)
    out = propagate(h, state, 100.0, IntegratorConfig(dt=0.004))
    oracle = eigen_propagate(spec, h, state, 100.0)
    assert np.abs(out.amplitudes - oracle.amplitudes).max() <= 1e-8
    with pytest.raises(NumericError, match="needs all 21 modes"):
        eigen_propagate(numeric_spectrum(h, 2), h, state, 100.0)


def test_fourth_order_convergence(small_chain):
    p, h, spec = small_chain
    state = make_initial_state("gaussian", p, width=3.0)
    oracle = eigen_propagate(spec, h, state, 100.0)

    def error(dt):
        out = propagate(h, state, 100.0, IntegratorConfig(dt=dt))
        return np.abs(out.amplitudes - oracle.amplitudes).max()

    ratio = error(0.05) / error(0.025)
    assert 13.0 <= ratio <= 19.0


def test_eigenstate_propagation_is_exponential(h_small_ratio, stable_modes):
    ground, _ = stable_modes
    t = 20.0
    out = propagate(h_small_ratio, ground.right_vector, t, IntegratorConfig(dt=0.004))
    expected = np.exp(-1j * ground.energy * t) * ground.right_vector.amplitudes
    assert np.abs(out.amplitudes - expected).max() < 1e-8
    # norm drift is exactly the (tiny) imaginary-energy exponential
    assert abs(out.norm2() - math.exp(2.0 * ground.energy.imag * t)) < 1e-8


def test_excited_ladder_decay_rate(h_small_ratio, spectrum12, params_small_ratio):
    mode = next(m for m in spectrum12.modes if (m.m, m.branch) == (1, "+"))
    t = 1.0 / (2.0 * params_small_ratio.omega)
    out = propagate(h_small_ratio, mode.right_vector, t, IntegratorConfig(dt=0.02))
    assert out.norm2() == pytest.approx(math.exp(-2.0), rel=0.01)


def _four_stage_step(h, y, dt):
    k1 = -1j * h.matvec(y)
    k2 = -1j * h.matvec(y + 0.5 * dt * k1)
    k3 = -1j * h.matvec(y + 0.5 * dt * k2)
    k4 = -1j * h.matvec(y + dt * k3)
    return y + dt / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)


def test_rk4_step_operator_is_one_classical_step(h_small_ratio):
    # The pulsed diagonal mu*l has a real part; the pulse step is delta/400.
    sched = PulseSchedule(delta=0.02)
    pulsed = quenched_hamiltonian(h_small_ratio, sched)
    rng = np.random.default_rng(11)
    y = rng.normal(size=201) + 1j * rng.normal(size=201)
    for h, dt in ((h_small_ratio, 0.02), (pulsed, sched.dt)):
        operator = rk4_step_operator(h, dt)
        expected = _four_stage_step(h, y, dt)
        assert np.abs(operator @ y - expected).max() <= 1e-13 * np.abs(expected).max()
        rows, cols = operator.nonzero()
        assert np.abs(rows - cols).max() == 4  # 9 diagonals, none further out


def test_stability_violation_raises_before_integration(h_small_ratio, stable_modes):
    ground, _ = stable_modes
    for method in ("rk4", "expm"):
        with pytest.raises(NumericError, match="stability"):
            propagate(h_small_ratio, ground.right_vector, 1.0,
                      IntegratorConfig(dt=5.0, method=method))


def test_expm_matches_eigen_expansion(small_chain):
    p, h, spec = small_chain
    state = make_initial_state("gaussian", p, width=3.0)
    out = propagate(h, state, 100.0, IntegratorConfig(dt=0.004, method="expm", record_stride=1000))
    oracle = eigen_propagate(spec, h, state, 100.0)
    assert np.abs(out.amplitudes - oracle.amplitudes).max() <= 1e-10


def test_expm_records_on_the_rk4_mesh(small_chain):
    p, h, _ = small_chain
    state = make_initial_state("gaussian", p, width=3.0)
    runs = {}
    for method in ("rk4", "expm"):
        # 1000 steps at stride 7: the last chunk is a 6-step remainder
        series = ObservableSeries()
        propagate(h, state, 10.0, IntegratorConfig(dt=0.01, method=method, record_stride=7),
                  series=series)
        runs[method] = series
    assert runs["expm"].times == runs["rk4"].times
    assert len(runs["expm"]) == len(runs["rk4"]) == 1000 // 7 + 2
    assert np.allclose(runs["expm"].norm2, runs["rk4"].norm2, rtol=1e-8, atol=0.0)


def _stiff_edge_state(half_width):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = ChainParams(J=1.0, V=0.32, half_width=half_width, tail_tol=1.0)
    return p, build_hamiltonian(p), make_initial_state("point", p, center=half_width)


def test_expm_keeps_the_small_entries_of_the_propagator():
    # A state decaying from the stiff edge lives in entries of U far below
    # max|U|; dropping them changes this norm by ten orders of magnitude.
    p, h, state = _stiff_edge_state(30)
    rk4 = propagate(h, state, 20.0, IntegratorConfig(dt=default_dt(p)))
    exact = propagate(h, state, 20.0,
                      IntegratorConfig(dt=default_dt(p), method="expm", record_stride=50))
    assert rk4.norm2() < 1e-100
    assert exact.norm2() == pytest.approx(rk4.norm2(), rel=1e-6, abs=0.0)


def test_underflow_split_into_log_scale():
    # The norm falls to about exp(-383), below the 1e-150 guard, so both
    # methods split a factor off into log_scale, at different times.
    p, h, state = _stiff_edge_state(70)
    log_norms = []
    for cfg in (IntegratorConfig(dt=default_dt(p)),
                IntegratorConfig(dt=default_dt(p), method="expm", record_stride=50)):
        out = propagate(h, state, 5.0, cfg)
        assert out.log_scale < math.log(UNDERFLOW_GUARD)
        log_norms.append(out.log_scale + 0.5 * math.log(out.raw_norm2()))
    assert log_norms[1] == pytest.approx(log_norms[0], abs=1e-6)


def test_stepping_method_boundary():
    assert stepping_method(201, 1) == "rk4"
    assert stepping_method(201, 4) == "rk4"
    assert stepping_method(201, 5) == "expm"  # fig4's 201-site segment
    assert stepping_method(201, 15) == "expm"
    assert stepping_method(101, 10) == "expm"
    assert stepping_method(801, 1) == "rk4"
    assert IntegratorConfig(dt=0.02).method == "rk4"
    # above the dimension cap the dense propagator is never built, whatever the stride
    assert stepping_method(EXPM_MAX_DIMENSION, 10**6) == "expm"
    assert stepping_method(EXPM_MAX_DIMENSION + 2, 10**6) == "rk4"
    assert stepping_method(100_001, 10**9) == "rk4"
    wide = parse_config('{"experiment": "probability", "M": 5000, "record_stride": 20000}')
    assert wide.integrator().method == "rk4"


def test_overflow_detected_with_failure_time(h_small_ratio):
    state = SiteState(np.full(201, 1e308 + 0j), 100)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError) as info:
            propagate(h_small_ratio, state, 10.0, IntegratorConfig(dt=0.02))
    assert info.value.failure_time is not None


def test_dimension_mismatch(h_small_ratio):
    with pytest.raises(ModelError):
        propagate(h_small_ratio, SiteState(np.ones(3, dtype=complex), 1), 1.0,
                  IntegratorConfig(dt=0.01))


def test_integrator_config_validation():
    with pytest.raises(NumericError):
        IntegratorConfig(dt=0.0)
    with pytest.raises(NumericError):
        IntegratorConfig(dt=0.1, method="verlet")
    with pytest.raises(NumericError):
        IntegratorConfig(dt=0.1, record_stride=0)


# ---------------------------------------------------------------------------
# expansion coefficients

def test_expansion_of_eigenvector_is_delta(spectrum12):
    mode = spectrum12.modes[3]
    coeffs = expansion_coefficients(mode.right_vector, spectrum12)
    assert abs(coeffs[3] - 1.0) < 1e-8
    others = np.delete(np.abs(coeffs), 3)
    assert others.max() < 1e-8


def test_point_state_couples_equally_to_both_branches(params_small_ratio, spectrum12):
    state = make_initial_state("point", params_small_ratio)
    coeffs = expansion_coefficients(state, spectrum12)
    c_plus = abs(coeffs[0])
    c_minus = abs(coeffs[1])
    assert abs(c_plus - c_minus) <= 1e-6 * c_plus


def test_smooth_state_decouples_from_staggered_branch(params_small_ratio, spectrum12, stable_modes):
    ground, excited = stable_modes
    state = make_initial_state("gaussian", params_small_ratio, width=10.0)
    coeffs = expansion_coefficients(state, spectrum12)
    c_g = coeffs[spectrum12.modes.index(ground)]
    c_e = coeffs[spectrum12.modes.index(excited)]
    assert abs(c_e) / abs(c_g) < 1e-3


def test_expansion_reconstruction(small_chain):
    p, _, spec = small_chain
    state = make_initial_state("random", p, seed=5)
    vectors = np.column_stack([mode.right_vector.amplitudes for mode in spec.modes])
    reconstruction = vectors @ expansion_coefficients(state, spec)
    assert np.abs(reconstruction - state.amplitudes).max() < 1e-8


# ---------------------------------------------------------------------------
# observables

def test_fidelity_basics(stable_modes):
    ground, excited = stable_modes
    g = ground.right_vector
    assert fidelity(g, g) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(g, excited.right_vector) < 1e-12
    scaled = g.with_amplitudes((0.3 - 1.2j) * g.amplitudes)
    assert fidelity(g, scaled) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ModelError):
        fidelity(g, g.with_amplitudes(np.zeros_like(g.amplitudes)))


def test_fidelity_bounds_random_pairs():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = SiteState(rng.normal(size=11) + 1j * rng.normal(size=11), 5).normalized()
        b = SiteState(rng.normal(size=11) + 1j * rng.normal(size=11), 5)
        assert 0.0 <= fidelity(a, b) <= 1.0 + 1e-12


def test_dirac_probability():
    state = SiteState(np.full(5, 1.0 / math.sqrt(5.0), dtype=complex), 2)
    assert dirac_probability(state) == pytest.approx(1.0, abs=1e-12)
    halved = state.with_amplitudes(state.amplitudes / math.sqrt(2.0))
    assert dirac_probability(halved) == pytest.approx(0.25, abs=1e-12)


def test_series_recording_and_csv(stable_modes):
    ground, excited = stable_modes
    series = ObservableSeries(targets={"g": ground.right_vector})
    series.record(0.0, ground.right_vector)
    series.record(0.0, ground.right_vector)  # duplicate time is ignored
    series.record(1.0, ground.right_vector)
    assert series.times == [0.0, 1.0]
    with pytest.raises(ModelError):
        series.record(0.5, ground.right_vector)
    csv = series.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "time,norm2,P,F_g"
    assert len(lines) == 3
    assert float(lines[1].split(",")[3]) == pytest.approx(1.0)
    # the cached target norm gives the same bits as norm2() and fidelity()
    mixed = SiteState(0.3 * ground.right_vector.amplitudes + 0.1 * excited.right_vector.amplitudes,
                      ground.right_vector.half_width, log_scale=-2.5)
    series.record(2.0, mixed)
    assert series.norm2[-1] == mixed.norm2()
    assert series.prob[-1] == dirac_probability(mixed)
    assert series.fidelities["g"][-1] == fidelity(ground.right_vector, mixed)


def test_series_rejects_unnormalized_target(stable_modes):
    ground, _ = stable_modes
    bad = ground.right_vector.with_amplitudes(2.0 * ground.right_vector.amplitudes)
    with pytest.raises(ModelError):
        ObservableSeries(targets={"g": bad})


def test_empty_series_csv_rejected():
    with pytest.raises(ModelError):
        ObservableSeries().to_csv()


# ---------------------------------------------------------------------------
# experiment-level behavior

def test_stable_superposition_norm_follows_lattice_rate(h_small_ratio, stable_modes):
    # span{g, e} keeps its Dirac norm up to the common V/16-type imaginary
    # energy shared by both modes; after dividing it out the drift over
    # 100/J is at the integrator-error level.
    ground, excited = stable_modes
    amps = (ground.right_vector.amplitudes + excited.right_vector.amplitudes) / math.sqrt(2.0)
    state = SiteState(amps, 100).normalized()
    out = propagate(h_small_ratio, state, 100.0, IntegratorConfig(dt=0.004))
    lattice_factor = math.exp(2.0 * ground.energy.imag * 100.0)
    assert abs(out.norm2() / lattice_factor - 1.0) < 1e-6


def test_convergence_experiment_small_scale(params_small_ratio):
    results = run_convergence_experiment(
        ["gaussian", "point"], params_small_ratio, 200.0,
        IntegratorConfig(dt=0.02, record_stride=1000),
    )
    assert results["gaussian"].fidelities["g"][-1] > 0.99
    assert results["point"].fidelities["g"][-1] == pytest.approx(0.5, abs=0.02)
    for series in results.values():
        assert all(0.0 <= f <= 1.0 for f in series.fidelities["g"])
        assert series.times[-1] == 200.0
