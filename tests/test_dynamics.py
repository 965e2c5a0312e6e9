import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings, strategies as st

from nhchain import dynamics
from nhchain.cli import PROBABILITY_SWEEP, parse_config
from nhchain.model import (ChainParams, Hamiltonian, ModelError, NumericError, SiteState,
                           build_hamiltonian)
from nhchain.quench import PulseSchedule, quenched_hamiltonian
from nhchain.spectral import dirac_overlap, numeric_spectrum
from nhchain.dynamics import (
    FLUSH_RELATIVE,
    RK4_CHECK_EVERY,
    UNDERFLOW_GUARD,
    IntegratorConfig,
    ObservableSeries,
    default_dt,
    make_initial_state,
    propagate,
    run_convergence_experiment,
    stability_limit,
    stepping_method,
    taylor_band,
    taylor_terms,
    _step_operators,
)
from oracles import csr_matrix, eigen_propagate, fidelity


@pytest.fixture(scope="module")
def small_chain():
    """21-site chain used for integrator-oracle comparisons."""
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
    for bad in (-1.0, 1e-320, 1e-200):  # the last two square to 0
        with pytest.raises(ModelError, match=f"finite square, got {bad}"):
            make_initial_state("gaussian", p, width=bad)
    point = make_initial_state("gaussian", p, width=1e-160)  # width**2 is subnormal
    assert np.array_equal(point.amplitudes, make_initial_state("point", p).amplitudes)
    with pytest.raises(ModelError, match="finite square"):
        make_initial_state("gaussian", p, width=1e155)  # width**2 overflows
    flat = make_initial_state("gaussian", p, width=1e154)  # 2 width**2 overflows to inf
    assert np.all(flat.amplitudes == flat.amplitudes[0])


@pytest.mark.parametrize("amplitude", [math.nan, math.inf, 1e200])
def test_normalized_rejects_a_non_finite_norm(amplitude):
    state = SiteState(np.full(3, amplitude, dtype=complex), 1)
    with pytest.raises(ModelError, match="normalize"):
        state.normalized()


def test_all_kinds_normalized(params_small_ratio):
    for kind in ("point", "gaussian", "tophat", "random"):
        state = make_initial_state(kind, params_small_ratio, seed=1)
        assert abs(state.norm2() - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# propagation

def test_zero_time_returns_input(small_chain, params_small_ratio):
    _, h, _ = small_chain
    state = make_initial_state("gaussian", ChainParams(J=1.0, V=2e-4, half_width=10), width=3.0)
    [out] = propagate(h, [state], (0.0, 0.0), IntegratorConfig(dt=0.01))
    assert out is state
    with pytest.raises(ModelError, match="precedes"):
        propagate(h, [state], (1.0, 0.5), IntegratorConfig(dt=0.01))


def test_rk4_matches_eigen_expansion(small_chain):
    p, h, spec = small_chain
    state = make_initial_state("gaussian", p, width=3.0)
    [out] = propagate(h, [state], (0.0, 100.0), IntegratorConfig(dt=0.004))
    oracle = eigen_propagate(spec, h, state, 100.0)
    assert np.abs(out.amplitudes - oracle.amplitudes).max() <= 1e-8
    with pytest.raises(ModelError, match="needs all 21 modes"):
        eigen_propagate(numeric_spectrum(h, 2), h, state, 100.0)


def test_eigen_oracle_reproduces_the_state_at_time_zero_on_the_fig4_chain(h_small_ratio,
                                                                         params_small_ratio):
    # The 201-site chain's deep modes are ill-conditioned and nearly
    # self-orthogonal (|v^T v| small), so projections onto their left vectors
    # conj(v) / conj(v^T v) lose them (the point state came back 1.7e3 of its
    # peak off); a solve over the right vectors does not.
    spec = numeric_spectrum(h_small_ratio, h_small_ratio.dimension)
    for kind in ("point", "gaussian"):
        state = make_initial_state(kind, params_small_ratio, width=9.0)
        oracle = eigen_propagate(spec, h_small_ratio, state, 0.0)
        error = np.abs(oracle.amplitudes - state.amplitudes).max()
        assert error <= 1e-9 * np.abs(state.amplitudes).max(), kind


def test_fourth_order_convergence(small_chain):
    p, h, spec = small_chain
    state = make_initial_state("gaussian", p, width=3.0)
    oracle = eigen_propagate(spec, h, state, 100.0)

    def error(dt):
        [out] = propagate(h, [state], (0.0, 100.0), IntegratorConfig(dt=dt))
        return np.abs(out.amplitudes - oracle.amplitudes).max()

    ratio = error(0.05) / error(0.025)
    assert 13.0 <= ratio <= 19.0


def test_eigenstate_propagation_is_exponential(h_small_ratio, stable_modes):
    ground, _ = stable_modes
    t = 20.0
    [out] = propagate(h_small_ratio, [ground.right_vector], (0.0, t), IntegratorConfig(dt=0.004))
    expected = np.exp(-1j * ground.energy * t) * ground.right_vector.amplitudes
    assert np.abs(out.amplitudes - expected).max() < 1e-8
    # norm drift is exactly the (tiny) imaginary-energy exponential
    assert abs(out.norm2() - math.exp(2.0 * ground.energy.imag * t)) < 1e-8


def test_excited_ladder_decay_rate(h_small_ratio, spectrum12, params_small_ratio):
    mode = next(m for m in spectrum12.modes if (m.m, m.branch) == (1, "+"))
    t = 1.0 / (2.0 * params_small_ratio.omega)
    [out] = propagate(h_small_ratio, [mode.right_vector], (0.0, t), IntegratorConfig(dt=0.02))
    assert out.norm2() == pytest.approx(math.exp(-2.0), rel=0.01)


def _four_stage_step(h, y, dt):
    matrix = csr_matrix(h)
    k1 = -1j * (matrix @ y)
    k2 = -1j * (matrix @ (y + 0.5 * dt * k1))
    k3 = -1j * (matrix @ (y + 0.5 * dt * k2))
    k4 = -1j * (matrix @ (y + dt * k3))
    return y + dt / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)


def _site_matrix(band):
    """The dense site-basis matrix of ``taylor_band`` rows: (n, m) is i^(n - m) band[n, m - n + p]."""
    n, width = band.shape
    padded = np.zeros((n, n + width - 1), dtype=complex)
    for row in range(n):
        padded[row, row:row + width] = band[row]
    phases = 1j ** np.arange(-(n // 2), n // 2 + 1)  # i^l, here to rounding
    return phases[:, None] * padded[:, width // 2:width // 2 + n] * phases.conj()


def test_rk4_step_operator_is_one_classical_step(h_small_ratio):
    # The pulsed diagonal mu*l has a real part; the pulse step is delta/400.
    sched = PulseSchedule(delta=0.02)
    pulsed = quenched_hamiltonian(h_small_ratio, sched)
    rng = np.random.default_rng(11)
    y = rng.normal(size=201) + 1j * rng.normal(size=201)
    for h, dt in ((h_small_ratio, 0.02), (pulsed, sched.dt)):
        band = taylor_band(h, dt, 4)
        expected = _four_stage_step(h, y, dt)
        assert np.abs(_site_matrix(band) @ y - expected).max() <= 1e-13 * np.abs(expected).max()
        assert band.shape == (201, 9)  # 9 diagonals, none further out


def _csr_taylor_operator(h, tau, degree):
    """Reference: the degree-p Taylor polynomial of expm(-i H tau) in Horner form, as CSR."""
    a = csr_matrix(h) * (-1j * tau)
    identity = scipy.sparse.eye_array(h.dimension, dtype=complex, format="csr")
    step = identity
    for k in range(degree, 0, -1):
        step = identity + (a @ step) / k
    return step


@pytest.mark.parametrize("V, M, stride, substeps, degree, rtol", [
    (2e-4, 100, 15, 1, 19, 1e-15),  # fig3's sample: measured 1.2e-16
    (0.32, 30, 57, 4, 46, 1e-13),  # the stiff chain's substep: measured 1.7e-14
])
def test_gauged_band_is_real_and_matches_the_site_operator(V, M, stride, substeps, degree, rtol):
    # The gauge z = i^-l y turns the anti-PT chain's -i H tau into a real
    # matrix, so the band is float64; entry (n, m) is i^(m - n) times the
    # site-basis entry, to rounding relative to the largest entry.
    p = ChainParams(J=1.0, V=V, half_width=M)
    h = build_hamiltonian(p)
    tau = stride * default_dt(p) / substeps
    assert taylor_terms(h, stride * default_dt(p)) == (degree, substeps)
    band = taylor_band(h, tau, degree)
    assert band.dtype == np.float64 and band.shape == (h.dimension, 2 * degree + 1)
    reference = _csr_taylor_operator(h, tau, degree).toarray()
    assert np.abs(_site_matrix(band) - reference).max() <= rtol * np.abs(reference).max()


def test_propagate_performs_no_sparse_product(h_small_ratio, stable_modes, monkeypatch):
    calls = []

    def counting(name, original):
        def counted(self, *args, **kwargs):
            calls.append(name)
            return original(self, *args, **kwargs)
        return counted

    formats = [value for name, value in vars(scipy.sparse).items()
               if name.endswith(("_array", "_matrix")) and isinstance(value, type)]
    assert scipy.sparse.csr_array in formats and scipy.sparse.dia_matrix in formats
    for cls in formats:
        for name in ("__matmul__", "__rmatmul__", "__mul__", "__rmul__", "dot"):
            monkeypatch.setattr(cls, name, counting(name, getattr(cls, name)))
    ground, _ = stable_modes
    sched = PulseSchedule(delta=0.02)
    pulsed = quenched_hamiltonian(h_small_ratio, sched)
    # the real band on both routes, then the complex band on both (past the RK4 limit)
    for h, dt, stride, route in ((h_small_ratio, 0.02, 1, "rk4"),
                                 (h_small_ratio, 0.02, 15, "exact"),
                                 (pulsed, sched.dt, 1, "rk4"),
                                 (pulsed, 4 * sched.dt, 1, "exact")):
        assert stepping_method(h, dt, stride) == route
        propagate(h, [ground.right_vector], (0.0, 30 * dt), IntegratorConfig(dt, stride),
                  series=[ObservableSeries()])
    assert calls == []
    # the wrapper sees a sparse product
    csr_matrix(h_small_ratio) @ ground.right_vector.amplitudes
    assert calls == ["__matmul__"]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(V=st.floats(1e-4, 0.5), M=st.integers(1, 40), dt_per_limit=st.floats(0.05, 4.0),
       record_stride=st.integers(1, 80), span_per_dt=st.floats(0.3, 12.0))
def test_rk4_steps_only_within_the_stability_limit(V, M, dt_per_limit, record_stride,
                                                   span_per_dt):
    # propagate routes on the step it takes, span / n_steps, which differs
    # from dt whenever the span is not a whole number of steps.
    p = ChainParams(J=1.0, V=V, half_width=M)
    h = build_hamiltonian(p)
    limit = stability_limit(h)
    cfg = IntegratorConfig(dt=dt_per_limit * limit, record_stride=record_stride)
    span = span_per_dt * cfg.dt
    routes = []

    def spy(h, dt, n_steps, stride):
        jump, check_every, operators = step_operators(h, dt, n_steps, stride)
        routes.append((dt, n_steps, check_every == RK4_CHECK_EVERY))  # RK4's check interval
        return jump, check_every, operators

    step_operators = dynamics._step_operators
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "_step_operators", spy)
        [out] = propagate(h, [make_initial_state("point", p, center=M)], (0.0, span), cfg)
    [(taken, n_steps, rk4)] = routes
    assert n_steps == max(1, round(span / cfg.dt)) and taken == span / n_steps
    assert taken <= limit or not rk4
    assert math.isfinite(out.norm2())


# V M^2 = 2, where max|H_ll| = 2|H_l,l+1| and ||H||_inf is farthest above
# max(2|H_l,l+1|, max|H_ll|); below and above it; and the stiff chain.
AMPLIFICATION_CHAINS = [(2.0 * f / M**2, M) for f in (0.5, 1.0, 2.0) for M in (2, 10, 30, 100)]
AMPLIFICATION_CHAINS += [(0.32, 30), (2e-4, 30)]


@pytest.mark.parametrize("V, M", AMPLIFICATION_CHAINS)
def test_rk4_at_the_stability_limit_grows_no_mode_faster_than_the_exact_flow(V, M):
    # Per step, RK4 multiplies mode E by R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 at
    # z = -i E dt, the exact flow by e^z.  At dt = 2.5 / ||H||_inf the largest
    # |R(z)| stays within the largest |e^z|, or within 1 where no mode grows.
    # At 2.5 / max(2|H_l,l+1|, max|H_ll|) RK4 grows a mode of the fig4 chain
    # (V = 2e-4, M = 100) 2.156 times per step.
    bare = build_hamiltonian(ChainParams(J=1.0, V=V, half_width=M))
    for h in (bare, quenched_hamiltonian(bare, PulseSchedule(delta=0.02))):
        z = -1j * scipy.linalg.eigvals(csr_matrix(h).toarray()) * stability_limit(h)
        rk4 = np.abs(1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24).max()
        assert rk4 <= max(1.0, np.exp(z.real.max())) * (1.0 + 1e-12)


def test_a_step_past_the_rk4_limit_steps_exactly():
    # A span of 1.45 dt is one step of 1.45 dt.  With dt at 0.99 of the
    # limit, that step is 1.44 times the limit; taken with RK4 it grows the
    # edge state's norm^2 from 1 to 9.1.  It is taken exactly instead, and
    # lands on the mode expansion (measured 2e-16 off).
    p, h, state = _stiff_edge_state(30)
    cfg = IntegratorConfig(dt=0.99 * stability_limit(h))
    assert stepping_method(h, 1.45 * cfg.dt, 1) == "exact"
    [out] = propagate(h, [state], (0.0, 1.45 * cfg.dt), cfg)
    assert out.norm2() < 1.0
    oracle = eigen_propagate(numeric_spectrum(h, h.dimension), h, state, 1.45 * cfg.dt)
    assert np.abs(out.amplitudes - oracle.amplitudes).max() <= 1e-10
    # one step of 1.01 dt is within the limit and steps with RK4
    assert stepping_method(h, 1.01 * cfg.dt, 1) == "rk4"
    [out] = propagate(h, [state], (0.0, 1.01 * cfg.dt), cfg)
    assert out.norm2() < 1.0


def test_expm_is_not_bound_by_the_rk4_stability_limit(small_chain):
    # The exact propagator is stable at any dt: 20 steps of 5.0, four times
    # the 1.244 RK4 limit of this chain, land on the mode expansion.
    p, h, spec = small_chain
    state = make_initial_state("gaussian", p, width=3.0)
    assert stepping_method(h, 5.0, 3) == "exact"
    [out] = propagate(h, [state], (0.0, 100.0), IntegratorConfig(dt=5.0, record_stride=3))
    oracle = eigen_propagate(spec, h, state, 100.0)
    assert np.abs(out.amplitudes - oracle.amplitudes).max() <= 1e-10


def test_expm_matches_eigen_expansion(small_chain):
    p, h, spec = small_chain
    state = make_initial_state("gaussian", p, width=3.0)
    assert stepping_method(h, 0.004, 1000) == "exact"
    [out] = propagate(h, [state], (0.0, 100.0), IntegratorConfig(dt=0.004, record_stride=1000))
    oracle = eigen_propagate(spec, h, state, 100.0)
    assert np.abs(out.amplitudes - oracle.amplitudes).max() <= 1e-10


def test_expm_records_on_the_rk4_mesh(small_chain, monkeypatch):
    p, h, _ = small_chain
    state = make_initial_state("gaussian", p, width=3.0)
    runs = {}
    for method in ("rk4", "exact"):
        # 1000 steps at stride 7: the last chunk is a 6-step remainder
        monkeypatch.setattr(dynamics, "stepping_method", lambda *args: method)
        series = ObservableSeries()
        propagate(h, [state], (0.0, 10.0), IntegratorConfig(dt=0.01, record_stride=7),
                  series=[series])
        runs[method] = series
    assert runs["exact"]["time"].tolist() == runs["rk4"]["time"].tolist()
    assert len(runs["exact"]) == len(runs["rk4"]) == 1000 // 7 + 2
    assert np.allclose(runs["exact"]["norm2"], runs["rk4"]["norm2"], rtol=1e-8, atol=0.0)


def _stiff_edge_state(half_width):
    p = ChainParams(J=1.0, V=0.32, half_width=half_width)
    return p, build_hamiltonian(p), make_initial_state("point", p, center=half_width)


def test_expm_keeps_the_small_entries_of_the_propagator():
    # A state decaying from the stiff edge lives in entries of U far below
    # max|U|; dropping them changes this norm by ten orders of magnitude.
    p, h, state = _stiff_edge_state(30)
    dt = 20.0 / round(20.0 / default_dt(p))  # the step taken
    assert stepping_method(h, dt, 1) == "rk4" and stepping_method(h, dt, 50) == "exact"
    [rk4] = propagate(h, [state], (0.0, 20.0), IntegratorConfig(dt=default_dt(p)))
    [exact] = propagate(h, [state], (0.0, 20.0),
                        IntegratorConfig(dt=default_dt(p), record_stride=50))
    assert rk4.norm2() < 1e-100
    assert exact.norm2() == pytest.approx(rk4.norm2(), rel=1e-6, abs=0.0)


def _exact_and_dense(h, state, t, dt, stride):
    """Recorded norm^2 and final state of the exact route and of a dense expm reference.

    The reference applies scipy.linalg.expm(-i H k dt) once per recorded
    sample of k steps, on propagate's mesh.
    """
    n_steps = round(t / dt)
    assert dynamics.stepping_method(h, t / n_steps, stride) == "exact"
    series = ObservableSeries()
    [out] = propagate(h, [state], (0.0, t), IntegratorConfig(dt=dt, record_stride=stride),
                      series=[series])
    dense = csr_matrix(h).toarray()
    u = {k: scipy.linalg.expm(dense * (-1j * k * t / n_steps))
         for k in {stride, n_steps % stride} - {0}}
    y, norm2 = state.amplitudes, [state.norm2()]
    for step in range(0, n_steps, stride):
        y = u[min(stride, n_steps - step)] @ y
        norm2.append(float(np.vdot(y, y).real))
    final = out.amplitudes * math.exp(out.log_scale)
    return (np.array(series["norm2"]), np.array(norm2),
            np.linalg.norm(final - y) / np.linalg.norm(y))


def _stable_pair_state(h):
    ground, excited = numeric_spectrum(h, 2).stable_pair()
    return SiteState(ground.right_vector.amplitudes + excited.right_vector.amplitudes,
                     h.half_width).normalized()


@pytest.mark.parametrize("V, M, stride, start", [
    (2e-4, 100, 5, "pair"),  # fig4, omega/J = 0.01
    (2e-4, 100, 15, "gaussian"),  # fig3
    (0.02, 50, 10, "pair"),  # fig4, omega/J = 0.1
    (0.32, 30, 57, "pair"),  # fig4, omega/J = 0.4: 4 substeps of degree 46
])
def test_exact_route_matches_dense_expm_on_the_preset_chains(V, M, stride, start):
    # Tolerance 1e-12 relative over 20 time units (up to 204 samples): the
    # truncation bound is s sqrt(N) 2^-53 per sample, below 1e-14 here; the
    # rest is rounding, measured at most 3e-13 (the N = 61 chain).
    p = ChainParams(J=1.0, V=V, half_width=M)
    h = build_hamiltonian(p)
    state = _stable_pair_state(h) if start == "pair" else make_initial_state(start, p)
    exact, dense, final_error = _exact_and_dense(h, state, 20.0, default_dt(p), stride)
    assert np.abs(exact - dense).max() <= 1e-12 * dense.min()
    assert final_error <= 1e-12


def test_exact_route_matches_dense_expm_on_the_pulsed_chain(h_small_ratio, stable_modes,
                                                           monkeypatch):
    # fig5's pulse: 400 steps of delta/400 at stride 15, 2 substeps of
    # degree 41 per sample (||H||_inf ~ 15,700).  Tolerance as on the
    # preset chains, 1e-12 relative; measured 6e-15.  The rule steps fig5's
    # pulse with RK4 (fewer nonzeros), so the exact route is forced here.
    monkeypatch.setattr(dynamics, "stepping_method", lambda *args: "exact")
    ground, _ = stable_modes
    sched = PulseSchedule(delta=0.02)
    pulsed = quenched_hamiltonian(h_small_ratio, sched)
    assert np.iscomplexobj(taylor_band(pulsed, sched.dt, 1))  # mu l leaves the real gauge
    exact, dense, final_error = _exact_and_dense(pulsed, ground.right_vector, sched.delta,
                                                 sched.dt, 15)
    assert len(exact) == 400 // 15 + 2
    assert np.abs(exact - dense).max() <= 1e-12 * dense.min()
    assert final_error <= 1e-12


def test_exact_route_matches_dense_expm_on_a_chain_with_a_real_defect():
    # A real on-site energy at one site breaks the anti-PT symmetry, so the
    # exact route steps fig4's omega/J = 0.1 chain through the complex band.
    # Tolerance as on the preset chains, 1e-12 relative.
    p = ChainParams(J=1.0, V=0.02, half_width=50)
    bare = build_hamiltonian(p)
    diagonal = bare.diagonal.copy()
    diagonal[53] += 0.05
    h = Hamiltonian(diagonal=diagonal, off_diagonal=bare.off_diagonal, half_width=50)
    assert np.iscomplexobj(taylor_band(h, default_dt(p), 1))
    exact, dense, final_error = _exact_and_dense(h, _stable_pair_state(bare), 20.0,
                                                 default_dt(p), 10)
    assert np.abs(exact - dense).max() <= 1e-12 * dense.min()
    assert final_error <= 1e-12


def test_exact_route_matches_dense_expm_on_the_stiff_edge():
    # The point state at the stiff edge falls to norm^2 ~ 1e-101 by t = 2.
    # While its fast-decaying edge part dominates, a substep of x = 8.3
    # rounds Horner's sums (terms up to e^x) to a result near e^-x, so the
    # recorded norm^2 may be off by about 2^-53 e^(2x) per substep: measured
    # 1.4e-9, tolerance 1e-7 relative.  The final state, held by slower
    # modes, keeps the preset chains' tolerance, 1e-12 relative.
    p, h, state = _stiff_edge_state(30)
    exact, dense, final_error = _exact_and_dense(h, state, 2.0, default_dt(p), 50)
    assert dense[-1] < 1e-100
    assert np.all(np.abs(exact - dense) <= 1e-7 * dense)
    assert final_error <= 1e-12


def test_chain_above_the_old_dense_cap_steps_exactly():
    # 1603 sites, above the 1601 that bounded the dense propagator.  At
    # dt = 2e-4 two RK4 steps (18 nonzeros) cost more than one degree-8
    # sample (17), so the run steps exactly.  Reference: scipy's
    # expm_multiply, tolerance 1e-12 relative.
    cfg = parse_config('{"experiment": "probability", "M": 801, "dt": 2e-4, '
                       '"record_stride": 2, "t_end": 0.1}')
    config = cfg.integrator()
    p = cfg.chain_params()
    h = build_hamiltonian(p)
    assert stepping_method(h, cfg.t_end / 500, 2) == "exact"
    state = make_initial_state("gaussian", p, width=5.0)
    series = ObservableSeries()
    [out] = propagate(h, [state], (0.0, cfg.t_end), config, series=[series])
    assert len(series) == 500 // 2 + 1
    reference = scipy.sparse.linalg.expm_multiply(csr_matrix(h) * (-1j * cfg.t_end),
                                                  state.amplitudes)
    error = np.linalg.norm(out.amplitudes - reference) / np.linalg.norm(reference)
    assert error <= 1e-12


def test_underflow_split_into_log_scale():
    # The norm falls to about exp(-383), far below the 1e-50 guard, so both
    # methods split a factor off into log_scale, at different times.
    p, h, state = _stiff_edge_state(70)
    log_norms = []
    for cfg, method in ((IntegratorConfig(dt=default_dt(p)), "rk4"),
                        (IntegratorConfig(dt=default_dt(p), record_stride=50), "exact")):
        assert stepping_method(h, 5.0 / round(5.0 / cfg.dt), cfg.record_stride) == method
        [out] = propagate(h, [state], (0.0, 5.0), cfg)
        assert out.log_scale < math.log(UNDERFLOW_GUARD)
        log_norms.append(out.log_scale + 0.5 * math.log(out.raw_norm2()))
    assert log_norms[1] == pytest.approx(log_norms[0], abs=1e-6)


# ids: the exact route's former label, so that the test names stay stable
@pytest.mark.parametrize("method", ["rk4", "exact"], ids=["rk4", "expm"])
def test_block_propagation_matches_solo_runs(method, monkeypatch):
    # The edge column falls below the underflow guard and splits a factor
    # into log_scale; the stable-pair column never does.  At M = 30 the edge
    # norm bottoms out near exp(-117), just below the 1e-50 guard, so M = 30
    # splits too; M = 70 splits by a wide margin.
    monkeypatch.setattr(dynamics, "stepping_method", lambda *args: method)
    p, h, edge = _stiff_edge_state(70)
    ground, _ = numeric_spectrum(h, 2).stable_pair()
    states = [edge, ground.right_vector, make_initial_state("gaussian", p, width=5.0)]
    cfg = IntegratorConfig(dt=default_dt(p), record_stride=60)
    assert round(1.0 / cfg.dt) % cfg.record_stride != 0  # a remainder chunk
    block_series = [ObservableSeries() for _ in states]
    block = propagate(h, states, (0.0, 1.0), cfg, series=block_series)
    for state, out, series in zip(states, block, block_series):
        solo_series = ObservableSeries()
        [solo] = propagate(h, [state], (0.0, 1.0), cfg, series=[solo_series])
        scale = np.abs(solo.amplitudes).max()
        assert np.abs(out.amplitudes - solo.amplitudes).max() <= 1e-13 * scale
        assert out.log_scale == pytest.approx(solo.log_scale, rel=1e-13, abs=0.0)
        assert out.norm2() == pytest.approx(solo.norm2(), rel=1e-13, abs=0.0)
        assert series["time"].tolist() == solo_series["time"].tolist()
        assert np.allclose(series["norm2"], solo_series["norm2"], rtol=1e-13, atol=0.0)
    assert block[0].log_scale < math.log(UNDERFLOW_GUARD)
    assert block[1].log_scale == block[2].log_scale == 0.0


def _unflushed_propagate(h, states, t, cfg):
    """propagate's products and underflow splits, with the flush switched off.

    Also counts the parts a flush would have zeroed at the checks.
    """
    would_flush = []
    check = dynamics._check_columns

    def counted(z, log_scale, t):
        check(z, log_scale, t)  # splits; with FLUSH_RELATIVE = 0 it zeroes nothing
        parts = np.abs(z.reshape(len(z), -1))
        limits = FLUSH_RELATIVE * np.linalg.norm(parts, axis=1, keepdims=True)
        would_flush.append(np.count_nonzero((parts > 0) & (parts < limits)))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "FLUSH_RELATIVE", 0.0)
        patch.setattr(dynamics, "_check_columns", counted)
        out = propagate(h, states, (0.0, t), cfg)
    y = np.column_stack([s.amplitudes for s in out])
    return y, np.array([s.log_scale for s in out]), sum(would_flush)


# ids: the exact route's former label, so that the test names stay stable
@pytest.mark.parametrize("method", ["rk4", "exact"], ids=["rk4", "expm"])
def test_flush_error_stays_within_its_bound(method, monkeypatch):
    # The edge column's front and the propagator's far entries leave parts
    # below FLUSH_RELATIVE times their column's norm, which propagate
    # zeroes.  Each of at most one flush per step removes sqrt(2N) *
    # FLUSH_RELATIVE of a column's norm, which is at most exp(omega * t_j)
    # in true amplitudes for a state whose initial norm is 1, and max Im H_ll
    # = omega lets that grow by at most exp(omega * (t - t_j)): the documented
    # bound, in true amplitudes.
    monkeypatch.setattr(dynamics, "stepping_method", lambda *args: method)
    p, h, edge = _stiff_edge_state(70)
    ground, _ = numeric_spectrum(h, 2).stable_pair()
    states = [edge, ground.right_vector, make_initial_state("gaussian", p, width=5.0)]
    cfg = IntegratorConfig(dt=default_dt(p), record_stride=60)
    t = 1.0
    block = propagate(h, states, (0.0, t), cfg)
    reference, ref_log_scale, would_flush = _unflushed_propagate(h, states, t, cfg)
    assert would_flush > 0
    n_steps = round(t / cfg.dt)
    flushed_true = n_steps * math.sqrt(2 * h.dimension) * FLUSH_RELATIVE * math.exp(p.omega * t)
    for out, ref, ref_log in zip(block, reference.T, ref_log_scale):
        assert out.log_scale == pytest.approx(ref_log, rel=1e-13, abs=0.0)
        error = np.linalg.norm(out.amplitudes * math.exp(out.log_scale - ref_log) - ref)
        assert error <= flushed_true * math.exp(-ref_log)  # in the reference's raw units


def test_flush_keeps_subnormals_out_of_states_and_records(monkeypatch):
    # On this 801-site chain the stable pair's far tails decay below the
    # normal range by t ~ 25: unflushed, 64 parts of the state at t = 30 and
    # 11,345 parts of the recorded samples are subnormal.
    p = ChainParams(J=1.0, V=2e-4, half_width=400)
    h = build_hamiltonian(p)
    ground, excited = numeric_spectrum(h, 2).stable_pair()
    state = SiteState(ground.right_vector.amplitudes + excited.right_vector.amplitudes,
                      p.half_width).normalized()
    chunks = []
    record = ObservableSeries.record

    def keep_chunk(self, times, samples, log_scale):
        chunks.append(samples.copy())
        record(self, times, samples, log_scale)

    monkeypatch.setattr(ObservableSeries, "record", keep_chunk)
    series = ObservableSeries()
    cfg = IntegratorConfig(dt=default_dt(p))
    [out] = propagate(h, [state], (0.0, 30.0), cfg, series=[series])
    tiny = np.finfo(float).tiny
    for amplitudes in [out.amplitudes, *chunks]:
        parts = np.abs(amplitudes.view(np.float64))
        assert not np.any((parts > 0) & (parts < tiny))
    # a plain loop of the same products with no flush gives the same recorded bits
    n_steps = round(30.0 / cfg.dt)
    [(band, _)] = _step_operators(h, 30.0 / n_steps, n_steps, 1)[2].values()
    phases = np.array([1, 1j, -1, -1j])[p.sites() % 4]  # propagate's exact i^l
    blocks = np.zeros((2, 1, 2, h.dimension + 8))  # the RK4 band's half width is 4
    z = state.amplitudes * phases.conj()
    blocks[0, 0, :, 4:-4] = z.real, z.imag
    products = [dynamics._product(band, blocks[b], blocks[1 - b]) for b in (0, 1)]
    y = np.empty(h.dimension, dtype=complex)
    norm2 = [state.norm2()]
    for i in range(n_steps):
        products[i % 2]()
        y.real, y.imag = blocks[1 - i % 2, 0, :, 4:-4]
        norm2.append(dataclasses.replace(state, amplitudes=y * phases).norm2())
    assert series["norm2"].tolist() == norm2
    assert series["P"].tolist() == [n2 * n2 for n2 in norm2]


def test_split_keeps_subnormals_out_of_a_decayed_column(monkeypatch):
    # The stiff edge's norm decays to about exp(-345) by t = 5.  Were it
    # split only below 1e-150, its parts kept by the relative flush could be
    # near 1e-300, and the RK4 steps between two checks would take 2,088 of
    # them into the subnormal range, in 573 recorded rows.
    p, h, state = _stiff_edge_state(70)
    chunks = []
    record = ObservableSeries.record

    def keep_chunk(self, times, samples, log_scale):
        chunks.append(samples.copy())
        record(self, times, samples, log_scale)

    monkeypatch.setattr(ObservableSeries, "record", keep_chunk)
    cfg = IntegratorConfig(dt=default_dt(p))
    assert stepping_method(h, cfg.dt, cfg.record_stride) == "rk4"
    [out] = propagate(h, [state], (0.0, 5.0), cfg, series=[ObservableSeries()])
    assert out.log_scale < -300.0
    tiny = np.finfo(float).tiny
    for amplitudes in [out.amplitudes, *chunks]:
        parts = np.abs(amplitudes.view(np.float64))
        assert not np.any((parts > 0) & (parts < tiny))


def test_compensated_chain_conserves_probability():
    # Removing the lattice shift V/16 from the diagonal (a multiple of the
    # identity, so the modes are unchanged) leaves the stable pair with
    # |Im E| of order V^(3/2): criterion 5's drift is the lattice term.
    for V, M, bound in ((2e-4, 100, 1e-4), (0.02, 50, 0.02)):
        p = ChainParams(J=1.0, V=V, half_width=M)
        bare = build_hamiltonian(p)
        l = p.sites().astype(float)
        compensated = Hamiltonian(diagonal=1j * (p.omega - V / 16.0 - V * l * l),
                                  off_diagonal=-p.J, half_width=M)
        ground, excited = numeric_spectrum(bare, 2).stable_pair()
        state = SiteState(ground.right_vector.amplitudes + excited.right_vector.amplitudes,
                          M).normalized()
        deviations = []
        for h in (bare, compensated):
            assert stepping_method(h, 200.0 / round(200.0 / default_dt(p)), 10) == "exact"
            series = ObservableSeries()
            propagate(h, [state], (0.0, 200.0), IntegratorConfig(dt=default_dt(p), record_stride=10),
                      series=[series])
            deviations.append(max(abs(prob - 1.0) for prob in series["P"]))
        assert deviations[1] <= bound < deviations[0]


def test_stepping_method_boundary():
    # RK4 only when dt is within the stability limit and one exact sample
    # applies more nonzeros, s (2p + 1), than record_stride RK4 steps, 9 each.
    def chain(V, M):
        p = ChainParams(J=1.0, V=V, half_width=M)
        return build_hamiltonian(p), default_dt(p)

    def method(raw):
        cfg = parse_config(raw)
        return stepping_method(build_hamiltonian(cfg.chain_params()), cfg.dt, cfg.record_stride)

    fig4, _ = chain(2e-4, 100)  # dt = 0.02, ||H||_inf = 3.95
    assert taylor_terms(fig4, 2 * 0.02) == (10, 1)
    assert stepping_method(fig4, 0.02, 2) == "rk4"  # 21 > 18
    assert stepping_method(fig4, 0.02, 3) == "exact"  # 23 <= 27
    # a tie (27 = 27) steps exactly; one degree more does not
    assert taylor_terms(fig4, 3 * 0.035) == (13, 1)
    assert stepping_method(fig4, 0.035, 3) == "exact"
    assert stepping_method(fig4, 0.036, 3) == "rk4"
    # at the default dt (about 0.5 / ||H||) the crossover is stride 7, or 8
    for V, M, last_rk4 in ((0.02, 50, 6), (0.32, 30, 6), (2e-4, 400, 7), (2e-4, 801, 6)):
        h, dt = chain(V, M)
        assert stepping_method(h, dt, last_rk4) == "rk4"
        assert stepping_method(h, dt, last_rk4 + 1) == "exact"
    wide = '{"experiment": "probability", "M": 5000, "record_stride": %d}'
    assert method(wide % 6) == "rk4"
    assert method(wide % 7) == "exact"
    # the stability clause: past the limit the run steps exactly, whatever the cost
    limit = stability_limit(fig4)
    assert stepping_method(fig4, limit, 1) == "rk4"
    assert stepping_method(fig4, math.nextafter(limit, 2.0), 1) == "exact"
    stiff = '{"experiment": "probability", "V": 0.32, "M": 30, "dt": %r, "record_stride": 1}'
    assert method(stiff % 0.0086) == "rk4"  # the limit is 0.0086625
    assert method(stiff % 0.0087) == "exact"
    # stride 1000 at ||H||_inf dt = 2.5: RK4 is cheaper up to its limit (0.024572)
    short = ('{"experiment": "probability", "M": 800, "V": 1.5625e-4, "t_end": 20.0, '
             '"dt": %r, "record_stride": 1000}')
    assert method(short % 0.02457) == "rk4"
    assert method(short % 0.02458) == "exact"


def test_overflow_detected_with_failure_time(h_small_ratio):
    state = SiteState(np.full(201, 1e308 + 0j), 100)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match=r"at t = \d"):
            propagate(h_small_ratio, [state], (0.0, 10.0), IntegratorConfig(dt=0.02))


def test_propagate_rejects_an_empty_sequence_of_states(h_small_ratio):
    with pytest.raises(ModelError, match="no state to propagate"):
        propagate(h_small_ratio, [], (0.0, 1.0), IntegratorConfig(dt=0.01))


def test_dimension_mismatch(h_small_ratio):
    with pytest.raises(ModelError):
        propagate(h_small_ratio, [SiteState(np.ones(3, dtype=complex), 1)], (0.0, 1.0),
                  IntegratorConfig(dt=0.01))


def test_series_argument_matches_the_state_argument(h_small_ratio, stable_modes):
    ground, excited = stable_modes
    states = (ground.right_vector, excited.right_vector)
    cfg = IntegratorConfig(dt=0.01)
    with pytest.raises(ModelError, match="1 series for 2 states"):
        propagate(h_small_ratio, states, (0.0, 1.0), cfg, series=[ObservableSeries()])
    # an empty span returns what any other span returns: a list of the states
    series = [ObservableSeries(), ObservableSeries()]
    out = propagate(h_small_ratio, states, (2.0, 2.0), cfg, series=series)
    assert isinstance(out, list) and all(a is b for a, b in zip(out, states, strict=True))
    assert [s["time"].tolist() for s in series] == [[2.0], [2.0]]


def test_integrator_config_validation():
    # the route is propagate's choice, not a setting
    assert [field.name for field in dataclasses.fields(IntegratorConfig)] == ["dt", "record_stride"]
    assert IntegratorConfig(dt=0.02).record_stride == 1
    with pytest.raises(ModelError):
        IntegratorConfig(dt=0.0)
    with pytest.raises(ModelError):
        IntegratorConfig(dt=0.1, record_stride=0)
    with pytest.raises(ModelError, match="integer"):
        IntegratorConfig(dt=0.02, record_stride=2.5)


# ---------------------------------------------------------------------------
# overlaps with the stable pair

def test_point_state_couples_equally_to_both_branches(params_small_ratio, stable_modes):
    ground, excited = stable_modes
    state = make_initial_state("point", params_small_ratio)
    c_g = abs(dirac_overlap(ground.right_vector, state))
    c_e = abs(dirac_overlap(excited.right_vector, state))
    assert abs(c_g - c_e) <= 1e-6 * c_g


def test_smooth_state_decouples_from_staggered_branch(params_small_ratio, stable_modes):
    ground, excited = stable_modes
    state = make_initial_state("gaussian", params_small_ratio, width=10.0)
    c_g = dirac_overlap(ground.right_vector, state)
    c_e = dirac_overlap(excited.right_vector, state)
    assert abs(c_e) / abs(c_g) < 1e-3


# ---------------------------------------------------------------------------
# observables

def test_fidelity_basics(stable_modes):
    ground, excited = stable_modes
    g = ground.right_vector
    assert fidelity(g, g) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(g, excited.right_vector) < 1e-12
    scaled = dataclasses.replace(g, amplitudes=(0.3 - 1.2j) * g.amplitudes)
    assert fidelity(g, scaled) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ModelError):
        fidelity(g, dataclasses.replace(g, amplitudes=np.zeros_like(g.amplitudes)))


def test_fidelity_bounds_random_pairs():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = SiteState(rng.normal(size=11) + 1j * rng.normal(size=11), 5).normalized()
        b = SiteState(rng.normal(size=11) + 1j * rng.normal(size=11), 5)
        assert 0.0 <= fidelity(a, b) <= 1.0 + 1e-12


def _record(series, t, state):
    series.record([t], state.amplitudes[None], [state.log_scale])


def test_series_recording_and_csv(stable_modes):
    ground, excited = stable_modes
    series = ObservableSeries(targets={"g": ground.right_vector})
    _record(series, 0.0, ground.right_vector)
    _record(series, 0.0, ground.right_vector)  # duplicate time is ignored
    _record(series, 1.0, ground.right_vector)
    assert series["time"].tolist() == [0.0, 1.0]
    with pytest.raises(ModelError):
        _record(series, 0.5, ground.right_vector)
    csv = series.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "time,norm2,P,F_g"
    assert len(lines) == 3
    assert float(lines[1].split(",")[3]) == pytest.approx(1.0)
    # a chunk gives the same bits as norm2(), its square and fidelity() per
    # state
    mixed = SiteState(0.3 * ground.right_vector.amplitudes + 0.1 * excited.right_vector.amplitudes,
                      ground.right_vector.half_width, log_scale=-1.41)  # math.exp differs in the last bit
    states = [mixed, excited.right_vector, ground.right_vector]
    chunk = [ground.right_vector] + states  # its first sample repeats t = 1.0: the seam
    series.record([1.0, 2.0, 3.0, 4.0], np.array([s.amplitudes for s in chunk]),
                  [s.log_scale for s in chunk])
    assert series["time"].tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
    for i, state in enumerate(states, start=2):
        assert series["norm2"][i] == state.norm2()
        assert series["P"][i] == state.norm2() * state.norm2()
        assert series["F_g"][i] == fidelity(ground.right_vector, state)
    with pytest.raises(ModelError, match="strictly increasing"):
        series.record([5.0, 5.0], np.array([ground.right_vector.amplitudes] * 2), [0.0, 0.0])
    assert len(series) == 5
    # each column, read across the blocks and the seam, is the CSV's column bit for bit,
    # and a returned column is the caller's own copy
    csv = series.to_csv()
    header, *rows = csv.strip().split("\n")
    assert tuple(header.split(",")) == series.header
    for j, name in enumerate(series.header):
        column = series[name]
        assert column.dtype == np.float64
        assert column.tobytes() == np.array([float(row.split(",")[j]) for row in rows]).tobytes()
        column[:] = -1.0
    assert series.to_csv() == csv


_CSV_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.2e-310, 1e308, -1e308]),
    st.integers(-(2**53), 2**53),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3).flatmap(
    lambda k: st.lists(st.lists(_CSV_VALUES, min_size=3 + k, max_size=3 + k),
                       min_size=1, max_size=20)),
       st.lists(st.integers(1, 19), max_size=2))
def test_series_csv_matches_per_value_formatting(rows, cuts):
    unit = SiteState(np.ones(1, dtype=complex), 0)
    series = ObservableSeries(targets={f"t{i}": unit for i in range(len(rows[0]) - 3)})
    # the rows as 1-3 non-empty blocks, as successive chunks leave them
    bounds = sorted({0, len(rows), *(cut for cut in cuts if cut < len(rows))})
    series._blocks = [np.array(rows[a:b], dtype=float) for a, b in zip(bounds, bounds[1:])]
    lines = [",".join(["time", "norm2", "P"] + [f"F_{name}" for name in series.targets])]
    lines += [",".join(f"{value:.17g}" for value in row) for row in rows]
    assert series.to_csv() == "\n".join(lines) + "\n"


def test_series_rejects_a_non_finite_sample_at_its_time():
    # at 1e100 norm2 = 1e200 is finite but P = norm2^2 is not; no warning either way
    for amplitude in (math.inf, 1e100):
        series = ObservableSeries()
        samples = np.array([[1.0, 0.0, 0.0], [amplitude, 0.0, 0.0]], dtype=complex)
        with pytest.raises(NumericError, match=r"non-finite norm at t=2\.5$"):
            series.record([1.0, 2.5], samples, [0.0, 0.0])
        assert len(series) == 0


def test_series_rejects_a_zero_sample_with_targets(stable_modes):
    ground, _ = stable_modes
    series = ObservableSeries(targets={"g": ground.right_vector})
    zero = np.zeros((1, ground.right_vector.dimension), dtype=complex)
    with pytest.raises(ModelError, match="fidelity undefined for a zero state"):
        series.record([0.0], zero, [0.0])


def test_series_rejects_unnormalized_target(stable_modes):
    ground, _ = stable_modes
    bad = dataclasses.replace(ground.right_vector,
                              amplitudes=2.0 * ground.right_vector.amplitudes)
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
    [out] = propagate(h_small_ratio, [state], (0.0, 100.0), IntegratorConfig(dt=0.004))
    lattice_factor = math.exp(2.0 * ground.energy.imag * 100.0)
    assert abs(out.norm2() / lattice_factor - 1.0) < 1e-6


def _pair_state(ground, excited, half_width):
    amps = (ground.right_vector.amplitudes + excited.right_vector.amplitudes) / math.sqrt(2.0)
    return SiteState(amps, half_width).normalized()


def test_time_grid_is_the_mesh_propagate_records(small_chain):
    p, h, _ = small_chain
    ground, excited = numeric_spectrum(h, 2).stable_pair()
    state = _pair_state(ground, excited, p.half_width)
    # 10 steps at stride 3 record step 10 too; a stride beyond int64 records the ends
    _, n_steps, steps, _ = dynamics._time_grid((0.0, 1.0), IntegratorConfig(0.1, 3))
    assert n_steps == 10 and list(steps) == [0, 3, 6, 9, 10]
    for t_span, dt, stride in (((0.0, 0.0), 0.1, 1), ((0.0, 1.0), 0.1, 3),
                               ((0.0, 2.5), 0.7, 10**400), ((0.0, 0.87), 0.6, 1),
                               ((2.0, 7.3), 0.02, 7), ((0.0, 200.0), 0.013, 97)):
        config = IntegratorConfig(dt=dt, record_stride=stride)
        stepped = ObservableSeries()
        propagate(h, [state], t_span, config, series=[stepped])
        closed = dynamics.two_mode_series(ground, excited, t_span, config)
        assert closed["time"].tolist() == stepped["time"].tolist()  # bit for bit
        assert closed["time"][0] == t_span[0] and closed["time"][-1] == t_span[1]
        assert closed["norm2"][0] == 1.0
        if t_span[0] == t_span[1]:
            assert closed["time"].tolist() == [0.0] and closed["P"].tolist() == [1.0]
        if stride > 2**63:
            assert closed["time"].tolist() == [0.0, 2.5]


# Largest relative difference in P between the closed form and stepping,
# measured on fig4's chains at preset settings (1.37e-13, 8.18e-15 and
# 1.09e-11); the stiff chain's is the exact route's rounding on its edge.
# The 0.1 entry measures the order in which the two routes sum, not their
# accuracy: each is off an 80-bit reference by about 2e-14, and the drift
# test below holds both to that reference.
FIG4_STEPPED_P_RTOL = {0.01: 2e-13, 0.1: 2e-14, 0.4: 2e-11}


@pytest.mark.parametrize("ratio, V, M", PROBABILITY_SWEEP)
def test_two_mode_series_follows_propagate_on_the_fig4_chains(ratio, V, M):
    config = parse_config('{"experiment": "probability", "V": %r, "M": %d}' % (V, M))
    h = build_hamiltonian(config.chain_params())
    ground, excited = numeric_spectrum(h, 2).stable_pair()
    stepped = ObservableSeries()
    propagate(h, [_pair_state(ground, excited, M)], (0.0, config.t_end), config.integrator(),
              series=[stepped])
    closed = dynamics.two_mode_series(ground, excited, (0.0, config.t_end), config.integrator())
    assert closed["time"].tolist() == stepped["time"].tolist()
    relative = np.abs(np.subtract(closed["P"], stepped["P"])) / stepped["P"]
    assert relative.max() <= FIG4_STEPPED_P_RTOL[ratio]


def _expm_longdouble(h, tau):
    """expm(-i H tau) in numpy clongdouble: a Taylor series of A / 2^s, squared s times.

    On x86-64 the long double has a 64-bit mantissa, 2^11 times float64's.
    """
    a = np.zeros((h.dimension, h.dimension), dtype=np.clongdouble)
    sites = np.arange(h.dimension)
    step = np.clongdouble(-1j * tau)
    a[sites, sites] = h.diagonal.astype(np.clongdouble) * step
    a[sites[1:], sites[:-1]] = a[sites[:-1], sites[1:]] = np.longdouble(h.off_diagonal) * step
    squarings = max(0, math.ceil(math.log2(float(np.abs(a).sum(axis=1).max()) / 0.25)))
    a /= 2**squarings
    term = total = np.eye(h.dimension, dtype=np.clongdouble)
    for k in range(1, 26):  # 0.25^26 / 26! < 1e-42
        term = term @ a / k
        total = total + term
    for _ in range(squarings):
        total = total @ total
    return total


# Relative error of the exact route's P at t = 200 on fig4's omega/J = 0.1
# chain against the extended-precision reference: measured 2.11e-14 (the CSR
# product it replaced: 2.00e-14).  With the diagonal inside the reduction it
# measures 6.27e-14 in one einsum, as RK4's band is summed, and 2.61e-14 in
# one vecdot.  The closed form (``two_mode_series``) measures 2.57e-14.
DRIFT_P_RTOL = 3e-14


def test_exact_route_drift_against_an_extended_precision_reference():
    if np.finfo(np.longdouble).eps > 2.0**-60:
        pytest.skip("numpy's long double is no wider than float64 on this platform")
    config = parse_config('{"experiment": "probability", "V": 0.02, "M": 50}')
    h = build_hamiltonian(config.chain_params())
    ground, excited = numeric_spectrum(h, 2).stable_pair()
    state = _pair_state(ground, excited, h.half_width)
    series = ObservableSeries()
    propagate(h, [state], (0.0, config.t_end), config.integrator(), series=[series])
    dt, _, steps, _ = dynamics._time_grid((0.0, config.t_end), config.integrator())
    gaps = np.diff(list(steps))  # 2,004 samples of 10 steps, one degree-38 product each
    assert stepping_method(h, dt, config.record_stride) == "exact"
    propagators = {k: _expm_longdouble(h, k * dt) for k in set(gaps.tolist())}
    y = state.amplitudes.astype(np.clongdouble)
    for k in gaps:
        y = propagators[k] @ y
    reference = float(np.sum(y.real**2 + y.imag**2) ** 2)
    assert series["time"][-1] == config.t_end == 200.0
    assert abs(series["P"][-1] - reference) <= DRIFT_P_RTOL * reference
    closed = dynamics.two_mode_series(ground, excited, (0.0, config.t_end), config.integrator())
    assert abs(closed["P"][-1] - reference) <= DRIFT_P_RTOL * reference


def test_two_mode_series_matches_the_mode_expansion_on_the_stiff_chain(params_large_ratio):
    h = build_hamiltonian(params_large_ratio)
    spec = numeric_spectrum(h, h.dimension)
    ground, excited = numeric_spectrum(h, 2).stable_pair()
    state = _pair_state(ground, excited, h.half_width)
    closed = dynamics.two_mode_series(ground, excited, (0.0, 200.0), IntegratorConfig(dt=0.5))
    for t in (0.5, 10.0, 50.0, 100.0, 200.0):  # P grows to 1.08e7
        oracle = eigen_propagate(spec, h, state, t).norm2() ** 2
        assert closed["P"][closed["time"].tolist().index(t)] == pytest.approx(oracle, rel=2e-14)


def test_convergence_experiment_small_scale(params_small_ratio, h_small_ratio):
    initials = {kind: make_initial_state(kind, params_small_ratio) for kind in ("gaussian", "point")}
    results = run_convergence_experiment(
        initials, h_small_ratio, 200.0, IntegratorConfig(dt=0.02, record_stride=1000),
    )
    assert list(results) == ["gaussian", "point"]
    assert results["gaussian"]["F_g"][-1] > 0.99
    assert results["point"]["F_g"][-1] == pytest.approx(0.5, abs=0.02)
    for series in results.values():
        assert all(0.0 <= f <= 1.0 for f in series["F_g"])
        assert series["time"][-1] == 200.0
