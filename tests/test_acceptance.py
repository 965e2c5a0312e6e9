"""End-to-end acceptance checks, one test per advertised guarantee.

Each test prints a single ``criterion N: PASS/FAIL`` line (run with ``-s``
to see them) and then asserts, so a red test is also a printed FAIL.
"""

import math

import numpy as np
import pytest
from scipy.linalg import eigvals

from nhchain.model import ChainParams, SiteState, anti_pt_residual, build_hamiltonian
from nhchain.spectral import (
    analytic_wavefunction,
    dirac_overlap,
    numeric_spectrum,
)
from nhchain.dynamics import (
    DEFAULT_SEED,
    IntegratorConfig,
    ObservableSeries,
    default_dt,
    eigen_propagate,
    make_initial_state,
    propagate,
    run_convergence_experiment,
)
from nhchain.quench import PulseSchedule, run_switch_experiment
from nhchain.cli import run_preset


def _chain(**kw):
    return build_hamiltonian(ChainParams(**kw))


def _report(number: int, label: str, ok: bool, detail: str) -> bool:
    print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


def test_criterion_1_symmetry_and_pairing():
    sweep = [
        _chain(J=J, V=V, half_width=M)
        for J in (0.5, 1.0, 2.0, 7.3)
        for V, M in ((2e-4, 100), (0.02, 50), (0.32, 30), (1e-3, 75), (0.1, 20))
    ]
    assert len(sweep) == 20
    residuals = [anti_pt_residual(h) for h in sweep]

    def mirror_distance(energies):
        target = -np.conj(energies)
        return max(np.abs(target - e).min() for e in energies)

    pair_dists = []
    for V, M in ((0.02, 50), (0.32, 30)):
        h = _chain(J=1.0, V=V, half_width=M)
        pair_dists.append(mirror_distance(eigvals(h.matrix.toarray())))
    slow = numeric_spectrum(build_hamiltonian(ChainParams(J=1.0, V=2e-4)), 12)
    pair_dists.append(mirror_distance(np.array([m.energy for m in slow.modes])))

    ok = all(r == 0.0 for r in residuals) and max(pair_dists) < 1e-8
    assert _report(
        1, "symmetry exactness", ok,
        f"max residual {max(residuals):g} over 20 parameter sets, "
        f"worst mirror-pair distance {max(pair_dists):.3g}",
    )


def test_criterion_2_spectral_ladder():
    params = ChainParams(J=1.0, V=2e-4)
    omega = params.omega
    spec = numeric_spectrum(build_hamiltonian(params), 12)

    worst_re = 0.0
    spacing_ok = True
    by_branch: dict[str, dict[int, complex]] = {"+": {}, "-": {}}
    for mode in spec.modes:
        sign = 1.0 if mode.branch == "+" else -1.0
        expected = sign * ((2 * mode.m + 1) * omega - 2.0) - 2j * mode.m * omega
        worst_re = max(worst_re, abs(mode.energy.real - expected.real))
        by_branch[mode.branch][mode.m] = mode.energy
    for branch in ("+", "-"):
        ladder = by_branch[branch]
        for m in range(5):
            gap = ladder[m].imag - ladder[m + 1].imag
            spacing_ok = spacing_ok and abs(gap - 2 * omega) <= 0.1 * omega

    leading = sorted(spec.modes, key=lambda mo: -mo.energy.imag)[:2]
    re_vals = sorted(mo.energy.real for mo in leading)
    leading_re_ok = (abs(re_vals[0] + 1.99) < 0.05 * omega
                     and abs(re_vals[1] - 1.99) < 0.05 * omega)
    leading_im = max(abs(mo.energy.imag) for mo in leading)

    ok = worst_re <= 0.05 * omega and spacing_ok and leading_re_ok and leading_im < 1e-6
    assert _report(
        2, "spectral ladder", ok,
        f"worst Re error {worst_re:.3g} (limit {0.05 * omega:.3g}), "
        f"spacing ok {spacing_ok}, leading Re = ∓1.99 {leading_re_ok}, "
        f"leading |Im E| {leading_im:.4g} (limit 1e-06)",
    )


def test_criterion_3_dirac_orthogonality():
    params = ChainParams(J=1.0, V=2e-4)
    ground, excited = numeric_spectrum(build_hamiltonian(params), 2).stable_pair()
    numeric = abs(dirac_overlap(excited.right_vector, ground.right_vector))
    analytic = abs(
        dirac_overlap(analytic_wavefunction(0, "-", params),
                      analytic_wavefunction(0, "+", params))
    )
    ok = numeric < 1e-10 and analytic < 1e-12
    assert _report(
        3, "Dirac orthogonality", ok,
        f"numeric |<e|g>| {numeric:.3g} (limit 1e-10), "
        f"analytic alternating sum {analytic:.3g} (limit 1e-12)",
    )


def test_criterion_4_convergence_dynamics():
    params = ChainParams(J=1.0, V=2e-4)
    initials = {kind: make_initial_state(kind, params, seed=DEFAULT_SEED)
                for kind in ("gaussian", "tophat", "random", "point")}
    results = run_convergence_experiment(
        initials, build_hamiltonian(params), 600.0, IntegratorConfig(dt=0.02, record_stride=3000),
    )
    finals = {kind: series["F_g"][-1] for kind, series in results.items()}
    smooth_ok = all(finals[k] > 0.99 for k in ("gaussian", "tophat", "random"))
    point_ok = abs(finals["point"] - 0.5) <= 0.02
    ok = smooth_ok and point_ok
    assert _report(
        4, "convergence dynamics", ok,
        "final F_g " + ", ".join(f"{k}={v:.5f}" for k, v in finals.items()),
    )


def test_criterion_5_probability_conservation():
    deviations = []
    for V, M in ((2e-4, 100), (0.02, 50), (0.32, 30)):
        h = _chain(J=1.0, V=V, half_width=M)
        ground, excited = numeric_spectrum(h, 2).stable_pair()
        amps = (ground.right_vector.amplitudes + excited.right_vector.amplitudes)
        state = SiteState(amps, h.half_width).normalized()
        series = ObservableSeries()
        propagate(h, [state], (0.0, 200.0),
                  IntegratorConfig(dt=default_dt(h.params), record_stride=10),
                  series=[series])
        deviations.append(max(abs(p - 1.0) for p in series["P"]))
    small_ok = deviations[0] < 0.01
    monotone_ok = deviations[0] < deviations[1] < deviations[2]
    ok = small_ok and monotone_ok
    assert _report(
        5, "probability conservation", ok,
        f"max|P-1| = {deviations[0]:.6f} at omega/J=0.01 (limit 0.01), "
        f"sweep {[f'{d:.4g}' for d in deviations]} monotone {monotone_ok}",
    )


def test_criterion_6_pulse_switch():
    params = ChainParams(J=1.0, V=2e-4)
    plan = (build_hamiltonian(params), PulseSchedule(delta=0.02), 600.0,
            IntegratorConfig(dt=default_dt(params)))
    forward = run_switch_experiment(*plan, initial="g")
    backward = run_switch_experiment(*plan, initial="e")
    oracle = run_switch_experiment(*plan, initial="g", use_impulse=True)
    fe, fg = forward["F_e"][-1], forward["F_g"][-1]
    swap_gap = max(
        abs(backward["F_g"][-1] - fe),
        abs(backward["F_e"][-1] - fg),
    )
    oracle_gap = abs(oracle["F_e"][-1] - fe)
    ok = fe > 0.99 and fg < 0.01 and swap_gap < 0.01 and oracle_gap < 0.01
    assert _report(
        6, "pi-pulse switch", ok,
        f"F_e(end) {fe:.6f}, F_g(end) {fg:.3g}, role swap gap {swap_gap:.3g}, "
        f"impulse-oracle gap {oracle_gap:.3g}",
    )


def test_criterion_7_integrator_oracle():
    h = _chain(J=1.0, V=2e-4, half_width=10)
    spec = numeric_spectrum(h, h.dimension)
    state = make_initial_state("gaussian", h.params, width=3.0)
    oracle = eigen_propagate(spec, h, state, 100.0)

    def error(dt):
        [out] = propagate(h, [state], (0.0, 100.0), IntegratorConfig(dt=dt))
        return np.abs(out.amplitudes - oracle.amplitudes).max()

    fine = error(0.004)
    ratio = error(0.05) / error(0.025)
    ok = fine <= 1e-8 and 13.0 <= ratio <= 19.0
    assert _report(
        7, "integrator oracle", ok,
        f"max amplitude error {fine:.3g} at dt=0.004 (limit 1e-08), "
        f"halving ratio {ratio:.2f} (16 ± 3)",
    )


def test_criterion_8_decay_rate():
    params = ChainParams(J=1.0, V=2e-4)
    h = build_hamiltonian(params)
    spec = numeric_spectrum(h, 12)
    mode = next(m for m in spec.modes if (m.m, m.branch) == (1, "+"))
    t = 1.0 / (2.0 * params.omega)
    [out] = propagate(h, [mode.right_vector], (0.0, t), IntegratorConfig(dt=0.02))
    ratio = out.norm2() / math.exp(-2.0)
    ok = abs(ratio - 1.0) <= 0.01
    assert _report(
        8, "decay rate", ok,
        f"norm² after t=1/(2·omega) is {ratio:.5f} × e⁻² (limit 1%)",
    )


def test_criterion_9_reproducibility(tmp_path):
    mismatches = []
    for preset in ("fig2", "fig5"):
        first = run_preset(preset, tmp_path / preset / "a")
        second = run_preset(preset, tmp_path / preset / "b")
        for p1, p2 in zip(sorted(first), sorted(second)):
            if p1.suffix == ".csv" and p1.read_bytes() != p2.read_bytes():
                mismatches.append(p1.name)
    ok = not mismatches
    assert _report(
        9, "reproducibility", ok,
        "all preset CSVs byte-identical across reruns" if ok
        else f"differing files: {mismatches}",
    )
