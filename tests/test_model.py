import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nhchain.model import (
    ChainParams,
    Hamiltonian,
    ModelError,
    SiteState,
    anti_pt_residual,
    apply_parity,
    build_hamiltonian,
    parity_signs,
)


def test_omega_derived_exactly():
    p = ChainParams(J=1.0, V=2e-4, half_width=100)
    assert p.omega == math.sqrt(1.0 * 2e-4 / 2.0)
    assert p.omega == 0.01
    assert p.dimension == 201


@pytest.mark.parametrize("kwargs", [
    {"J": 0.0, "V": 1.0},
    {"J": -1.0, "V": 1.0},
    {"J": 1.0, "V": 0.0},
    {"J": 1.0, "V": -2.0},
    {"J": float("nan"), "V": 1.0},
    {"J": 1.0, "V": float("inf")},
])
def test_invalid_physical_params_rejected(kwargs):
    with pytest.raises(ModelError):
        ChainParams(half_width=10, **kwargs)


def test_invalid_half_width_rejected():
    with pytest.raises(ModelError):
        ChainParams(J=1.0, V=1.0, half_width=0)
    with pytest.raises(ModelError):
        ChainParams(J=1.0, V=1e308, half_width=10)
    for huge in (10**200, 10**400):  # float(M)**2 overflows; M itself does not fit a float
        with pytest.raises(ModelError, match="overflows"):
            ChainParams(J=1.0, V=2e-4, half_width=huge)


def test_tail_violation_warns_but_does_not_fail():
    with pytest.warns(UserWarning, match="tail") as caught:
        p = ChainParams(J=1.0, V=2e-4, half_width=20)
    assert p.omega == 0.01
    assert caught[0].filename == __file__  # the caller's line, not the dataclass __init__


def test_build_hamiltonian_m1_entries():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = ChainParams(J=1.0, V=2e-4, half_width=1)
    h = build_hamiltonian(p)
    assert h.off_diagonal == -1.0
    expected = np.array([1j * (0.01 - 2e-4), 1j * 0.01, 1j * (0.01 - 2e-4)])
    assert np.array_equal(h.diagonal, expected)


def test_center_site_entry_is_exactly_i_omega():
    for M in (1, 5, 100):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            p = ChainParams(J=1.0, V=2e-4, half_width=M)
        h = build_hamiltonian(p)
        assert h.diagonal[M] == 1j * 0.01


def test_edge_entry_large_ratio():
    p = ChainParams(J=1.0, V=0.32, half_width=50)
    h = build_hamiltonian(p)
    assert h.diagonal[-1] == 1j * (0.4 - 800.0)
    assert h.diagonal[-1] == -799.6j


def test_matrix_structure(h_small_ratio):
    dense = h_small_ratio.to_dense()
    assert np.array_equal(dense, dense.T)  # complex symmetric, not Hermitian
    assert np.all(np.diag(dense).real == 0.0)
    assert np.all(np.diag(dense, 1) == -1.0)
    imag = np.diag(dense).imag
    assert imag.max() == 0.01
    assert np.argmax(imag) == h_small_ratio.half_width
    assert np.count_nonzero(imag == 0.01) == 1


def test_build_is_pure(params_small_ratio):
    a = build_hamiltonian(params_small_ratio)
    b = build_hamiltonian(params_small_ratio)
    assert np.array_equal(a.diagonal, b.diagonal)
    assert a.off_diagonal == b.off_diagonal
    assert a.params is params_small_ratio


def test_apply_parity_alternates_signs():
    state = SiteState(np.ones(3, dtype=complex), 1)
    out = apply_parity(state)
    assert np.array_equal(out.amplitudes, np.array([-1.0, 1.0, -1.0], dtype=complex))


def test_apply_parity_involution_bit_exact():
    rng = np.random.default_rng(7)
    amps = rng.normal(size=21) + 1j * rng.normal(size=21)
    state = SiteState(amps, 10)
    twice = apply_parity(apply_parity(state))
    assert np.array_equal(twice.amplitudes, state.amplitudes)
    assert apply_parity(state).raw_norm2() == state.raw_norm2()


@settings(max_examples=25, deadline=None, derandomize=True)
@given(J=st.floats(1e-3, 1e3), V=st.floats(1e-6, 1e2), M=st.integers(1, 120))
@example(J=1.0, V=2e-4, M=100)
@example(J=0.7, V=0.32, M=30)
@example(J=2.5, V=1e-3, M=60)
@example(J=1.0, V=5.0, M=8)
def test_anti_pt_residual_exactly_zero_for_bare_chain(J, V, M):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = ChainParams(J=J, V=V, half_width=M)
    assert anti_pt_residual(build_hamiltonian(p)) == 0.0


def test_anti_pt_residual_real_diagonal_defect(h_small_ratio):
    eps = 0.37
    diag = h_small_ratio.diagonal.copy()
    diag[h_small_ratio.half_width] += eps
    perturbed = Hamiltonian(diag, h_small_ratio.off_diagonal, h_small_ratio.half_width)
    assert anti_pt_residual(perturbed) == pytest.approx(2.0 * eps, abs=0.0)


def test_anti_pt_residual_linear_field(h_small_ratio):
    mu = 3.0
    M = h_small_ratio.half_width
    diag = h_small_ratio.diagonal + mu * h_small_ratio.sites()
    tilted = Hamiltonian(diag, h_small_ratio.off_diagonal, M)
    assert anti_pt_residual(tilted) == 2.0 * mu * M


def test_parity_signs_center_positive():
    signs = parity_signs(3)
    assert np.array_equal(signs, [-1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0])


def test_site_state_validation_and_norm():
    with pytest.raises(ModelError):
        SiteState(np.ones(4, dtype=complex), 2)  # needs length 5
    state = SiteState(np.full(5, 1.0 + 0.0j), 2)
    assert state.norm2() == pytest.approx(5.0)
    n = state.normalized()
    assert n.is_normalized()
    with pytest.raises(ModelError):
        SiteState(np.zeros(5, dtype=complex), 2).normalized()


def test_site_state_amplitudes_immutable(h_small_ratio):
    state = SiteState(np.ones(5, dtype=complex), 2)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 2.0
    with pytest.raises(ValueError):
        h_small_ratio.diagonal[0] = 0.0
