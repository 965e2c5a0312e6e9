import ast
import importlib
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import example, given, settings, strategies as st

import nhchain
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
from nhchain.quench import PulseSchedule, quenched_hamiltonian


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


@pytest.mark.parametrize("J, V", [(1e200, 1e200), (1e-200, 1e-200), (1.0, 5e-324)])
def test_product_outside_the_floating_range_rejected(J, V):
    # each value is finite and positive, but omega = sqrt(J * V / 2) is inf or
    # 0: J * V = 5e-324 is positive, and J * V / 2 rounds to 0
    with pytest.raises(ModelError, match=r"J \* V"):
        ChainParams(J=J, V=V, half_width=1)


def test_tail_violation_is_reported_not_warned():
    # the envelope reaches exp(-2) = 0.135 at the ends; the CLI warns of it
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # neither the parameters nor the build warn
        p = ChainParams(J=1.0, V=2e-4, half_width=20)
        h = build_hamiltonian(p)
    assert p.envelope_tail == math.exp(-2.0)
    assert h.params.omega == 0.01


def test_build_hamiltonian_m1_entries():
    p = ChainParams(J=1.0, V=2e-4, half_width=1)
    h = build_hamiltonian(p)
    assert h.off_diagonal == -1.0
    expected = np.array([1j * (0.01 - 2e-4), 1j * 0.01, 1j * (0.01 - 2e-4)])
    assert np.array_equal(h.diagonal, expected)


def test_center_site_entry_is_exactly_i_omega():
    for M in (1, 5, 100):
        h = build_hamiltonian(ChainParams(J=1.0, V=2e-4, half_width=M))
        assert h.diagonal[M] == 1j * 0.01


def test_edge_entry_large_ratio():
    p = ChainParams(J=1.0, V=0.32, half_width=50)
    h = build_hamiltonian(p)
    assert h.diagonal[-1] == 1j * (0.4 - 800.0)
    assert h.diagonal[-1] == -799.6j


def test_matrix_structure(h_small_ratio):
    dense = h_small_ratio.matrix.toarray()
    assert np.array_equal(dense, dense.T)  # complex symmetric, not Hermitian
    assert np.all(np.diag(dense).real == 0.0)
    assert np.all(np.diag(dense, 1) == -1.0)
    imag = np.diag(dense).imag
    assert imag.max() == 0.01
    assert np.argmax(imag) == h_small_ratio.half_width
    assert np.count_nonzero(imag == 0.01) == 1


def test_diagonal_length_must_match_half_width():
    with pytest.raises(ModelError, match=r"diagonal length \(4,\) does not match half_width 2"):
        Hamiltonian(np.ones(4, dtype=complex), -1.0, 2)


@pytest.mark.parametrize("V, M", [(2e-4, 100), (0.32, 30), (1.5625e-4, 800), (1e-3, 60), (5.0, 8),
                                  (2e-3, 1)])
def test_norm_equals_scipy_on_bare_and_pulsed_chains(V, M):
    h = build_hamiltonian(ChainParams(J=1.0, V=V, half_width=M))
    for matrix in (h, quenched_hamiltonian(h, PulseSchedule(delta=0.02))):
        assert matrix.norm == scipy.sparse.linalg.norm(matrix.matrix, np.inf)


def test_norm_is_the_largest_absolute_row_sum():
    rng = np.random.default_rng(5)
    for M in (0, 1, 2, 7):
        diagonal = rng.normal(size=2 * M + 1) + 1j * rng.normal(size=2 * M + 1)
        h = Hamiltonian(diagonal, complex(rng.normal(), rng.normal()), M)
        reference = scipy.sparse.linalg.norm(h.matrix, np.inf)
        assert abs(h.norm - reference) <= 2 * math.ulp(reference)  # |o| by another abs
    assert Hamiltonian(np.array([0.6 + 0.8j]), -5.0, 0).norm == 1.0  # N = 1: no off-diagonal
    assert Hamiltonian(np.array([3j, 0.0, -1.0]), 0.5, 1).norm == 3.5  # an end row


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
    h = build_hamiltonian(ChainParams(J=J, V=V, half_width=M))
    assert anti_pt_residual(h) == 0.0


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


def _dense_anti_pt_residual(h):
    """Reference: the max-entry magnitude of PT H (PT)^-1 + H, built densely."""
    dense = h.matrix.toarray()
    signs = parity_signs(h.half_width)
    transformed = signs[:, None] * np.conj(dense) * signs[None, :]
    return float(np.abs(transformed + dense).max())


def test_anti_pt_residual_equals_the_dense_similarity(h_small_ratio):
    matrices = []
    for J, V, M in ((1.0, 2e-4, 100), (0.7, 0.32, 30), (2.5, 1e-3, 60), (1.0, 5.0, 8)):
        matrices.append(build_hamiltonian(ChainParams(J=J, V=V, half_width=M)))
    defect = h_small_ratio.diagonal.copy()
    defect[h_small_ratio.half_width] += 0.37
    matrices += [
        Hamiltonian(defect, h_small_ratio.off_diagonal, h_small_ratio.half_width),
        quenched_hamiltonian(h_small_ratio, PulseSchedule(delta=0.02)),
        Hamiltonian(h_small_ratio.diagonal, -1.0 + 0.25j, h_small_ratio.half_width),
        Hamiltonian(np.array([0.5 + 2.0j]), -1.0 + 3.0j, 0),  # N = 1: no off-diagonal
    ]
    for h in matrices:
        assert anti_pt_residual(h) == _dense_anti_pt_residual(h)
    assert anti_pt_residual(matrices[4]) == 2 * 0.37  # 2 |Re d| at the defect
    assert anti_pt_residual(matrices[6]) == 0.5  # 2 |Im o|
    assert anti_pt_residual(matrices[7]) == 1.0  # 2 |Re d| alone


def test_parity_signs_center_positive():
    signs = parity_signs(3)
    assert np.array_equal(signs, [-1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0])


def test_site_state_validation_and_norm():
    with pytest.raises(ModelError):
        SiteState(np.ones(4, dtype=complex), 2)  # needs length 5
    state = SiteState(np.full(5, 1.0 + 0.0j), 2)
    assert state.norm2() == pytest.approx(5.0)
    n = state.normalized()
    assert abs(n.norm2() - 1.0) <= 1e-12
    with pytest.raises(ModelError):
        SiteState(np.zeros(5, dtype=complex), 2).normalized()


def test_site_state_amplitudes_immutable(h_small_ratio):
    state = SiteState(np.ones(5, dtype=complex), 2)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 2.0
    with pytest.raises(ValueError):
        h_small_ratio.diagonal[0] = 0.0


def test_src_defines_and_raises_only_the_two_error_types():
    # ModelError is bad input (CLI exit 1), NumericError a numeric failure (exit 2)
    defined, raised = {}, set()
    for path in sorted(Path(nhchain.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                getattr(base, "id", "").endswith(("Error", "Exception")) for base in node.bases
            ):
                defined[node.name] = path.name
            elif isinstance(node, ast.Raise):
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(ast.unparse(exc) if exc else "")  # "" for a bare re-raise
    assert defined == {"ModelError": "model.py", "NumericError": "model.py"}
    assert raised == {"ModelError", "NumericError"}


def _src_calls(name):
    """The src files that call a function whose dotted name contains ``name``."""
    callers = set()
    for path in sorted(Path(nhchain.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and name in ast.unparse(node.func):
                callers.add(path.name)
    return callers


def test_only_the_cli_builds_chains():
    # library functions take a built Hamiltonian, so a chain is built once per run
    assert _src_calls("build_hamiltonian") == {"cli.py"}


def test_only_the_cli_warns():
    # the library hands over facts (ChainParams.envelope_tail,
    # PulseSchedule.hardness_ratio) and the run judges them
    assert _src_calls("warn") == {"cli.py"}


def test_each_public_name_lives_in_its_module_only():
    # every module's __all__ is the one list of its public names: each name
    # resolves there, and the package root re-exports none of them
    names = set()
    for path in sorted(Path(nhchain.__file__).parent.glob("*.py")):
        if path.stem != "__init__":
            module = importlib.import_module(f"nhchain.{path.stem}")
            assert module.__all__ and all(hasattr(module, name) for name in module.__all__)
            names.update(module.__all__)
    assert "propagate" in names and "ModelError" in names
    assert not names & set(vars(nhchain))
