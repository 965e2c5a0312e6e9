import cmath
import dataclasses
import math

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import example, given, settings, strategies as st

from nhchain.model import (ChainParams, Hamiltonian, ModelError, NumericError, SiteState,
                           anti_pt_residual, build_hamiltonian, parity_signs)
from nhchain.quench import PulseSchedule, quenched_hamiltonian
from nhchain.spectral import (
    DENSE_MAX_DIMENSION,
    EigenMode,
    Spectrum,
    _apply,
    _edge_eigenpairs,
    _spectrum,
    _uses_edge_search,
    analytic_energy,
    dirac_overlap,
    lattice_shift,
    numeric_spectrum,
    spectrum_table,
)
import oracles
from oracles import (
    analytic_wavefunction,
    apply_parity,
    biorthogonality_matrix,
    csr_matrix,
    hermite_polynomial,
    mode_scale,
    normalization_constant,
    refined_energy,
)


def hermite_series(m, z):
    """Independent oracle: direct series expansion of H_m."""
    total = 0.0 + 0.0j
    for k in range(m // 2 + 1):
        total += ((-1) ** k / (math.factorial(k) * math.factorial(m - 2 * k))) * (2 * z) ** (
            m - 2 * k
        )
    return math.factorial(m) * total


def test_hermite_base_cases():
    assert hermite_polynomial(0, 2.7 + 1j) == 1.0
    assert hermite_polynomial(1, 0.0) == 0.0
    assert hermite_polynomial(2, 1.0) == 2.0  # 4z^2 - 2


def hermite_recurrence(m, z):
    """Independent oracle: the three-term recurrence H_k+1 = 2z H_k - 2k H_k-1."""
    h_prev, h = np.ones_like(z), 2.0 * z
    if m == 0:
        return h_prev
    for k in range(1, m):
        h, h_prev = 2.0 * z * h - 2.0 * k * h_prev, h
    return h


def test_hermite_against_series_oracle():
    for m in (3, 5, 11):
        z = 0.3 + 0.1j
        assert hermite_polynomial(m, z) == pytest.approx(hermite_series(m, z), rel=1e-12)
    # On the lattice's z = alpha * l, |l| <= 100, for every supported degree:
    # within 2.4e-15 relative of the recurrence (max over entries, measured).
    for V in (2e-4, 0.02, 0.32):
        z = mode_scale(ChainParams(J=1.0, V=V, half_width=1)) * np.arange(-100.0, 101.0)
        for m in range(61):
            got, expected = hermite_polynomial(m, z), hermite_recurrence(m, z)
            zero = expected == 0  # z = 0 at odd m, exact on both routes
            assert np.all(got[zero] == 0)
            assert np.max(np.abs(got - expected)[~zero] / np.abs(expected[~zero])) < 3e-15


def test_hermite_guard():
    with pytest.raises(ModelError):
        hermite_polynomial(61, 0.5)
    with pytest.raises(ModelError):
        hermite_polynomial(-1, 0.5)


def test_mode_scale(params_small_ratio):
    alpha = mode_scale(params_small_ratio)
    assert cmath.phase(alpha) == pytest.approx(-math.pi / 8.0, abs=1e-12)
    assert abs(alpha) == pytest.approx((2e-4) ** 0.25, abs=1e-12)


def test_normalization_constant_closed_form(params_small_ratio):
    p = params_small_ratio
    closed = (p.V / (2.0 * p.J * math.pi**2)) ** 0.125
    assert closed == pytest.approx(0.2375267529243298, rel=1e-12)
    assert normalization_constant(0, p) == pytest.approx(closed, rel=1e-10)


@pytest.mark.parametrize("m", [0, 19, 20, 40, 60])
def test_normalization_constant_matches_adaptive_quadrature(params_small_ratio, m):
    # The integrand |H_m(alpha x)|^2 exp(-Re(alpha^2) x^2) is even; past
    # X = (sqrt(2m + 1) + 12) / sqrt(Re(alpha^2)) it is below e^-144 of its peak.
    alpha = mode_scale(params_small_ratio)
    decay = (alpha * alpha).real
    cutoff = (math.sqrt(2 * m + 1) + 12.0) / math.sqrt(decay)
    half, _ = scipy.integrate.quad(
        lambda x: abs(hermite_polynomial(m, alpha * x)) ** 2 * math.exp(-decay * x * x),
        0.0, cutoff, limit=500, epsabs=0.0, epsrel=1e-13,
    )
    reference = 1.0 / math.sqrt(2.0 * half)
    value = normalization_constant(m, params_small_ratio)
    assert value == pytest.approx(reference, rel=1e-13, abs=0.0)  # the values reach 2.8e-62


def test_normalization_constant_rejects_unsupported_degrees(params_small_ratio):
    for m in (-1, 2.0, 61):
        with pytest.raises(ModelError, match="mode index"):
            normalization_constant(m, params_small_ratio)


def test_analytic_wavefunction_rejects_an_unknown_branch(params_small_ratio):
    with pytest.raises(ModelError, match="branch must be '\\+' or '-', got 'x'"):
        analytic_wavefunction(0, "x", params_small_ratio)


def test_ground_wavefunction_matches_closed_form(params_small_ratio):
    p = params_small_ratio
    psi = analytic_wavefunction(0, "+", p)
    l = p.sites().astype(float)
    n0 = (p.V / (2.0 * p.J * math.pi**2)) ** 0.125
    closed = n0 * np.exp(-p.omega * l * l / (2.0 * p.J)) * np.exp(1j * p.omega * l * l / (2.0 * p.J))
    assert np.abs(psi.amplitudes - closed).max() < 1e-12


def test_minus_branch_is_staggered_conjugate(params_small_ratio):
    plus = analytic_wavefunction(0, "+", params_small_ratio)
    minus = analytic_wavefunction(0, "-", params_small_ratio)
    assert np.abs(apply_parity(plus).amplitudes - np.conj(minus.amplitudes)).max() < 1e-12


def test_odd_mode_vanishes_at_center(params_small_ratio):
    psi = analytic_wavefunction(1, "+", params_small_ratio)
    assert psi.amplitudes[params_small_ratio.half_width] == 0.0


def test_analytic_energies(params_small_ratio):
    p = params_small_ratio
    assert analytic_energy(0, "+", p) == pytest.approx(-1.99 + 0j, abs=1e-14)
    assert analytic_energy(0, "-", p) == pytest.approx(+1.99 + 0j, abs=1e-14)
    assert analytic_energy(1, "+", p) == pytest.approx(-1.97 - 0.02j, abs=1e-14)
    with pytest.raises(ModelError):
        analytic_energy(0, "x", p)


def test_lattice_shift_matches_numeric_ladder():
    # First-order k^4 correction iV(2m^2+2m+1)/16; the remainder is O(V^1.5)
    # with a V-independent coefficient (1.34-1.37 at m = 5, far less below).
    for V in (5e-5, 1e-4, 2e-4, 2e-3):
        h = _chain(V, 100)
        p = h.params
        spec = numeric_spectrum(h, 12)
        assert {(mode.m, mode.branch) for mode in spec.modes} == {
            (m, b) for m in range(6) for b in "+-"
        }
        for mode in spec.modes:
            predicted = analytic_energy(mode.m, mode.branch, p) + lattice_shift(mode.m, p)
            assert abs(mode.energy - predicted) <= 2.0 * V**1.5
    assert lattice_shift(0, ChainParams(J=1.0, V=2e-4)) == pytest.approx(1.25e-5j, rel=1e-15)


def test_numeric_spectrum_contract(h_small_ratio, spectrum12):
    spec = spectrum12
    assert len(spec) >= 12
    scale = 4.0  # rough matrix norm
    for mode in spec.modes:
        assert mode.residual <= 1e-8 * scale
        # H is complex symmetric, so conj(v), the left vector up to scale,
        # satisfies the conjugate-transpose eigenproblem
        u = np.conj(mode.right_vector.amplitudes)
        defect = np.linalg.norm(
            np.conj(csr_matrix(h_small_ratio).toarray()).T @ u - np.conj(mode.energy) * u
        ) / np.linalg.norm(u)
        assert defect <= 1e-8 * scale
        # scaled by 1/conj(v^T v), it is biorthonormal to v
        v = mode.right_vector.amplitudes
        assert abs(np.vdot(u / np.conj(v @ v), v) - 1.0) < 1e-10
        assert abs(mode.right_vector.norm2() - 1.0) <= 1e-10
    # sorted by descending Im, ties by ascending Re
    keys = [(-m.energy.imag, m.energy.real) for m in spec.modes]
    assert keys == sorted(keys)
    # E -> -conj(E) partners both present
    energies = oracles.energies(spec)
    for e in energies:
        if abs(e.real) > 1e-8:
            assert np.min(np.abs(energies - (-np.conj(e)))) < 1e-8


def test_numeric_spectrum_validation(h_small_ratio):
    with pytest.raises(ModelError):
        numeric_spectrum(h_small_ratio, 0)
    with pytest.raises(ModelError):
        numeric_spectrum(h_small_ratio, 1000)


def _chain(V, M):
    return build_hamiltonian(ChainParams(J=1.0, V=V, half_width=M))


def test_residual_gate_rejects_inaccurate_pairs():
    h = _chain(2e-4, 10)
    energies, right = scipy.linalg.eig(csr_matrix(h).toarray())
    assert len(_spectrum(h, 2, energies, right)) == 2
    # residual |H v - E v| = 1e-6 for every pair, far above 1e-8 * max(1, |H|)
    with pytest.raises(NumericError, match="exceeds tolerance"):
        _spectrum(h, 2, energies + 1e-6, right)


def _reference_selection(eigenvalues, count):
    """The selection rule as first written: a key sort, a scan of the kept set, a re-sort.

    Returns the kept indices and whether the unkept modes certify the cut.
    """
    def key(i):
        return (-eigenvalues[i].imag, eigenvalues[i].real)

    order = sorted(range(len(eigenvalues)), key=key)
    selected = list(order[:count])
    selected_set = set(selected)
    for i in list(selected):
        partner = -np.conj(eigenvalues[i])
        if abs(eigenvalues[i].real) <= 1e-8 or any(
                abs(eigenvalues[j] - partner) <= 1e-8 for j in selected_set):
            continue
        spares = [j for j in order[count:count + 4] if abs(eigenvalues[j] - partner) <= 1e-8]
        if spares:
            selected.append(spares[0])
            selected_set.add(spares[0])
    selected.sort(key=key)
    spare_imag = [eigenvalues[i].imag for i in order if i not in selected_set]
    kept_imag = min((eigenvalues[i].imag for i in selected), default=-math.inf)
    return selected, bool(spare_imag) and kept_imag > max(spare_imag)


def _top(eigenvalues, right, size):
    """The first ``size`` eigenpairs in Spectrum order: descending Im E, ties by ascending Re E."""
    order = sorted(range(len(eigenvalues)), key=lambda i: (-eigenvalues[i].imag, eigenvalues[i].real))
    return eigenvalues[order[:size]], right[:, order[:size]]


def _assert_selects_as_reference(h, count, eigenvalues, right):
    selected, certified = _reference_selection(eigenvalues, count)
    if len(eigenvalues) < h.dimension and not certified:
        with pytest.raises(NumericError, match="certify"):
            _spectrum(h, count, eigenvalues, right)
    else:
        spec = _spectrum(h, count, eigenvalues, right)
        assert np.array_equal(oracles.energies(spec), eigenvalues[selected])


# The deep cut of V = 4.65e-4, M = 60 (count 118 leaves a pair open under an
# adjacent-partner rule), a milder chain and two stiff ones whose slowest modes
# include near-degenerate doublets on the imaginary axis.
@pytest.mark.parametrize("V, M", [(4.65e-4, 60), (2e-3, 60), (0.1, 20), (0.32, 30)])
def test_selection_keeps_the_reference_rule(V, M):
    h = _chain(V, M)
    pairs = scipy.linalg.eig(csr_matrix(h).toarray())
    n = h.dimension
    for count in range(1, n + 1):
        _assert_selects_as_reference(h, count, *pairs)
    # partial sets: the top modes, more of them than the count
    for count in [*range(1, 25), *range(n - 8, n - 1)]:
        for top in {count + 1, count + 3, count + 6} & set(range(n)):
            _assert_selects_as_reference(h, count, *_top(*pairs, top))


# Diagonal matrices, so that the columns of the identity are exact eigenvectors:
# a spare whose Im E ties the lowest kept one, and a near-degenerate doublet
# 0.5, 0.5 + 8e-9 whose open partner is the second of two candidates, while
# the first lies within 1e-8 of the second member's partner only.
@pytest.mark.parametrize("energies", [
    [-0.1j, 0.3 - 0.2j, 0.7 - 0.2j, -0.3 - 0.5j, -1j],
    [0.5 - 0.1j, 0.5 + 8e-9 - 0.1j, -0.5 - 1.4e-8 - 0.100000001j, -0.5 - 4e-9 - 0.100000002j,
     -1j, 0.2 - 2j, -0.2 - 2j],
])
def test_selection_keeps_the_reference_rule_at_ties(energies):
    eigenvalues = np.array(energies)
    h = Hamiltonian(diagonal=eigenvalues, off_diagonal=0.0, half_width=len(energies) // 2)
    right = np.eye(h.dimension, dtype=complex)
    for count in range(1, h.dimension + 1):
        for top in range(count, h.dimension + 1):
            _assert_selects_as_reference(h, count, *_top(eigenvalues, right, top))


# V = 2e-4 at M = 30, 100, 400 (M = 100 is fig4's omega/J = 0.01 chain), then
# fig4's omega/J = 0.1 and 0.4 chains.
EDGE_CHAINS = [(2e-4, 30), (2e-4, 100), (2e-4, 400), (0.02, 50), (0.32, 30)]


def test_edge_route_agrees_with_dense():
    for V, M in EDGE_CHAINS:
        h = _chain(V, M)
        h_norm = np.abs(h.diagonal).max() + 2.0
        dense_pairs = scipy.linalg.eig(csr_matrix(h).toarray())
        for count in (2, 12):
            dense = _spectrum(h, count, *dense_pairs)
            if (V, count) == (0.32, 12):
                # Past m = 1 the stiff chain's slowest modes sit on the imaginary
                # axis, off both ladders: the spares refuse to certify the cut.
                with pytest.raises(NumericError, match="certify"):
                    _spectrum(h, count, *_edge_eigenpairs(h, count))
                continue
            sparse = _spectrum(h, count, *_edge_eigenpairs(h, count))
            assert len(sparse) == len(dense)
            for mode in dense.modes:
                # match by nearest energy: the two members of a pair tie in Im E
                twin = min(sparse.modes, key=lambda other: abs(other.energy - mode.energy))
                assert abs(twin.energy - mode.energy) <= 1e-12 * h_norm
                assert (twin.m, twin.branch) == (mode.m, mode.branch)
                assert twin.residual <= 1e-13 * h_norm
                # vectors agree up to phase (odd modes tie at +-l, so pivots
                # differ): <left|twin> = v^T w / v^T v has modulus 1
                v, w = mode.right_vector.amplitudes, twin.right_vector.amplitudes
                assert abs(abs(complex(v @ w) / complex(v @ v)) - 1.0) <= 1e-10


def test_edge_route_is_deterministic_and_needs_spares():
    h = _chain(2e-4, 100)
    first = _edge_eigenpairs(h, 12)
    again = _edge_eigenpairs(h, 12)
    for a, b in zip(first, again):
        assert a.tobytes() == b.tobytes()
    # without its spare modes the cut below the stable pair is not certified
    energies, vectors = _edge_eigenpairs(h, 2)
    keep = np.argsort(-energies.imag)[:2]
    with pytest.raises(NumericError, match="certify"):
        _spectrum(h, 2, energies[keep], vectors[:, keep])


def test_edge_route_maps_arpack_failures(monkeypatch):
    h = _chain(2e-4, 100)
    for failure in (scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], []),
                    scipy.sparse.linalg.ArpackError(-9999)):
        def fail(*args, failure=failure, **kwargs):
            raise failure

        monkeypatch.setattr(scipy.sparse.linalg, "eigs", fail)
        with pytest.raises(NumericError, match="shift-invert search"):
            numeric_spectrum(h, 2)
    monkeypatch.undo()
    # LAPACK's own failures: an exactly singular shifted chain (a zero pivot)
    # and non-finite entries, which are not checked before the solve
    solve_banded = scipy.linalg.solve_banded
    for spoil, message in ((0.0, r"at -1\.99\+1\.25e-05j failed: singular matrix"),
                           (math.nan, "shift-invert search at -1.99")):
        monkeypatch.setattr(scipy.linalg, "solve_banded",
                            lambda l_and_u, ab, b, spoil=spoil, **kwargs:
                            solve_banded(l_and_u, spoil * ab, b, **kwargs))
        with pytest.raises(NumericError, match=message):
            numeric_spectrum(h, 2)


def test_apply_is_the_csr_product():
    rng = np.random.default_rng(3)

    def vectors(n):
        return [rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                for shape in ((n,), (n, 3))]

    # bare chains: each row adds the same three products in the same order
    for M in (1, 100):
        h = _chain(2e-4, M)
        for chain in (h, Hamiltonian(h.diagonal[M:M + 1], h.off_diagonal, 0)):
            for v in vectors(chain.dimension):
                assert _apply(chain, v).tobytes() == (csr_matrix(chain) @ v).tobytes()
    # a complex hopping or a diagonal with a real part: numpy's complex
    # product rounds differently, within a few ulps of the row's magnitudes
    for M in (1, 100):
        h = _chain(2e-4, M)
        diagonal = rng.standard_normal(h.dimension) + 1j * rng.standard_normal(h.dimension)
        for chain in (quenched_hamiltonian(h, PulseSchedule(delta=0.02)),
                      Hamiltonian(diagonal, complex(*rng.standard_normal(2)), M)):
            matrix = csr_matrix(chain)
            for v in vectors(chain.dimension):
                bound = 4 * np.finfo(float).eps * (abs(matrix) @ np.abs(v))
                assert np.all(np.abs(_apply(chain, v) - matrix @ v) <= bound)


def test_spectrum_builds_no_sparse_matrix(monkeypatch):
    calls = []

    def counting(name, original):
        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return counted

    formats = [value for name, value in vars(scipy.sparse).items()
               if name.endswith(("_array", "_matrix")) and isinstance(value, type)]
    assert scipy.sparse.csr_array in formats and scipy.sparse.csc_array in formats
    for cls in formats:
        monkeypatch.setattr(cls, "__init__", counting(cls.__name__, cls.__init__))
    for name in ("splu", "spsolve"):
        monkeypatch.setattr(scipy.sparse.linalg, name,
                            counting(name, getattr(scipy.sparse.linalg, name)))
    h = _chain(2e-4, 100)
    assert _uses_edge_search(h, 2) and not _uses_edge_search(h, 12)
    for count in (2, 12):
        numeric_spectrum(h, count)
    assert calls == []
    # the wrappers see a construction
    csr_matrix(h)
    assert calls


@pytest.mark.parametrize("V, M", [(2e-4, 100), (0.02, 50)])
def test_edge_route_stable_pair_against_a_40_digit_reference(V, M):
    h = _chain(V, M)
    assert _uses_edge_search(h, 2)
    for mode in numeric_spectrum(h, 2).stable_pair():
        assert float(abs(refined_energy(h, mode) - mode.energy)) <= 2e-15


def test_route_rule():
    weak = _chain(2e-4, 100)
    assert _uses_edge_search(weak, 1) and _uses_edge_search(weak, 2)
    assert not _uses_edge_search(weak, 12)  # larger counts that fit stay dense
    assert not _uses_edge_search(weak, weak.dimension)
    assert not _uses_edge_search(_chain(2e-4, 39), 2)  # N = 79 < 4 * 20
    assert _uses_edge_search(_chain(2e-4, 40), 2)
    assert not _uses_edge_search(_chain(0.32, 200), 2)  # stiff: the ladder crosses the band centre
    pulsed = Hamiltonian(weak.diagonal + 0.1 * weak.sites(), weak.off_diagonal, weak.half_width)
    assert not _uses_edge_search(pulsed, 2)
    wide = _chain(2e-4, 5000)  # above the dense cap every small count takes the edge route
    assert _uses_edge_search(wide, 12) and not _uses_edge_search(wide, 400)


def test_edge_route_searches_once_and_mirrors_the_pair_exactly(monkeypatch):
    sigmas = []
    eigs = scipy.sparse.linalg.eigs

    def counted(*args, **kwargs):
        sigmas.append(kwargs["sigma"])
        return eigs(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigs", counted)
    for V, M in ((2e-4, 100), (2e-4, 400), (0.02, 50)):
        h = _chain(V, M)
        assert _uses_edge_search(h, 2)
        sigmas.clear()
        spec = numeric_spectrum(h, 2)
        assert len(sigmas) == 1 and sigmas[0].real < 0  # the '+' edge only
        ground, excited = spec.stable_pair()
        assert spec.modes[0].branch == "+" and spec.modes[0] is ground
        assert excited.energy == -ground.energy.conjugate()
        v = ground.right_vector.amplitudes
        signs = parity_signs(M)
        pivot = int(np.argmax(np.abs(v)))
        assert np.array_equal(excited.right_vector.amplitudes, signs[pivot] * signs * np.conj(v))
        assert excited.residual == ground.residual


def test_a_matrix_that_breaks_the_mirror_takes_the_dense_route():
    weak = _chain(2e-4, 100)
    # a real part on the diagonal shifts both edges the same way: no anti-PT mirror
    skewed = Hamiltonian(weak.diagonal + 1e-3, weak.off_diagonal, weak.half_width, weak.params)
    assert anti_pt_residual(skewed) > 0.0
    assert not _uses_edge_search(skewed, 2)
    spec = numeric_spectrum(skewed, 2)
    dense = _spectrum(skewed, 2, *scipy.linalg.eig(csr_matrix(skewed).toarray()))
    assert len(spec) == len(dense) == 2
    for mode, twin in zip(spec.modes, dense.modes):
        assert mode.energy == twin.energy and mode.residual == twin.residual
        assert np.array_equal(mode.right_vector.amplitudes, twin.right_vector.amplitudes)


def test_dense_route_is_capped_before_allocation():
    wide = _chain(2e-4, 5000)
    assert wide.dimension > DENSE_MAX_DIMENSION
    with pytest.raises(ModelError, match=r"count 10001 .* N = 10001"):
        numeric_spectrum(wide, wide.dimension)
    pulsed = Hamiltonian(wide.diagonal, wide.off_diagonal, wide.half_width)  # no params
    with pytest.raises(ModelError, match=r"count 2 .* N = 10001"):
        numeric_spectrum(pulsed, 2)
    stiff = _chain(0.32, 2001)  # 7 omega >= 2J keeps even the pair dense
    assert stiff.dimension == DENSE_MAX_DIMENSION + 2
    with pytest.raises(ModelError, match=r"count 2 .* N = 4003"):
        numeric_spectrum(stiff, 2)
    spec = numeric_spectrum(wide, 12)  # the edge route serves small counts
    assert {(mode.m, mode.branch) for mode in spec.modes} == {
        (m, b) for m in range(6) for b in "+-"
    }
    assert max(mode.residual for mode in spec.modes) <= 1e-12


def test_leading_pair_and_labels(spectrum12, params_small_ratio):
    ground, excited = spectrum12.stable_pair()
    assert ground.energy.real == pytest.approx(-1.99, abs=0.05 * 0.01)
    assert excited.energy.real == pytest.approx(+1.99, abs=0.05 * 0.01)
    assert (ground.m, ground.branch) == (0, "+")
    assert (excited.m, excited.branch) == (0, "-")
    labels = {(m.m, m.branch) for m in spectrum12.modes}
    assert {(m, b) for m in range(6) for b in "+-"} <= labels


def _nearest_label(params, max_m, energy):
    """Reference: the nearest of all 2 (max_m + 1) closed-form energies, gated at omega/2."""
    ladder = [(m, b, analytic_energy(m, b, params)) for m in range(max_m + 1) for b in "+-"]
    m, branch, e = min(ladder, key=lambda item: abs(item[2] - energy))
    return (m, branch) if abs(e - energy) <= params.omega / 2.0 else (-1, "u")


def test_ladder_labels_match_the_nearest_label_search(
    spectrum12, params_small_ratio, params_large_ratio
):
    full_stiff = numeric_spectrum(build_hamiltonian(params_large_ratio), 61)
    for spec, p in ((spectrum12, params_small_ratio), (full_stiff, params_large_ratio)):
        assert [(mode.m, mode.branch) for mode in spec.modes] == [
            _nearest_label(p, min(60, p.half_width), mode.energy) for mode in spec.modes
        ]
    # the stiff chain's deep modes leave the ladder
    assert {mode.branch for mode in full_stiff.modes} == {"+", "-", "u"}


def test_analytic_numeric_energy_agreement(spectrum12, params_small_ratio):
    p = params_small_ratio
    for mode in spectrum12.modes:
        if 0 <= mode.m <= 3:
            assert abs(mode.energy - analytic_energy(mode.m, mode.branch, p)) <= 0.05 * p.omega


def test_imaginary_parts_semi_negative_after_shift(spectrum12, params_small_ratio):
    for mode in spectrum12.modes:
        assert mode.energy.imag <= params_small_ratio.omega + 1e-7


def test_biorthogonality_matrix(spectrum12):
    mat = biorthogonality_matrix(spectrum12)
    vectors = [mode.right_vector.amplitudes for mode in spectrum12.modes]
    reference = [[abs(complex(a @ b)) / abs(complex(a @ a)) for b in vectors] for a in vectors]
    assert np.allclose(mat, reference, rtol=0.0, atol=1e-13)  # summation order
    assert np.abs(np.diag(mat) - 1.0).max() < 1e-10
    off = mat - np.diag(np.diag(mat))
    assert off.max() < 1e-8


# Chains in the paper's regime, omega/J = sqrt(V/(2J)) <= 0.4, at sizes on
# both sides of the band-edge route's N >= 80.
chains = st.builds(
    lambda J, ratio, M: (J, 2.0 * J * ratio**2, M),
    J=st.floats(0.5, 2.0), ratio=st.floats(0.01, 0.4), M=st.integers(4, 150),
)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(chain=chains, count=st.integers(1, 12))
@example(chain=(1.0, 2e-4, 100), count=2)
@example(chain=(0.7, 0.02, 60), count=1)
def test_numeric_spectrum_pairs_and_biorthonormal(chain, count):
    J, V, M = chain
    h = build_hamiltonian(ChainParams(J=J, V=V, half_width=M))
    spec = numeric_spectrum(h, min(count, h.dimension))
    energies = oracles.energies(spec)
    # in Spectrum order on either route: descending Im E, ties by ascending Re E
    keys = [(-e.imag, e.real) for e in energies]
    assert keys == sorted(keys)
    # E -> -conj(E): the selection is closed under the anti-PT pairing
    for e in energies:
        if abs(e.real) > 1e-8:
            assert np.min(np.abs(energies + np.conj(e))) <= 1e-8
    # biorthonormal to the eigensolve's residual tolerance, 1e-8 * ||H||
    h_norm = np.abs(h.diagonal).max() + 2.0 * J
    assert np.abs(biorthogonality_matrix(spec) - np.eye(len(spec))).max() <= 1e-8 * h_norm


def test_biorthogonality_single_mode(spectrum12):
    single = Spectrum(modes=(spectrum12.modes[0],))
    mat = biorthogonality_matrix(single)
    assert mat.shape == (1, 1)
    assert mat[0, 0] == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ModelError, match="fewer than two"):
        single.stable_pair()


def test_self_orthogonal_rows_stay_undivided(h_small_ratio):
    # Deep in the full M = 100 spectrum some right vectors have |v^T v| < 1e-10,
    # so no scaling of conj(v) gives <left|right> = 1; their rows of the
    # biorthogonality matrix are |v_a^T v_b|, undivided.
    spec = numeric_spectrum(h_small_ratio, h_small_ratio.dimension)
    mat = biorthogonality_matrix(spec)
    vectors = [mode.right_vector.amplitudes for mode in spec.modes]
    taken = [a for a, v in enumerate(vectors) if abs(complex(v @ v)) < 1e-10]
    assert taken
    for a in taken:
        assert (spec.modes[a].m, spec.modes[a].branch) == (-1, "u")
        reference = [abs(complex(vectors[a] @ w)) for w in vectors]
        assert np.allclose(mat[a], reference, rtol=0.0, atol=1e-13)


def test_a_mode_stores_only_its_right_vector():
    # the left vector is conj(v) / conj(v^T v), derived where it is needed
    fields = [field.name for field in dataclasses.fields(EigenMode)]
    assert fields == ["m", "branch", "energy", "right_vector", "residual"]


def test_dirac_overlap_basics(stable_modes):
    ground, excited = stable_modes
    assert dirac_overlap(ground.right_vector, ground.right_vector).real == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ModelError):
        dirac_overlap(ground.right_vector, SiteState(np.ones(3, dtype=complex), 1))


def test_stable_modes_dirac_orthogonal_small_ratio(stable_modes, params_small_ratio):
    ground, excited = stable_modes
    assert abs(dirac_overlap(excited.right_vector, ground.right_vector)) < 1e-12
    # same statement from the closed forms (alternating Gaussian sum)
    g = analytic_wavefunction(0, "+", params_small_ratio).normalized()
    e = analytic_wavefunction(0, "-", params_small_ratio).normalized()
    assert abs(dirac_overlap(e, g)) < 1e-12


def test_orthogonality_breaks_at_large_ratio(params_large_ratio):
    g = analytic_wavefunction(0, "+", params_large_ratio).normalized()
    e = analytic_wavefunction(0, "-", params_large_ratio).normalized()
    assert abs(dirac_overlap(e, g)) > 1e-3
    spec = numeric_spectrum(build_hamiltonian(params_large_ratio), 2)
    ground, excited = spec.stable_pair()
    assert abs(dirac_overlap(excited.right_vector, ground.right_vector)) > 1e-3


def test_ansatz_degrades_at_large_ratio(params_large_ratio):
    p = params_large_ratio
    h = build_hamiltonian(p)
    psi = analytic_wavefunction(1, "+", p)
    residual = np.linalg.norm(csr_matrix(h) @ psi.amplitudes
                              - analytic_energy(1, "+", p) * psi.amplitudes)
    residual /= np.linalg.norm(psi.amplitudes)
    assert residual > 1e-2  # ansatz no longer an eigenvector
    spec = numeric_spectrum(h, 4)
    deviations = [
        abs(m.energy - analytic_energy(m.m, m.branch, p)) / abs(m.energy)
        for m in spec.modes
        if m.branch in "+-"
    ]
    assert max(deviations) > 0.01


def test_stable_pair_imag_tol(spectrum12, stable_modes):
    # On the lattice the pair sits off the real axis by |Im E| = 1.251e-5.
    ground, excited = spectrum12.stable_pair()
    assert ground is stable_modes[0] and excited is stable_modes[1]
    for mode in (ground, excited):
        assert 1e-6 < abs(mode.energy.imag) <= 1e-4


def test_spectrum_table_format(spectrum12):
    table = spectrum_table(spectrum12)
    lines = table.strip().split("\n")
    assert lines[0].split(",") == ["m", "branch", "re_energy", "im_energy", "residual"]
    assert len(lines) == len(spectrum12) + 1
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] in "+-"
