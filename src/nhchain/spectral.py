"""Eigenmodes of the dissipative chain.

The anti-PT symmetry of the bare chain maps each '+' mode (E, v) to a '-'
mode (-conj(E), (-1)**l conj(v)).  The modes are numerical eigenpairs of the
truncated tridiagonal matrix: shift-invert Arnoldi (ARPACK) at the '+' band
edge, mirrored to the '-' edge, for the stable pair of a bare chain, dense
diagonalization of all N modes otherwise (``numeric_spectrum`` states the
rule).  Numeric modes get ladder labels (m, branch) from the closed-form
energies, valid for V << J, of the chain the matrix carries
(``Hamiltonian.params``),
  E_m^+ = (2m+1)*omega - 2J - 2i*m*omega,  E_m^- = 2J - (2m+1)*omega - 2i*m*omega,
whose first-order lattice correction is i*V*(2m^2+2m+1)/16 (``lattice_shift``);
a matrix without one, such as a pulsed chain, gets none.  The closed-form
Hermite-Gaussian modes and the biorthogonality matrix, which no run reads,
are test oracles (``tests/oracles.py``).

A mode stores its Dirac-normalized right vector v, so it can be used
directly as a fidelity target.  Because the matrix is complex symmetric,
its left vector is conj(v) / conj(v^T v), with v^T v the c-product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .model import (ChainParams, Hamiltonian, ModelError, NumericError, SiteState,
                    anti_pt_residual, parity_signs)

__all__ = [
    "EigenMode",
    "Spectrum",
    "analytic_energy",
    "lattice_shift",
    "numeric_spectrum",
    "dirac_overlap",
    "spectrum_table",
]

# Labels stop at m = min(60, M), the degree cap of the closed-form modes in
# tests/oracles.py; kept at 60, so spectrum.csv keeps its bytes.
HERMITE_MAX_DEGREE = 60
# Modes the band-edge search returns beyond half of ``count``; they and their
# mirrors certify the cut (every kept Im E must lie above every spare's).
EDGE_SPARES = 3
# Dense diagonalization of all N modes needs about 47*N**2 bytes and O(N**3)
# time: measured on a 2-core host, N = 2001 took 5.4 s and +191 MB of peak
# RSS, N = 4001 52 s and +748 MB.
DENSE_MAX_DIMENSION = 4001
# Eigenpair residual bound, relative to the matrix scale max(1, ||H||_inf); also
# the |Re E| within which a mode counts as lying on the imaginary axis.
TOL = 1e-8


def analytic_energy(m: int, branch: str, params: ChainParams) -> complex:
    """Closed-form energy of mode (m, branch); the '-' energy is -conj of the '+' one."""
    if branch not in ("+", "-"):
        raise ModelError(f"branch must be '+' or '-', got {branch!r}")
    energy = (2 * m + 1) * params.omega - 2.0 * params.J - 2j * m * params.omega
    return energy if branch == "+" else -energy.conjugate()


def lattice_shift(m: int, params: ChainParams) -> complex:
    """First-order lattice correction to the closed-form energy of mode m.

    The continuum ladder drops the -J k^4/12 term of the band dispersion;
    first-order perturbation theory in it gives
    Delta E_m = -(J/12) <p^4> = i V (2m^2 + 2m + 1) / 16 on both branches.
    The remainder is O(V^(3/2)).
    """
    return 1j * params.V * (2 * m * m + 2 * m + 1) / 16.0


@dataclass(frozen=True)
class EigenMode:
    """One spectral solution: energy and Dirac-normalized right vector.

    ``m``/``branch`` are ladder labels: the nearer closed-form energy at
    m = round(-Im E / 2 omega), m in 0..min(60, M); (-1, 'u') (unassigned)
    when it is not within omega/2.
    """

    m: int
    branch: str
    energy: complex
    right_vector: SiteState
    residual: float


@dataclass(frozen=True)
class Spectrum:
    """Modes sorted by descending Im(E), ties by ascending Re(E)."""

    modes: tuple

    def __len__(self) -> int:
        return len(self.modes)

    def stable_pair(self) -> tuple[EigenMode, EigenMode]:
        """The two slowest-decaying modes (ground, excited).

        Ground is the one with negative real energy (-(2J - omega)),
        excited the positive one.  On the lattice their energies are real
        only up to a small V-dependent correction (Im E = V/16 + O(V^(3/2))).
        """
        leading = self.modes[:2]
        if len(leading) < 2:
            raise ModelError("spectrum holds fewer than two modes")
        ground, excited = sorted(leading, key=lambda mode: mode.energy.real)
        return ground, excited


def _uses_edge_search(h: Hamiltonian, count: int) -> bool:
    """Whether ``numeric_spectrum`` takes the band-edge shift-invert route.

    It needs a bare chain with the exact anti-PT symmetry its mirror relies
    on, ARPACK's basis of max(2k+1, 20) vectors to fit in N/4 (k modes in
    the search) and the closed-form '+' ladder of those k modes to stay on
    its side of the band centre, (2k - 1) omega < 2J; past that a stiff
    chain's slowest modes leave the ladder and the spares stop certifying
    the cut.  Counts above 2 stay dense while they fit: the dense route
    orders the two members of an E <-> -conj(E) pair, which tie in Im E,
    by rounding, and the spectrum tables written so far keep that order.
    """
    params = h.params
    dense_fits = count > 2 and h.dimension <= DENSE_MAX_DIMENSION
    if params is None or anti_pt_residual(h) != 0.0 or dense_fits:
        return False
    k = -(-count // 2) + EDGE_SPARES
    return 4 * max(2 * k + 1, 20) <= h.dimension and (2 * k - 1) * params.omega < 2.0 * params.J


def _apply(h: Hamiltonian, v: np.ndarray) -> np.ndarray:
    """H v from the chain's entries, for a vector or an N x k block.

    Row l adds o v_(l-1) + d_l v_l + o v_(l+1) in that order, as a CSR
    product of the tridiagonal matrix does.
    """
    hv = (h.diagonal if v.ndim == 1 else h.diagonal[:, None]) * v
    hv[1:] += h.off_diagonal * v[:-1]
    hv[:-1] += h.off_diagonal * v[1:]
    return hv


def _shifted_solve(h: Hamiltonian, shift: complex, b: np.ndarray) -> np.ndarray:
    """(H - shift) x = b, by LAPACK's tridiagonal ``gtsv``; LinAlgError if exactly singular.

    Entries are not checked for finiteness: a non-finite one gives a
    non-finite x, which ARPACK or the caller's norm check turns into
    NumericError.
    """
    band = np.empty((3, h.dimension), dtype=complex)
    band[0] = band[2] = h.off_diagonal  # band[0, 0] and band[2, -1] are not read
    band[1] = h.diagonal - shift
    return scipy.linalg.solve_banded((1, 1), band, b, check_finite=False)


def _edge_eigenpairs(h: Hamiltonian, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Modes nearest the two band edges: one shift-invert Arnoldi (ARPACK) search and its mirror.

    The search at the '+' edge returns ceil(count/2) + EDGE_SPARES modes;
    ARPACK sees H and (H - sigma)^-1 as operators on the chain's entries.
    It converges in the shift-inverted operator, so its vectors of the
    modes away from the shift carry residuals up to ~1e-9 however tight
    ARPACK's own ``tol``; each is refined by one inverse-iteration step at
    its Ritz value (a tridiagonal solve) and its energy replaced by the
    complex-symmetric Rayleigh quotient v^T H v / v^T v; both then match
    dense ``eig``.  The modes with Re E <= TOL are kept, and each with
    Re E < -TOL also gives its '-' edge mirror (module docstring), so a
    mode on the imaginary axis is kept once and each pair ties exactly.
    """
    n = h.dimension
    # Fixed start vector: repeated solves are bit-identical, and a random one
    # is not reflection-symmetric, so it reaches parity-odd modes directly.
    v0 = np.random.default_rng(0).standard_normal(n).astype(complex)
    sigma = analytic_energy(0, "+", h.params) + lattice_shift(0, h.params)
    operator = scipy.sparse.linalg.LinearOperator((n, n), lambda x: _apply(h, x), dtype=complex)
    inverse = scipy.sparse.linalg.LinearOperator(
        (n, n), lambda x: _shifted_solve(h, sigma, x), dtype=complex)
    try:
        ritz, v = scipy.sparse.linalg.eigs(operator, k=-(-count // 2) + EDGE_SPARES,
                                           sigma=sigma, v0=v0, OPinv=inverse)
        for j, value in enumerate(ritz):
            v[:, j] = _shifted_solve(h, value, v[:, j])
    # ArpackError (incl. no convergence); LinAlgError: an exactly singular solve
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        raise NumericError(f"shift-invert search at {sigma:.6g} failed: {exc}") from exc
    norms = [np.linalg.norm(x) for x in v.T]
    if not all(0 < norm < math.inf for norm in norms):  # a solve underflowed to 0 or overflowed
        raise NumericError(f"shift-invert search at {sigma:.6g} returned non-finite modes")
    v /= norms
    e = np.sum(v * _apply(h, v), axis=0) / np.sum(v * v, axis=0)
    own, mirrored = e.real <= TOL, e.real < -TOL
    signs = parity_signs(h.half_width)[:, None]
    return (np.concatenate([e[own], -np.conj(e[mirrored])]),
            np.hstack([v[:, own], signs * np.conj(v[:, mirrored])]))


def numeric_spectrum(h: Hamiltonian, count: int) -> Spectrum:
    """Diagonalize the chain and return the slowest-decaying modes.

    Two routes give the raw eigenpairs, picked by ``_uses_edge_search``:
    for the stable pair (``count`` <= 2) of a bare chain with N >= 80 and
    7 omega < 2J, or a small ``count`` of a chain above
    DENSE_MAX_DIMENSION, one shift-invert Arnoldi search at the '+' band
    edge for ceil(count/2) + EDGE_SPARES modes, mirrored to the '-' edge,
    whose spare modes must all decay faster than every kept one (else
    NumericError); otherwise dense diagonalization of all N modes,
    refused with ModelError above DENSE_MAX_DIMENSION before anything is
    allocated.  Either way the ``count`` modes with the largest Im(E) are
    selected; if the cut would split a pair related by E -> -conj(E), the
    partner is pulled in as well, so the result can hold up to one extra
    mode.  Right vectors are Dirac-normalized with a deterministic phase
    (largest-magnitude entry made real positive).  Every kept eigenpair must
    have a residual |H v - E v| within TOL * max(1, ||H||_inf), else NumericError.
    """
    if count < 1 or count > h.dimension:
        raise ModelError(f"count must be in [1, {h.dimension}], got {count}")
    if _uses_edge_search(h, count):
        return _spectrum(h, count, *_edge_eigenpairs(h, count))
    if h.dimension > DENSE_MAX_DIMENSION:
        raise ModelError(
            f"count {count} needs the dense eigensolve, which is capped at dimension "
            f"{DENSE_MAX_DIMENSION}; this chain has N = {h.dimension}"
        )
    dense = np.diag(h.diagonal)
    dense.flat[1::h.dimension + 1] = dense.flat[h.dimension::h.dimension + 1] = h.off_diagonal
    return _spectrum(h, count, *scipy.linalg.eig(dense))


def _spectrum(h: Hamiltonian, count: int, eigenvalues: np.ndarray, right: np.ndarray) -> Spectrum:
    """Select, normalize, check and label ``count`` modes from raw eigenpairs.

    ``eigenvalues``/``right`` are all N modes or a partial set.  A stable sort
    into ``Spectrum`` order and a mask keep the first ``count``; a kept mode with
    |Re E| > TOL and no kept partner -conj(E) within 1e-8 adds the first partner
    among the next four.  In a partial set every kept Im E must top every unkept one.
    """
    order = np.lexsort((eigenvalues.real, -eigenvalues.imag))
    energies = eigenvalues[order]
    keep = np.arange(len(order)) < count
    for e in energies[:count][np.abs(energies[:count].real) > TOL]:
        near = np.abs(energies[:count + 4] + np.conj(e)) <= 1e-8
        if not (near & keep[:count + 4]).any() and near[count:].any():
            keep[count + np.argmax(near[count:])] = True
    selected = order[keep]
    if len(eigenvalues) < h.dimension:
        kept_imag = min(energies.imag[keep], default=-math.inf)
        if keep.all() or kept_imag <= energies.imag[~keep].max():
            raise NumericError(
                f"spare modes do not certify the cut below the {len(selected)} slowest-decaying"
                f" modes (lowest kept Im E {kept_imag:.6g})"
            )

    params = h.params
    max_m = min(HERMITE_MAX_DEGREE, h.half_width)

    modes = []
    worst = 0.0
    for i in selected:
        energy = complex(eigenvalues[i])
        v = right[:, i]
        v = v / np.linalg.norm(v)
        pivot = int(np.argmax(np.abs(v)))
        phase = v[pivot] / abs(v[pivot])
        v = v / phase
        residual = float(np.linalg.norm(_apply(h, v) - energy * v))
        worst = max(worst, residual)

        # Im E_m = -2m omega on both branches: only m = round(-Im E / 2 omega)
        # can lie within the omega/2 gate; the nearer branch wins, '+' on a tie.
        m_label, branch_label = -1, "u"
        ladder_index = -energy.imag / (2.0 * params.omega) if params else math.nan
        if -0.5 < ladder_index < max_m + 0.5:
            m = round(ladder_index)
            gap, branch = min((abs(analytic_energy(m, b, params) - energy), b) for b in "+-")
            if gap <= params.omega / 2.0:
                m_label, branch_label = m, branch

        modes.append(
            EigenMode(
                m=m_label,
                branch=branch_label,
                energy=energy,
                right_vector=SiteState(v, h.half_width),
                residual=residual,
            )
        )

    if worst > TOL * max(1.0, h.norm):
        raise NumericError(f"worst eigenpair residual {worst:.3e} exceeds tolerance")
    return Spectrum(modes=tuple(modes))


def dirac_overlap(a: SiteState, b: SiteState) -> complex:
    """Ordinary conjugate-linear inner product sum(conj(a) * b)."""
    if a.dimension != b.dimension:
        raise ModelError(f"length mismatch: {a.dimension} vs {b.dimension}")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def spectrum_table(spec: Spectrum) -> str:
    """CSV table, one mode per row: m, branch, re_energy, im_energy, residual."""
    lines = ["m,branch,re_energy,im_energy,residual"]
    for mode in spec.modes:
        lines.append(",".join((
            str(mode.m), mode.branch, f"{mode.energy.real:.17g}",
            f"{mode.energy.imag:.17g}", f"{mode.residual:.17g}",
        )))
    return "\n".join(lines) + "\n"
