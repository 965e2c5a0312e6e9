"""Eigenmodes of the dissipative chain.

Two routes are provided and cross-checked in the tests:

* closed-form Hermite-Gaussian modes valid for V << J, with complex scale
  alpha = exp(-i*pi/8) * (V/J)**(1/4) and energies
  E_m^+ = (2m+1)*omega - 2J - 2i*m*omega,  E_m^- = 2J - (2m+1)*omega - 2i*m*omega,
  and their first-order lattice correction i*V*(2m^2+2m+1)/16 (``lattice_shift``);
* numerical eigenpairs of the truncated tridiagonal matrix, returned as
  biorthonormalized left/right pairs: shift-invert Arnoldi (ARPACK) at the
  two band edges for the stable pair of a bare chain, dense
  diagonalization of all N modes otherwise (``numeric_spectrum`` states
  the rule).  Numeric modes get ladder labels (m, branch) from the
  closed-form energies of the chain the matrix carries
  (``Hamiltonian.params``); a matrix without one, such as a pulsed chain,
  gets none.

Because the matrix is complex symmetric, the left eigenvector of a right
vector v is the elementwise conjugate of v up to the scaling that enforces
<left|right> = 1; right vectors are kept Dirac-normalized so they can be
used directly as fidelity targets.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .model import ChainParams, Hamiltonian, SiteState, parity_signs

__all__ = [
    "SpectralError",
    "ConvergenceError",
    "EigenMode",
    "Spectrum",
    "hermite_polynomial",
    "mode_scale",
    "normalization_constant",
    "analytic_wavefunction",
    "analytic_energy",
    "lattice_shift",
    "numeric_spectrum",
    "biorthogonality_matrix",
    "dirac_overlap",
    "spectrum_table",
]

HERMITE_MAX_DEGREE = 60
# Modes each band-edge search returns beyond its half of ``count``; they
# certify the cut (every kept Im E must lie above every spare's).
EDGE_SPARES = 3
# Dense diagonalization of all N modes needs about 47*N**2 bytes and O(N**3)
# time: measured on a 2-core host, N = 2001 took 5.4 s and +191 MB of peak
# RSS, N = 4001 52 s and +748 MB.
DENSE_MAX_DIMENSION = 4001
# Eigenpair residual bound, relative to the matrix scale max(1, ||H||_inf); also
# the |Re E| within which a mode counts as lying on the imaginary axis.
TOL = 1e-8


class SpectralError(ValueError):
    """Invalid spectral request (bad mode index, missing vectors, ...)."""


class ConvergenceError(RuntimeError):
    """Eigensolve did not meet the residual tolerance."""


def _check_degree(m: int) -> None:
    if not isinstance(m, (int, np.integer)) or not 0 <= m <= HERMITE_MAX_DEGREE:
        raise SpectralError(f"mode index must be an integer in 0..{HERMITE_MAX_DEGREE}, got {m!r}")


def hermite_polynomial(m: int, z):
    """Physicists' Hermite polynomial H_m(z) by the three-term recurrence.

    Accepts scalar or array ``z`` (real or complex).  ``m`` is capped at
    60 to stay clear of overflow in the recurrence over the supported
    parameter range.
    """
    _check_degree(m)
    z = np.asarray(z, dtype=complex)
    h_prev = np.ones_like(z)
    if m == 0:
        return h_prev if h_prev.ndim else complex(h_prev)
    h = 2.0 * z
    for k in range(1, m):
        h, h_prev = 2.0 * z * h - 2.0 * k * h_prev, h
    return h if h.ndim else complex(h)


def mode_scale(params: ChainParams) -> complex:
    """Complex Gaussian scale alpha = exp(-i*pi/8) * (V/J)**(1/4)."""
    return cmath.exp(-1j * math.pi / 8.0) * (params.V / params.J) ** 0.25


def normalization_constant(m: int, params: ChainParams) -> float:
    """Normalization N_m from the continuum integral.

    N_m^-2 = integral of H_m(alpha*x) * H_m(conj(alpha)*x) * exp(-Re(alpha^2)*x^2) dx
    over the real line.  For real x the product is |H_m(alpha*x)|^2, a
    degree-2m polynomial, so with x = u / sqrt(Re(alpha^2)) Gauss-Hermite
    quadrature at m + 1 nodes gives the integral exactly, up to rounding.
    """
    _check_degree(m)
    alpha = mode_scale(params)
    scale = math.sqrt((alpha * alpha).real)
    nodes, weights = np.polynomial.hermite.hermgauss(m + 1)
    h = hermite_polynomial(m, alpha * nodes / scale)
    value = float(weights @ (h * np.conj(h)).real) / scale
    return 1.0 / math.sqrt(value)


def analytic_wavefunction(m: int, branch: str, params: ChainParams) -> SiteState:
    """Closed-form mode sampled on the lattice.

    Branch '+' is N_m * exp(-alpha^2 l^2 / 2) * H_m(alpha*l); branch '-' is
    its sitewise conjugate with the (-1)**l stagger.  Not Dirac-normalized:
    N_m comes from the continuum integral (callers renormalize discrete
    vectors before fidelity use).
    """
    if branch not in ("+", "-"):
        raise SpectralError(f"branch must be '+' or '-', got {branch!r}")
    alpha = mode_scale(params)
    norm = normalization_constant(m, params)
    l = params.sites().astype(float)
    psi_plus = norm * np.exp(-0.5 * alpha * alpha * l * l) * hermite_polynomial(m, alpha * l)
    if branch == "+":
        amps = psi_plus
    else:
        amps = parity_signs(params.half_width) * np.conj(psi_plus)
    return SiteState(amps, params.half_width)


def analytic_energy(m: int, branch: str, params: ChainParams) -> complex:
    """Closed-form energy of mode (m, branch)."""
    if branch == "+":
        return (2 * m + 1) * params.omega - 2.0 * params.J - 2j * m * params.omega
    if branch == "-":
        return 2.0 * params.J - (2 * m + 1) * params.omega - 2j * m * params.omega
    raise SpectralError(f"branch must be '+' or '-', got {branch!r}")


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
    """One spectral solution with biorthonormalized left/right vectors.

    ``m``/``branch`` are ladder labels: the nearer closed-form energy at
    m = round(-Im E / 2 omega), m in 0..min(60, M); (-1, 'u') (unassigned)
    when it is not within omega/2.
    """

    m: int
    branch: str
    energy: complex
    right_vector: SiteState
    left_vector: SiteState
    residual: float


@dataclass(frozen=True)
class Spectrum:
    """Modes sorted by descending Im(E), ties by ascending Re(E)."""

    modes: tuple

    def __len__(self) -> int:
        return len(self.modes)

    def energies(self) -> np.ndarray:
        return np.array([mode.energy for mode in self.modes])

    def stable_pair(self, imag_tol: float | None = None) -> tuple[EigenMode, EigenMode]:
        """The two slowest-decaying modes (ground, excited).

        Ground is the one with negative real energy (-(2J - omega)),
        excited the positive one.  On the lattice their energies are real
        only up to a small V-dependent correction (Im E = V/16 + O(V^2)),
        so realness is checked only when ``imag_tol`` is given.
        """
        leading = self.modes[:2]
        if len(leading) < 2:
            raise SpectralError("spectrum holds fewer than two modes")
        if imag_tol is not None:
            for mode in leading:
                if abs(mode.energy.imag) > imag_tol:
                    raise SpectralError(
                        f"leading mode energy {mode.energy} is not real within {imag_tol}"
                    )
        ground, excited = sorted(leading, key=lambda mode: mode.energy.real)
        return ground, excited


def _sort_key(energy: complex) -> tuple:
    return (-energy.imag, energy.real)


def _uses_edge_search(h: Hamiltonian, count: int) -> bool:
    """Whether ``numeric_spectrum`` takes the band-edge shift-invert route.

    Besides a bare chain, it needs ARPACK's basis of max(2k+1, 20) vectors
    to fit in N/4 (k modes per edge search) and the closed-form ladder of
    each search's k modes to stay on its own side of the band centre,
    (2k - 1) omega < 2J; past that a stiff chain's slowest modes leave the
    ladder and the spares stop certifying the cut.  Counts above 2 stay
    dense while they fit: the two members of an E <-> -conj(E) pair tie in
    Im E, so their order in a spectrum table is set by rounding, and the
    dense route keeps the order of the tables written so far.
    """
    params = h.params
    if params is None or (count > 2 and h.dimension <= DENSE_MAX_DIMENSION):
        return False
    k = -(-count // 2) + EDGE_SPARES
    return 4 * max(2 * k + 1, 20) <= h.dimension and (2 * k - 1) * params.omega < 2.0 * params.J


def _edge_eigenpairs(h: Hamiltonian, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Modes nearest the two band edges, by shift-invert Arnoldi (ARPACK).

    Each edge search returns ceil(count/2) + EDGE_SPARES modes.  ARPACK
    converges in the shift-inverted operator, so its vectors of the modes
    away from the shift carry residuals up to ~1e-9 however tight ARPACK's
    own ``tol``; each is refined by one inverse-iteration step at its Ritz value
    (a sparse LU solve) and its energy replaced by the complex-symmetric
    Rayleigh quotient v^T H v / v^T v; both then match dense ``eig``.  The
    '+' search keeps the modes with Re E <= TOL (so a mode on the imaginary
    axis, which both searches find, is kept once) and the '-' search the rest.
    """
    params = h.params
    matrix = h.matrix.tocsc()
    identity = scipy.sparse.eye_array(h.dimension, format="csc")
    # Fixed start vector: repeated solves are bit-identical, and a random one
    # is not reflection-symmetric, so it reaches parity-odd modes directly.
    v0 = np.random.default_rng(0).standard_normal(h.dimension).astype(complex)
    energies, vectors = [], []
    for branch in ("+", "-"):
        sigma = analytic_energy(0, branch, params) + lattice_shift(0, params)
        try:
            ritz, v = scipy.sparse.linalg.eigs(
                matrix, k=-(-count // 2) + EDGE_SPARES, sigma=sigma, v0=v0
            )
            for j, value in enumerate(ritz):
                x = scipy.sparse.linalg.splu(matrix - value * identity).solve(v[:, j])
                v[:, j] = x / np.linalg.norm(x)
        except RuntimeError as exc:  # ArpackError (incl. no convergence), exactly singular LU
            raise ConvergenceError(f"shift-invert search at {sigma:.6g} failed: {exc}") from exc
        e = np.sum(v * (matrix @ v), axis=0) / np.sum(v * v, axis=0)
        own = e.real <= TOL if branch == "+" else e.real > TOL
        energies.append(e[own])
        vectors.append(v[:, own])
    return np.concatenate(energies), np.hstack(vectors)


def numeric_spectrum(h: Hamiltonian, count: int) -> Spectrum:
    """Diagonalize the chain and return the slowest-decaying modes.

    Two routes give the raw eigenpairs, picked by ``_uses_edge_search``:
    for the stable pair (``count`` <= 2) of a bare chain with N >= 80 and
    7 omega < 2J, or a small ``count`` of a chain above
    DENSE_MAX_DIMENSION, two shift-invert Arnoldi searches at the band
    edges, each asking for ceil(count/2) + EDGE_SPARES modes, whose spare
    modes must all decay faster than every kept one (else
    ConvergenceError); otherwise dense diagonalization of all N modes,
    refused with SpectralError above DENSE_MAX_DIMENSION before anything is
    allocated.  Either way the ``count`` modes with the largest Im(E) are
    selected; if the cut would split a pair related by E -> -conj(E), the
    partner is pulled in as well, so the result can hold up to one extra
    mode.  Right vectors are Dirac-normalized with a deterministic phase
    (largest-magnitude entry made real positive); left vectors are
    conjugates of the right ones, rescaled so <left|right> = 1.  Every
    kept eigenpair must have a residual |H v - E v| within TOL * max(1, ||H||_inf),
    else ConvergenceError.
    """
    if count < 1 or count > h.dimension:
        raise SpectralError(f"count must be in [1, {h.dimension}], got {count}")
    if _uses_edge_search(h, count):
        return _spectrum(h, count, *_edge_eigenpairs(h, count))
    if h.dimension > DENSE_MAX_DIMENSION:
        raise SpectralError(
            f"count {count} needs the dense eigensolve, which is capped at dimension "
            f"{DENSE_MAX_DIMENSION}; this chain has N = {h.dimension}"
        )
    return _spectrum(h, count, *scipy.linalg.eig(h.matrix.toarray()))


def _spectrum(h: Hamiltonian, count: int, eigenvalues: np.ndarray, right: np.ndarray) -> Spectrum:
    """Select, normalize, check and label ``count`` modes from raw eigenpairs.

    ``eigenvalues``/``right`` are all N modes, or a partial set whose
    unselected modes must certify the cut.
    """
    order = sorted(range(len(eigenvalues)), key=lambda i: _sort_key(eigenvalues[i]))

    selected = list(order[:count])
    selected_set = set(selected)
    # Close the selection under E -> -conj(E) pairing at the cut.
    for i in list(selected):
        partner_energy = -np.conj(eigenvalues[i])
        if abs(eigenvalues[i].real) <= TOL:
            continue
        if any(abs(eigenvalues[j] - partner_energy) <= 1e-8 for j in selected_set):
            continue
        candidates = [
            j for j in order[count : count + 4] if abs(eigenvalues[j] - partner_energy) <= 1e-8
        ]
        if candidates:
            selected.append(candidates[0])
            selected_set.add(candidates[0])
    selected.sort(key=lambda i: _sort_key(eigenvalues[i]))
    if len(eigenvalues) < h.dimension:
        spare_imag = [eigenvalues[i].imag for i in order if i not in selected_set]
        kept_imag = min(eigenvalues[i].imag for i in selected)
        if not spare_imag or kept_imag <= max(spare_imag):
            raise ConvergenceError(
                f"spare modes do not certify the cut below the {len(selected)} slowest-decaying"
                f" modes (lowest kept Im E {kept_imag:.6g})"
            )

    params = h.params
    max_m = min(HERMITE_MAX_DEGREE, h.half_width)

    matrix = h.matrix
    modes = []
    worst = 0.0
    for i in selected:
        energy = complex(eigenvalues[i])
        v = right[:, i]
        v = v / np.linalg.norm(v)
        pivot = int(np.argmax(np.abs(v)))
        phase = v[pivot] / abs(v[pivot])
        v = v / phase
        residual = float(np.linalg.norm(matrix @ v - energy * v))
        worst = max(worst, residual)

        self_product = complex(v @ v)
        if abs(self_product) < 1e-10:  # self-orthogonal: v^T v cannot be normalized to 1
            left = np.conj(v)
        else:
            left = np.conj(v) / np.conj(self_product)

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
                left_vector=SiteState(left, h.half_width),
                residual=residual,
            )
        )

    if worst > TOL * max(1.0, h.norm):
        raise ConvergenceError(f"worst eigenpair residual {worst:.3e} exceeds tolerance")
    return Spectrum(modes=tuple(modes))


def dirac_overlap(a: SiteState, b: SiteState) -> complex:
    """Ordinary conjugate-linear inner product sum(conj(a) * b)."""
    if a.dimension != b.dimension:
        raise SpectralError(f"length mismatch: {a.dimension} vs {b.dimension}")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def biorthogonality_matrix(spec: Spectrum) -> np.ndarray:
    """Entry (a, b) = |<left_a|right_b>|; identity for a converged spectrum."""
    left = np.array([mode.left_vector.amplitudes for mode in spec.modes])
    right = np.array([mode.right_vector.amplitudes for mode in spec.modes])
    return np.abs(left.conj() @ right.T)


def spectrum_table(spec: Spectrum) -> str:
    """CSV table, one mode per row: m, branch, re_energy, im_energy, residual."""
    lines = ["m,branch,re_energy,im_energy,residual"]
    for mode in spec.modes:
        lines.append(",".join((
            str(mode.m), mode.branch, f"{mode.energy.real:.17g}",
            f"{mode.energy.imag:.17g}", f"{mode.residual:.17g}",
        )))
    return "\n".join(lines) + "\n"
