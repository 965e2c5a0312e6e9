"""Exact results of the paper that the tests hold the simulator against.

No run of the package reads them: the closed-form Hermite-Gaussian modes
of the continuum limit, the full eigen-expansion of a chain, the
delta -> 0 limit of the pi pulse (the staggered parity kick), the
biorthogonality of the numeric modes, the chain as a scipy CSR array and
its eigenvalues refined to 40 digits.  The closed-form modes have complex
scale alpha = exp(-i*pi/8) * (V/J)**(1/4); branch '+' is
N_m exp(-alpha^2 l^2 / 2) H_m(alpha l), branch '-' its sitewise conjugate
with the (-1)**l stagger, and their energies are ``spectral.analytic_energy``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import replace

import mpmath
import numpy as np
import scipy.sparse

from nhchain.dynamics import IntegratorConfig, ObservableSeries, _overlaps, propagate
from nhchain.model import ChainParams, Hamiltonian, ModelError, SiteState, parity_signs
from nhchain.quench import PulseSchedule
from nhchain.spectral import HERMITE_MAX_DEGREE, EigenMode, Spectrum, numeric_spectrum


def _check_degree(m: int) -> None:
    if not isinstance(m, (int, np.integer)) or not 0 <= m <= HERMITE_MAX_DEGREE:
        raise ModelError(f"mode index must be an integer in 0..{HERMITE_MAX_DEGREE}, got {m!r}")


def hermite_polynomial(m: int, z):
    """Physicists' Hermite polynomial H_m(z), by ``numpy.polynomial.hermite.hermval``.

    Accepts scalar or array ``z`` (real or complex).  ``m`` is capped at
    60 to stay clear of overflow over the supported parameter range.
    """
    _check_degree(m)
    h = np.polynomial.hermite.hermval(np.asarray(z, dtype=complex), [0.0] * m + [1.0])
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
        raise ModelError(f"branch must be '+' or '-', got {branch!r}")
    alpha = mode_scale(params)
    norm = normalization_constant(m, params)
    l = params.sites().astype(float)
    psi_plus = norm * np.exp(-0.5 * alpha * alpha * l * l) * hermite_polynomial(m, alpha * l)
    if branch == "+":
        amps = psi_plus
    else:
        amps = parity_signs(params.half_width) * np.conj(psi_plus)
    return SiteState(amps, params.half_width)


def energies(spec: Spectrum) -> np.ndarray:
    """The modes' energies, in ``Spectrum`` order."""
    return np.array([mode.energy for mode in spec.modes])


def biorthogonality_matrix(spec: Spectrum) -> np.ndarray:
    """Entry (a, b) = |<left_a|right_b>| = |G_ab / G_aa|, G_ab = v_a^T v_b the c-product.

    G is the Gram matrix of the right vectors v_a; the left vector of mode a
    is conj(v_a) / conj(G_aa) (``spectral`` docstring).  A row with
    |G_aa| < 1e-10 is numerically self-orthogonal and stays undivided, |G_ab|:
    109 of the 201 modes of the full M = 100 spectrum, all unlabeled, and none
    of a full spectrum at M <= 60.  So the diagonal is 1 except there; off it,
    entries are as small as the vectors are accurate: max|B - I| is 1e-12
    for fig2's 12 modes and 3.9e-12 for the full M = 30 spectrum, but 13.8
    at M = 100.
    """
    right = np.array([mode.right_vector.amplitudes for mode in spec.modes])
    gram = right @ right.T
    pivots = np.diag(gram)
    return np.abs(gram / np.where(np.abs(pivots) < 1e-10, 1.0, pivots)[:, None])


def apply_parity(state: SiteState) -> SiteState:
    """Multiply the amplitude at site l by (-1)**l.

    Involutive and exactly norm-preserving (sign flips only).
    """
    signs = parity_signs(state.half_width)
    return replace(state, amplitudes=signs * state.amplitudes)


def eigen_propagate(spectrum: Spectrum, h: Hamiltonian, state: SiteState, t: float) -> SiteState:
    """Single-time exact mode-expansion evolution (the integrator oracle).

    The coefficients solve R c = state over the right vectors R: projections
    onto the left vectors lose a long chain's ill-conditioned deep modes.
    """
    if len(spectrum) != h.dimension:
        raise ModelError(
            f"eigen expansion needs all {h.dimension} modes, spectrum has {len(spectrum)}"
        )
    vectors = np.column_stack([m.right_vector.amplitudes for m in spectrum.modes])
    coeffs = np.linalg.solve(vectors, state.amplitudes)
    y = vectors @ (coeffs * np.exp(-1j * energies(spectrum) * t))
    return SiteState(y, h.half_width, log_scale=state.log_scale)


def fidelity(target: SiteState, evolved: SiteState) -> float:
    """|<target|evolved>|^2 with the evolved state renormalized.

    Scale-invariant in both arguments, so the split-off ``log_scale``
    factors drop out; rounding above 1 is clipped, as in ObservableSeries.
    """
    denom = evolved.raw_norm2() * target.raw_norm2()
    if denom == 0.0:
        raise ModelError("fidelity undefined for a zero state")
    overlap = _overlaps(target.amplitudes.conj()[None], evolved.amplitudes[None])[0, 0]
    return min(float(abs(overlap) ** 2 / denom), 1.0)


def impulse_switch(h: Hamiltonian, schedule: PulseSchedule, t_relax: float,
                   config: IntegratorConfig, initial: str = "g") -> ObservableSeries:
    """``quench.run_switch_experiment`` with the pulse in its delta -> 0 limit.

    The parity kick acts on the ``initial`` stable mode at t = 0, and the
    chain then relaxes over the whole span (0, delta + t_relax) with ``config``.
    """
    ground, excited = numeric_spectrum(h, count=2).stable_pair()
    targets = {"g": ground.right_vector, "e": excited.right_vector}
    series = ObservableSeries(targets=targets)
    propagate(h, [apply_parity(targets[initial])], (0.0, schedule.delta + t_relax), config,
              series=[series])
    return series


def csr_matrix(h: Hamiltonian) -> scipy.sparse.csr_array:
    """The chain ``h`` as a CSR array, built from its diagonal and hopping."""
    off = np.full(h.dimension - 1, h.off_diagonal, dtype=complex)
    return scipy.sparse.diags_array([off, h.diagonal, off], offsets=[-1, 0, 1], format="csr")


def refined_energy(h: Hamiltonian, mode: EigenMode, dps: int = 40) -> mpmath.mpc:
    """The eigenvalue of ``h``'s float64 entries nearest ``mode``, to ``dps`` digits.

    Complex-symmetric Rayleigh-quotient iteration in mpmath from the mode's
    energy and vector: each step solves (H - e) x = v by the Thomas
    algorithm and sets e = x^T H x / x^T x; it stops when e moves by less
    than 10^-(dps - 5), and raises AssertionError after 12 steps.
    """
    with mpmath.workdps(dps):
        o = mpmath.mpc(h.off_diagonal)
        d = [mpmath.mpc(x) for x in h.diagonal]
        x = [mpmath.mpc(c) for c in mode.right_vector.amplitudes]
        e = mpmath.mpc(mode.energy)
        for _ in range(12):
            # Thomas: forward elimination, then back substitution
            pivots, rhs = [d[0] - e], [x[0]]
            for l in range(1, len(d)):
                ratio = o / pivots[-1]
                pivots.append(d[l] - e - ratio * o)
                rhs.append(x[l] - ratio * rhs[-1])
            x = [rhs[-1] / pivots[-1]]
            for l in range(len(d) - 2, -1, -1):
                x.append((rhs[l] - o * x[-1]) / pivots[l])
            x.reverse()
            scale = max(abs(c) for c in x)
            x = [c / scale for c in x]
            padded = [0] + x + [0]
            hx = [d[l] * x[l] + o * (padded[l] + padded[l + 2]) for l in range(len(x))]
            previous = e
            e = mpmath.fsum(a * b for a, b in zip(x, hx)) / mpmath.fsum(c * c for c in x)
            if abs(e - previous) < mpmath.mpf(10) ** (5 - dps):
                return e
    raise AssertionError(f"Rayleigh-quotient iteration from {mode.energy} did not settle")
