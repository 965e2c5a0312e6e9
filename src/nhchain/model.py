"""Tight-binding chain with a harmonic imaginary on-site potential.

The chain lives on sites l = -M..M (2M+1 sites).  Hopping is -J on nearest
neighbours, the on-site term is i*omega - i*V*l**2 with omega = sqrt(J*V/2),
so the matrix is complex symmetric and tridiagonal.  The staggered parity
P: amplitude(l) -> (-1)**l * amplitude(l) together with complex conjugation
anticommutes with the Hamiltonian; ``anti_pt_residual`` measures this
exactly (zero for the bare chain, by construction of the entries).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "ModelError",
    "ChainParams",
    "Hamiltonian",
    "SiteState",
    "build_hamiltonian",
    "apply_parity",
    "anti_pt_residual",
    "parity_signs",
]

NORM_TOL = 1e-12


class ModelError(ValueError):
    """Invalid model parameters or inconsistent operands."""


def parity_signs(half_width: int) -> np.ndarray:
    """Vector of (-1)**l for l = -M..M, as floats (+1/-1)."""
    l = np.arange(-half_width, half_width + 1)
    return 1.0 - 2.0 * (np.abs(l) % 2)


@dataclass(frozen=True)
class ChainParams:
    """Physical parameters of the chain.

    J : hopping strength (energy unit; J = 1 fixes the units)
    V : strength of the imaginary harmonic potential
    half_width : M, sites on each side of l = 0 (2M+1 sites in total)
    tail_tol : envelope tail budget; exceeding it warns but does not fail
    omega : derived constant sqrt(J*V/2), set automatically
    """

    J: float
    V: float
    half_width: int = 100
    tail_tol: float = 1e-13
    omega: float = field(init=False)

    def __post_init__(self) -> None:
        for name in ("J", "V"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ModelError(f"{name} must be finite, got {value!r}")
            if value <= 0:
                raise ModelError(f"{name} must be > 0, got {value!r}")
        if not isinstance(self.half_width, (int, np.integer)) or self.half_width < 1:
            raise ModelError(f"half_width must be an integer >= 1, got {self.half_width!r}")
        try:
            edge = self.V * float(self.half_width) ** 2
        except OverflowError:
            edge = math.inf
        if not math.isfinite(edge):
            raise ModelError("V * half_width**2 overflows the floating range")
        object.__setattr__(self, "omega", math.sqrt(self.J * self.V / 2.0))
        tail = math.exp(-self.omega * self.half_width**2 / (2.0 * self.J))
        if tail > self.tail_tol:
            warnings.warn(
                f"envelope tail exp(-omega*M^2/(2J)) = {tail:.3e} exceeds "
                f"tail_tol = {self.tail_tol:.3e}; boundary effects may matter",
                stacklevel=2,
            )

    @property
    def dimension(self) -> int:
        return 2 * self.half_width + 1

    def sites(self) -> np.ndarray:
        """Physical site indices l = -M..M."""
        return np.arange(-self.half_width, self.half_width + 1)


@dataclass(frozen=True)
class Hamiltonian:
    """Complex-symmetric tridiagonal operator on the truncated site basis.

    ``diagonal`` holds the on-site entries in site order l = -M..M;
    ``off_diagonal`` is the constant nearest-neighbour entry (-J for the
    bare chain).  ``matvec`` computes H @ psi without forming the matrix;
    ``to_dense`` builds the full matrix, which diagonalization and the
    exact propagator expm(-i H k dt) need.  ``params`` is the chain the
    matrix was built from; None for any other matrix (a pulsed chain).
    """

    diagonal: np.ndarray
    off_diagonal: float
    half_width: int
    params: ChainParams | None = None

    def __post_init__(self) -> None:
        diag = np.ascontiguousarray(self.diagonal, dtype=complex)
        if diag.shape != (2 * self.half_width + 1,):
            raise ModelError(
                f"diagonal length {diag.shape} does not match half_width {self.half_width}"
            )
        diag.flags.writeable = False
        object.__setattr__(self, "diagonal", diag)

    @property
    def dimension(self) -> int:
        return 2 * self.half_width + 1

    def sites(self) -> np.ndarray:
        return np.arange(-self.half_width, self.half_width + 1)

    def to_dense(self) -> np.ndarray:
        n = self.dimension
        mat = np.diag(self.diagonal)
        idx = np.arange(n - 1)
        mat[idx, idx + 1] = self.off_diagonal
        mat[idx + 1, idx] = self.off_diagonal
        return mat

    def matvec(self, psi: np.ndarray) -> np.ndarray:
        out = self.diagonal * psi
        out[:-1] += self.off_diagonal * psi[1:]
        out[1:] += self.off_diagonal * psi[:-1]
        return out

    def spectral_radius_estimate(self) -> float:
        """Cheap upper-scale estimate used for step-size limits."""
        return float(max(2.0 * abs(self.off_diagonal), np.abs(self.diagonal).max()))


@dataclass(frozen=True)
class SiteState:
    """Complex amplitude vector over sites l = -M..M.

    ``log_scale`` tracks an overall multiplicative factor exp(log_scale)
    split off during long decaying propagations to avoid underflow; the
    physical amplitudes are ``amplitudes * exp(log_scale)``.  For freshly
    constructed states it is 0.
    """

    amplitudes: np.ndarray
    half_width: int
    log_scale: float = 0.0

    def __post_init__(self) -> None:
        amps = np.ascontiguousarray(self.amplitudes, dtype=complex)
        if amps.shape != (2 * self.half_width + 1,):
            raise ModelError(
                f"amplitude length {amps.shape} does not match half_width {self.half_width}"
            )
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dimension(self) -> int:
        return 2 * self.half_width + 1

    def sites(self) -> np.ndarray:
        return np.arange(-self.half_width, self.half_width + 1)

    def raw_norm2(self) -> float:
        """Sum of |amplitude|^2 ignoring log_scale."""
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def norm2(self) -> float:
        """Physical Dirac norm squared, including the split-off scale."""
        return math.exp(2.0 * self.log_scale) * self.raw_norm2()

    def is_normalized(self, tol: float = NORM_TOL) -> bool:
        return abs(self.norm2() - 1.0) <= tol

    def normalized(self) -> "SiteState":
        n2 = self.raw_norm2()
        if n2 == 0.0:
            raise ModelError("cannot normalize a zero state")
        return SiteState(self.amplitudes / math.sqrt(n2), self.half_width)

    def with_amplitudes(self, amplitudes: np.ndarray) -> "SiteState":
        return replace(self, amplitudes=amplitudes)


def build_hamiltonian(params: ChainParams) -> Hamiltonian:
    """Tridiagonal matrix with diagonal i*omega - i*V*l**2, off-diagonals -J."""
    l = params.sites().astype(float)
    diagonal = 1j * (params.omega - params.V * l * l)
    if not np.all(np.isfinite(diagonal)):
        raise ModelError("non-finite Hamiltonian diagonal entries")
    return Hamiltonian(diagonal=diagonal, off_diagonal=-params.J,
                       half_width=params.half_width, params=params)


def apply_parity(state: SiteState) -> SiteState:
    """Multiply the amplitude at site l by (-1)**l.

    Involutive and exactly norm-preserving (sign flips only).
    """
    signs = parity_signs(state.half_width)
    return state.with_amplitudes(signs * state.amplitudes)


def anti_pt_residual(h: Hamiltonian) -> float:
    """Max-entry magnitude of PT H (PT)^-1 + H.

    T acts as elementwise conjugation, P as the (-1)**l diagonal similarity.
    For the bare chain this cancels entrywise and the result is exactly 0.
    """
    dense = h.to_dense()
    signs = parity_signs(h.half_width)
    transformed = signs[:, None] * np.conj(dense) * signs[None, :]
    return float(np.abs(transformed + dense).max())
