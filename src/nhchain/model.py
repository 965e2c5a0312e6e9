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
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ModelError",
    "NumericError",
    "ChainParams",
    "Hamiltonian",
    "SiteState",
    "build_hamiltonian",
    "anti_pt_residual",
    "parity_signs",
    "row_norm2",
]


class ModelError(ValueError):
    """Bad input: invalid parameters, config values or operands (CLI exit 1)."""


class NumericError(RuntimeError):
    """Numerical failure on valid input: overflow, an unconverged eigensolve (CLI exit 2)."""


def parity_signs(half_width: int) -> np.ndarray:
    """Vector of (-1)**l for l = -M..M, as floats (+1/-1)."""
    l = np.arange(-half_width, half_width + 1)
    return 1.0 - 2.0 * (np.abs(l) % 2)


def row_norm2(rows: np.ndarray) -> np.ndarray:
    """Sum of |amplitude|^2 along the last axis, one value per row.

    The one kernel for a single state and for a block of recorded samples:
    a row gives the same bits either way.
    """
    parts = np.ascontiguousarray(rows).view(np.float64)
    return np.einsum("...j,...j->...", parts, parts)


class _OnLattice:
    """Something on the sites l = -M..M of a chain of half width M = ``half_width``."""

    half_width: int

    @property
    def dimension(self) -> int:
        return 2 * self.half_width + 1

    def sites(self) -> np.ndarray:
        """Physical site indices l = -M..M."""
        return np.arange(-self.half_width, self.half_width + 1)

    def _freeze_site_vector(self, name: str, what: str) -> None:
        """Store field ``name`` as a read-only complex vector with one entry per site."""
        vector = np.ascontiguousarray(getattr(self, name), dtype=complex)
        if vector.shape != (self.dimension,):
            raise ModelError(
                f"{what} length {vector.shape} does not match half_width {self.half_width}"
            )
        vector.flags.writeable = False
        object.__setattr__(self, name, vector)


@dataclass(frozen=True)
class ChainParams(_OnLattice):
    """Physical parameters of the chain.

    J : hopping strength (energy unit; J = 1 fixes the units)
    V : strength of the imaginary harmonic potential
    half_width : M, sites on each side of l = 0 (2M+1 sites in total)
    omega : derived constant sqrt(J*V/2), set automatically
    """

    J: float
    V: float
    half_width: int = 100
    omega: float = field(init=False)

    def __post_init__(self) -> None:
        for name in ("J", "V"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ModelError(f"{name} must be finite, got {value!r}")
            if value <= 0:
                raise ModelError(f"{name} must be > 0, got {value!r}")
        omega = math.sqrt(self.J * self.V / 2.0)
        if not 0.0 < omega < math.inf:
            raise ModelError(f"omega = sqrt(J * V / 2) leaves the floating range "
                             f"for J = {self.J!r}, V = {self.V!r}")
        if not isinstance(self.half_width, (int, np.integer)) or self.half_width < 1:
            raise ModelError(f"half_width must be an integer >= 1, got {self.half_width!r}")
        try:
            edge = self.V * float(self.half_width) ** 2
        except OverflowError:
            edge = math.inf
        if not math.isfinite(edge):
            raise ModelError("V * half_width**2 overflows the floating range")
        object.__setattr__(self, "omega", omega)

    @property
    def envelope_tail(self) -> float:
        """exp(-omega*M^2/(2J)), the bound states' envelope at the chain's ends."""
        return math.exp(-self.omega * self.half_width**2 / (2.0 * self.J))


@dataclass(frozen=True)
class Hamiltonian(_OnLattice):
    """Complex-symmetric tridiagonal operator on the truncated site basis.

    ``diagonal`` holds the on-site entries in site order l = -M..M;
    ``off_diagonal`` is the constant nearest-neighbour entry (-J for the
    bare chain).  These entries are the operator's one representation;
    ``norm`` is its infinity norm.  ``params`` is the chain the matrix was
    built from; None for any other matrix (a pulsed chain).
    """

    diagonal: np.ndarray
    off_diagonal: float
    half_width: int
    params: ChainParams | None = None

    def __post_init__(self) -> None:
        self._freeze_site_vector("diagonal", "diagonal")

    @property
    def norm(self) -> float:
        """||H||_inf, the largest absolute row sum; a row adds |o| + |d_l| + |o| in that order."""
        off = abs(self.off_diagonal) if self.dimension > 1 else 0.0
        rows = off + np.abs(self.diagonal)
        rows[1:-1] += off  # an end row has one neighbour, the one row of N = 1 none
        return float(rows.max())


@dataclass(frozen=True)
class SiteState(_OnLattice):
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
        self._freeze_site_vector("amplitudes", "amplitude")

    def raw_norm2(self) -> float:
        """Sum of |amplitude|^2 ignoring log_scale."""
        return float(row_norm2(self.amplitudes))

    def norm2(self) -> float:
        """Physical Dirac norm squared, including the split-off scale."""
        return float(np.exp(2.0 * self.log_scale)) * self.raw_norm2()  # np.exp as in a series

    def normalized(self) -> "SiteState":
        n2 = self.raw_norm2()
        if not 0.0 < n2 < math.inf:
            raise ModelError(f"cannot normalize a state of raw norm^2 {n2!r}")
        return SiteState(self.amplitudes / math.sqrt(n2), self.half_width)


def build_hamiltonian(params: ChainParams) -> Hamiltonian:
    """Tridiagonal matrix with diagonal i*omega - i*V*l**2, off-diagonals -J; never warns."""
    l = params.sites().astype(float)
    diagonal = 1j * (params.omega - params.V * l * l)
    return Hamiltonian(diagonal=diagonal, off_diagonal=-params.J,
                       half_width=params.half_width, params=params)


def anti_pt_residual(h: Hamiltonian) -> float:
    """Max-entry magnitude of PT H (PT)^-1 + H, from the entries of H.

    T acts as elementwise conjugation, P as the (-1)**l diagonal similarity,
    so the sum is 2 Re d on the diagonal and 2i Im o on the off-diagonals.
    For the bare chain both vanish and the result is exactly 0.
    """
    off = abs(np.imag(h.off_diagonal)) if h.dimension > 1 else 0.0
    return 2.0 * float(max(np.abs(h.diagonal.real).max(), off))
