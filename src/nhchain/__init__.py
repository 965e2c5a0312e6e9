"""Dissipative tight-binding chain with a harmonic imaginary potential.

A lattice with on-site loss growing quadratically in the site index keeps
exactly two slowly-decaying bound states; everything else dies out.  This
package builds the chain, solves its spectrum (closed form and numeric),
propagates states to show the two-level convergence, and drives the
staggered-parity pulse that swaps the two surviving levels.
"""

from .model import (
    ChainParams,
    Hamiltonian,
    ModelError,
    NumericError,
    SiteState,
    anti_pt_residual,
    apply_parity,
    build_hamiltonian,
)
from .spectral import (
    EigenMode,
    Spectrum,
    analytic_energy,
    analytic_wavefunction,
    biorthogonality_matrix,
    dirac_overlap,
    hermite_polynomial,
    normalization_constant,
    numeric_spectrum,
    spectrum_table,
)
from .dynamics import (
    DEFAULT_SEED,
    IntegratorConfig,
    ObservableSeries,
    default_dt,
    eigen_propagate,
    fidelity,
    make_initial_state,
    propagate,
    run_convergence_experiment,
)
from .quench import (
    PulseSchedule,
    quenched_hamiltonian,
    run_switch_experiment,
)

__version__ = "0.1.0"
