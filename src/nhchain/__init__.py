"""Dissipative tight-binding chain with a harmonic imaginary potential.

A lattice with on-site loss growing quadratically in the site index keeps
exactly two slowly-decaying bound states; everything else dies out.  This
package builds the chain, solves its spectrum (closed form and numeric),
propagates states to show the two-level convergence, and drives the
staggered-parity pulse that swaps the two surviving levels.  Import names
from the modules: each module's ``__all__`` lists its public names.
"""

__version__ = "0.1.0"
