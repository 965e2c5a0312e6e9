"""Rectangular linear-field pulse that swaps the two stable bound states.

During the window (0, delta) the diagonal gains mu * l with mu = pi / delta,
so the accumulated phase per site is exp(-i*pi*l): the staggered parity,
which maps the ground mode onto the conjugate of the excited one (and vice
versa).  A pulse much harder than the chain, mu >> ||H||_inf, followed by
free relaxation therefore switches the two levels.  The tests hold the
finite pulse against its delta -> 0 limit, the parity kick at t = 0
(``tests/oracles.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .model import Hamiltonian, ModelError
from .dynamics import IntegratorConfig, ObservableSeries, propagate
from .spectral import numeric_spectrum

__all__ = [
    "PulseSchedule",
    "quenched_hamiltonian",
    "run_switch_experiment",
]


@dataclass(frozen=True)
class PulseSchedule:
    """Rectangular pulse of duration ``delta`` starting at t = 0.

    The amplitude is derived, mu = pi/delta, so the time integral is pi
    for every duration; the window is integrated in 400 steps of ``dt``.
    """

    delta: float

    def __post_init__(self) -> None:
        if not (self.delta > 0 and math.isfinite(self.delta)):
            raise ModelError(f"pulse duration must be positive, got {self.delta!r}")
        if not math.isfinite(self.mu):
            raise ModelError(f"pulse amplitude pi/delta overflows for delta = {self.delta!r}")

    @property
    def mu(self) -> float:
        return math.pi / self.delta

    @property
    def dt(self) -> float:
        return self.delta / 400.0

    def hardness_ratio(self, h: Hamiltonian) -> float:
        """mu over the chain's size ||H||_inf; >> 1 validates the impulse picture."""
        return self.mu / h.norm


def quenched_hamiltonian(h: Hamiltonian, sched: PulseSchedule) -> Hamiltonian:
    """The chain during the pulse window: diagonal augmented by mu * l."""
    if not math.isfinite(sched.mu * h.half_width):
        raise ModelError(f"pulse field mu * l overflows for mu = {sched.mu!r}")
    return Hamiltonian(
        diagonal=h.diagonal + sched.mu * h.sites(),
        off_diagonal=h.off_diagonal,
        half_width=h.half_width,
    )


def run_switch_experiment(
    h: Hamiltonian,
    schedule: PulseSchedule,
    t_relax: float,
    config: IntegratorConfig,
    initial: str = "g",
) -> ObservableSeries:
    """Drive one stable mode of ``h`` through the pulse, relax for ``t_relax``; record F_g, F_e.

    ``initial`` selects the numeric ground ('g') or excited ('e') mode.
    ``config`` steps the relaxation; the pulse window takes the schedule's
    own dt.  Never warns, even on a soft pulse.
    """
    if t_relax < 0:
        raise ModelError(f"t_relax must be >= 0, got {t_relax}")
    if initial not in ("g", "e"):
        raise ModelError(f"initial must be 'g' or 'e', got {initial!r}")

    spec = numeric_spectrum(h, count=2)
    ground, excited = spec.stable_pair()
    targets = {"g": ground.right_vector, "e": excited.right_vector}
    state = targets[initial]
    series = ObservableSeries(targets=targets)

    pulse_h = quenched_hamiltonian(h, schedule)
    [state] = propagate(pulse_h, [state], (0.0, schedule.delta), replace(config, dt=schedule.dt),
                        series=[series])
    propagate(h, [state], (schedule.delta, schedule.delta + t_relax), config, series=[series])
    return series
