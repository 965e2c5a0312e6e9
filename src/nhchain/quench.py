"""Rectangular linear-field pulse that swaps the two stable bound states.

During the window (0, delta) the diagonal gains mu * l with
mu = pi / delta, so the accumulated phase per site is exp(-i*pi*l): the
staggered parity.  Since parity maps the ground mode onto the conjugate of
the excited one (and vice versa), a pulse followed by free relaxation
switches the two levels.  The delta -> 0 limit is ``model.apply_parity``;
``run_switch_experiment(use_impulse=True)`` applies it in place of the
pulse and serves as the oracle for the finite-pulse integration.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

from .model import ChainParams, Hamiltonian, ModelError, apply_parity, build_hamiltonian
from .dynamics import IntegratorConfig, ObservableSeries, default_dt, propagate
from .spectral import numeric_spectrum

__all__ = [
    "PulseSchedule",
    "QuenchPlan",
    "quenched_hamiltonian",
    "run_switch_experiment",
]

HARDNESS_ADVERTISED = 10.0


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

    @property
    def mu(self) -> float:
        return math.pi / self.delta

    @property
    def dt(self) -> float:
        return self.delta / 400.0

    def hardness_ratio(self, params: ChainParams) -> float:
        """mu over the chain's energy scale; >> 1 validates the impulse picture."""
        return self.mu / max(2.0 * params.J, params.V * params.half_width**2)


@dataclass(frozen=True)
class QuenchPlan:
    """Full switch-experiment description: chain, pulse, relaxation, stepping."""

    params: ChainParams
    schedule: PulseSchedule
    t_relax: float = 600.0
    config: IntegratorConfig | None = None

    def __post_init__(self) -> None:
        if self.t_relax < 0:
            raise ModelError(f"t_relax must be >= 0, got {self.t_relax}")

    def resolved_config(self) -> IntegratorConfig:
        if self.config is not None:
            return self.config
        return IntegratorConfig(dt=default_dt(self.params))


def quenched_hamiltonian(h: Hamiltonian, sched: PulseSchedule) -> Hamiltonian:
    """The chain during the pulse window: diagonal augmented by mu * l."""
    return Hamiltonian(
        diagonal=h.diagonal + sched.mu * h.sites(),
        off_diagonal=h.off_diagonal,
        half_width=h.half_width,
    )


def run_switch_experiment(
    plan: QuenchPlan,
    initial: str = "g",
    use_impulse: bool = False,
) -> ObservableSeries:
    """Drive one stable mode through the pulse and relax; record F_g, F_e.

    ``initial`` selects the numeric ground ('g') or excited ('e') mode.
    With ``use_impulse`` the finite pulse is replaced by the exact parity
    kick at t = 0 (the comparison oracle).  A pulse softer than the
    advertised hardness ratio of 10 only warns.
    """
    if initial not in ("g", "e"):
        raise ModelError(f"initial must be 'g' or 'e', got {initial!r}")
    sched = plan.schedule
    hardness = sched.hardness_ratio(plan.params)
    if hardness < HARDNESS_ADVERTISED:
        warnings.warn(
            f"pulse hardness ratio {hardness:.3g} < {HARDNESS_ADVERTISED:g}: "
            "impulse approximation not advertised as valid",
            stacklevel=2,
        )

    h = build_hamiltonian(plan.params)
    spec = numeric_spectrum(h, count=2)
    ground, excited = spec.stable_pair()
    targets = {"g": ground.right_vector, "e": excited.right_vector}
    state = targets[initial]
    series = ObservableSeries(targets=targets)

    config = plan.resolved_config()
    if use_impulse:
        state = apply_parity(state)
        propagate(h, state, (0.0, sched.delta + plan.t_relax), config, series=series)
        return series

    pulse_h = quenched_hamiltonian(h, sched)
    state = propagate(pulse_h, state, (0.0, sched.delta), replace(config, dt=sched.dt),
                      series=series)
    propagate(h, state, (sched.delta, sched.delta + plan.t_relax), config, series=series)
    return series
