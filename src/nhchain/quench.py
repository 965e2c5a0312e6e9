"""Rectangular linear-field pulse that swaps the two stable bound states.

During the window (t0, t0 + delta) the diagonal gains mu * l with
mu = pi / delta, so the accumulated phase per site is exp(-i*pi*l): the
staggered parity.  Since parity maps the ground mode onto the conjugate of
the excited one (and vice versa), a pulse followed by free relaxation
switches the two levels.  ``impulse_parity`` is the delta -> 0 limit and
serves as the oracle for the finite-pulse integration.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import (
    ChainParams,
    Hamiltonian,
    ModelError,
    SiteState,
    apply_parity,
    build_hamiltonian,
)
from .dynamics import IntegratorConfig, ObservableSeries, default_dt, propagate
from .spectral import numeric_spectrum

__all__ = [
    "PulseSchedule",
    "QuenchPlan",
    "pulse_amplitude",
    "quenched_hamiltonian",
    "impulse_parity",
    "run_switch_experiment",
]

HARDNESS_ADVERTISED = 10.0
HARDNESS_FLOOR = 2.0


@dataclass(frozen=True)
class PulseSchedule:
    """Rectangular pulse of duration ``delta`` starting at ``start``.

    The amplitude is derived, mu = pi/delta, so the time integral is pi
    for every duration.
    """

    delta: float
    start: float = 0.0

    def __post_init__(self) -> None:
        if not (self.delta > 0 and math.isfinite(self.delta)):
            raise ModelError(f"pulse duration must be positive, got {self.delta!r}")
        if not math.isfinite(self.start):
            raise ModelError(f"pulse start must be finite, got {self.start!r}")

    @property
    def mu(self) -> float:
        return math.pi / self.delta

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
    dt_pulse: float | None = None

    def __post_init__(self) -> None:
        if self.t_relax < 0:
            raise ModelError(f"t_relax must be >= 0, got {self.t_relax}")
        if self.dt_pulse is not None and not 0 < self.dt_pulse <= self.schedule.delta / 200.0:
            raise ModelError(
                f"dt_pulse must be in (0, delta/200], got {self.dt_pulse}"
            )

    def resolved_config(self) -> IntegratorConfig:
        if self.config is not None:
            return self.config
        return IntegratorConfig(dt=default_dt(self.params))

    def resolved_dt_pulse(self) -> float:
        return self.dt_pulse if self.dt_pulse is not None else self.schedule.delta / 400.0


def pulse_amplitude(t: float, sched: PulseSchedule) -> float:
    """mu = pi/delta strictly inside the window, 0 outside."""
    return sched.mu if sched.start < t < sched.start + sched.delta else 0.0


def quenched_hamiltonian(h: Hamiltonian, t: float, sched: PulseSchedule) -> Hamiltonian:
    """Diagonal augmented by mu(t) * l; unchanged (same object) outside the window."""
    mu = pulse_amplitude(t, sched)
    if mu == 0.0:
        return h
    return Hamiltonian(
        diagonal=h.diagonal + mu * h.sites(),
        off_diagonal=h.off_diagonal,
        half_width=h.half_width,
    )


def impulse_parity(state: SiteState) -> SiteState:
    """Instantaneous-pulse limit: exactly the staggered parity operation."""
    return apply_parity(state)


def run_switch_experiment(
    plan: QuenchPlan,
    initial: str = "g",
    use_impulse: bool = False,
    validated: bool = False,
) -> ObservableSeries:
    """Drive one stable mode through the pulse and relax; record F_g, F_e.

    ``initial`` selects the numeric ground ('g') or excited ('e') mode.
    With ``use_impulse`` the finite pulse is replaced by the exact parity
    kick at the window start (the comparison oracle).  ``validated``
    escalates a too-soft pulse (hardness ratio < 2) from warning to error.
    """
    if initial not in ("g", "e"):
        raise ModelError(f"initial must be 'g' or 'e', got {initial!r}")
    sched = plan.schedule
    hardness = sched.hardness_ratio(plan.params)
    if hardness < HARDNESS_ADVERTISED:
        message = (
            f"pulse hardness ratio {hardness:.3g} < {HARDNESS_ADVERTISED:g}: "
            "impulse approximation not advertised as valid"
        )
        if validated and hardness < HARDNESS_FLOOR:
            raise ModelError(message)
        warnings.warn(message, stacklevel=2)

    h = build_hamiltonian(plan.params)
    spec = numeric_spectrum(h, count=2)
    ground, excited = spec.stable_pair()
    targets = {"g": ground.right_vector, "e": excited.right_vector}
    state = targets[initial]
    series = ObservableSeries(targets=targets)

    config = plan.resolved_config()
    t_pulse_end = sched.start + sched.delta
    if sched.start > 0:
        state = propagate(h, state, (0.0, sched.start), config, series=series)

    if use_impulse:
        state = impulse_parity(state)
        state = propagate(h, state, (sched.start, t_pulse_end + plan.t_relax), config, series=series)
        return series

    pulse_h = quenched_hamiltonian(h, sched.start + sched.delta / 2.0, sched)
    pulse_config = IntegratorConfig(
        dt=plan.resolved_dt_pulse(),
        method=config.method,
        record_stride=config.record_stride,
    )
    state = propagate(pulse_h, state, (sched.start, t_pulse_end), pulse_config, series=series)
    if plan.t_relax > 0:
        state = propagate(h, state, (t_pulse_end, t_pulse_end + plan.t_relax), config, series=series)
    return series
