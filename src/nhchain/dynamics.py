"""Time evolution under the dissipative chain and the derived observables.

States are propagated without renormalization: the returned amplitudes are
the raw decaying ones, except that an overall factor is split off into
``SiteState.log_scale`` if the norm would otherwise underflow.  Three
propagation routes exist and serve as mutual checks: a fixed-step 4th-order
Runge-Kutta integrator, whose step is applied as one precomputed 9-diagonal
sparse matrix, the exact propagator expm(-i H k dt) applied once per
recorded sample, and direct expansion in a full numeric eigenbasis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from .model import ChainParams, Hamiltonian, ModelError, SiteState, build_hamiltonian
from .spectral import Spectrum, dirac_overlap, numeric_spectrum

__all__ = [
    "NumericError",
    "IntegratorConfig",
    "ObservableSeries",
    "DEFAULT_SEED",
    "default_dt",
    "stepping_method",
    "make_initial_state",
    "propagate",
    "rk4_step_operator",
    "eigen_propagate",
    "expansion_coefficients",
    "fidelity",
    "dirac_probability",
    "run_convergence_experiment",
]

DEFAULT_SEED = 223
UNDERFLOW_GUARD = 1e-150
STATE_KINDS = ("point", "gaussian", "tophat", "random")


class NumericError(RuntimeError):
    """Integration failure (instability, NaN/overflow, bad step size)."""

    def __init__(self, message: str, failure_time: float | None = None):
        super().__init__(message)
        self.failure_time = failure_time


RK4_STABILITY_FACTOR = 2.5


def stability_limit(h: Hamiltonian) -> float:
    """Largest stable dt for the explicit integrator on this matrix.

    The classical RK4 stability region reaches about 2.8 along both the
    real (decay) and imaginary (oscillation) axes; 2.5 leaves margin.
    Accuracy-motivated defaults (``default_dt``) are much stricter.
    """
    return RK4_STABILITY_FACTOR / h.spectral_radius_estimate()


def default_dt(params: ChainParams) -> float:
    """Default step: 0.02/J, reduced when the potential edge is stiff."""
    radius = max(2.0 * params.J, params.V * params.half_width**2) + params.omega
    return min(0.02 / params.J, 0.5 / radius)


# One dense N x N product per recorded sample grows as N^2 (25, 150, 700 us
# at N = 101, 201, 401); one sparse RK4 step costs 15-50 us, so the measured
# crossover (stride ~2, ~12 and above 32) fits 2^12.  Twice that keeps every
# preset segment on the exact propagator (the lowest is N = 201 at stride 5).
EXPM_N2_PER_STRIDE = 2**13


def stepping_method(dimension: int, record_stride: int) -> str:
    """'expm' if one dense product per recorded sample beats ``record_stride`` RK4 steps."""
    return "expm" if dimension**2 <= EXPM_N2_PER_STRIDE * record_stride else "rk4"


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step integration parameters.

    ``method`` is 'rk4' (default) or 'expm'; the latter applies the exact
    propagator expm(-i H k dt) once per recorded sample on the same mesh.
    ``record_stride`` thins the recorded observable mesh.
    """

    dt: float
    method: str = "rk4"
    record_stride: int = 1

    def __post_init__(self) -> None:
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise NumericError(f"dt must be positive and finite, got {self.dt!r}")
        if self.method not in ("rk4", "expm"):
            raise NumericError(f"unknown method {self.method!r}")
        if self.record_stride < 1:
            raise NumericError("record_stride must be >= 1")


class ObservableSeries:
    """Time-stamped record of norms, probability and fidelities.

    Fidelity targets are registered at construction (name -> normalized
    state; their raw norms are computed once) and evaluated at every
    recorded time.  Serializes to CSV with columns: time, norm2, P, then one
    F_<name> column per target, all at 17 significant digits.
    """

    def __init__(self, targets: dict[str, SiteState] | None = None):
        self.targets: dict[str, SiteState] = dict(targets or {})
        for name, target in self.targets.items():
            if not target.is_normalized(tol=1e-8):
                raise ModelError(f"fidelity target {name!r} is not Dirac-normalized")
        self._target_norm2 = {name: target.raw_norm2() for name, target in self.targets.items()}
        self.times: list[float] = []
        self.norm2: list[float] = []
        self.prob: list[float] = []
        self.fidelities: dict[str, list[float]] = {name: [] for name in self.targets}

    def __len__(self) -> int:
        return len(self.times)

    def record(self, t: float, state: SiteState) -> None:
        if self.times:
            if t == self.times[-1]:
                return
            if t < self.times[-1]:
                raise ModelError(f"times must be strictly increasing, got {t} after {self.times[-1]}")
        raw_n2 = state.raw_norm2()
        n2 = math.exp(2.0 * state.log_scale) * raw_n2  # SiteState.norm2()
        if not math.isfinite(n2) or n2 < 0:
            raise NumericError(f"non-finite norm at t={t}", failure_time=t)
        self.times.append(float(t))
        self.norm2.append(n2)
        self.prob.append(n2 * n2)
        for name, target in self.targets.items():
            value = _fidelity(target.amplitudes, self._target_norm2[name], state.amplitudes, raw_n2)
            if not 0.0 <= value <= 1.0 + 1e-12:
                raise NumericError(f"fidelity out of [0, 1] at t={t}: {value}", failure_time=t)
            self.fidelities[name].append(min(value, 1.0))

    def column_names(self) -> list[str]:
        return ["time", "norm2", "P"] + [f"F_{name}" for name in self.targets]

    def columns(self) -> list[np.ndarray]:
        cols = [np.asarray(self.times), np.asarray(self.norm2), np.asarray(self.prob)]
        cols.extend(np.asarray(self.fidelities[name]) for name in self.targets)
        return cols

    def to_csv(self) -> str:
        if not self.times:
            raise ModelError("cannot serialize an empty series")
        lines = [",".join(self.column_names())]
        for row in zip(*self.columns()):
            lines.append(",".join(f"{value:.17g}" for value in row))
        return "\n".join(lines) + "\n"


def make_initial_state(
    kind: str,
    params: ChainParams,
    center: int = 0,
    width: float = 10.0,
    seed: int | None = None,
) -> SiteState:
    """Dirac-normalized initial state of one of the four stock profiles.

    point: delta at ``center``; gaussian: exp(-(l-c)^2/(2 w^2)); tophat:
    flat on |l-c| <= w; random: uniform [0, 1) real amplitudes drawn from
    ``seed`` (required, for reproducibility).
    """
    if kind not in STATE_KINDS:
        raise ModelError(f"unknown initial state kind {kind!r}; expected one of {STATE_KINDS}")
    if abs(center) > params.half_width:
        raise ModelError(f"center {center} outside the lattice (|center| <= {params.half_width})")
    l = params.sites()
    if kind == "point":
        amps = np.zeros(params.dimension, dtype=complex)
        amps[center + params.half_width] = 1.0
    elif kind == "gaussian":
        if width <= 0:
            raise ModelError(f"width must be > 0, got {width}")
        amps = np.exp(-((l - center) ** 2) / (2.0 * width**2)).astype(complex)
    elif kind == "tophat":
        if width <= 0:
            raise ModelError(f"width must be > 0, got {width}")
        amps = (np.abs(l - center) <= width).astype(complex)
    else:
        if seed is None:
            raise ModelError("random initial state requires an explicit seed")
        rng = np.random.default_rng(seed)
        amps = rng.random(params.dimension).astype(complex)
    state = SiteState(amps, params.half_width, label=f"{kind} initial state")
    return state.normalized()


def rk4_step_operator(h: Hamiltonian, dt: float) -> scipy.sparse.csr_array:
    """One classical RK4 step of dpsi/dt = -i H psi as a sparse matrix.

    For a linear system the four stages collapse into the degree-4 Taylor
    polynomial P = I + A + A^2/2 + A^3/6 + A^4/24 with A = -i H dt, built
    here in Horner form; for a tridiagonal H it has 9 diagonals.
    """
    off = np.full(h.dimension - 1, -1j * dt * h.off_diagonal)
    a = scipy.sparse.diags_array([off, -1j * dt * h.diagonal, off], offsets=[-1, 0, 1], format="csr")
    identity = scipy.sparse.eye_array(h.dimension, dtype=complex, format="csr")
    step = identity
    for k in (4, 3, 2, 1):
        step = identity + (a @ step) / k
    return step


def _checked_log_scale(y: np.ndarray, log_scale: float, t: float) -> float:
    """Fail on non-finite amplitudes; rescale ``y`` in place before it underflows."""
    norm = float(scipy.linalg.norm(y, check_finite=False))  # scaled: exact where |y|^2 underflows
    if not math.isfinite(norm):
        raise NumericError(f"non-finite amplitudes at t = {t:g}", failure_time=t)
    if 0.0 < norm < UNDERFLOW_GUARD:
        y /= norm
        log_scale += math.log(norm)
    return log_scale


def propagate(
    h: Hamiltonian,
    state: SiteState,
    t_span,
    config: IntegratorConfig,
    series: ObservableSeries | None = None,
) -> SiteState:
    """Evolve ``state`` under dpsi/dt = -i H psi on a uniform mesh.

    ``t_span`` is (t0, t1) or a bare end time (then t0 = 0).  The state is
    returned raw (decaying), with any underflow-prevention factor recorded
    in ``log_scale``.  Both methods record at the same times: every
    ``record_stride`` steps and at the last step.  With ``method='expm'``
    the evolution between two recorded samples is the exact propagator
    expm(-i H k dt), built once per chunk length k.
    """
    t0, t1 = (0.0, float(t_span)) if np.isscalar(t_span) else (float(t_span[0]), float(t_span[1]))
    if t1 < t0:
        raise NumericError(f"t_span end {t1} precedes start {t0}")
    if h.dimension != state.dimension:
        raise ModelError(f"dimension mismatch: H is {h.dimension}, state is {state.dimension}")
    if t1 == t0:
        if series is not None:
            series.record(t0, state)
        return state

    limit = stability_limit(h)
    if config.dt > limit:
        raise NumericError(
            f"dt = {config.dt:g} exceeds the stability limit {limit:g} for this matrix"
        )

    n_steps = max(1, round((t1 - t0) / config.dt))
    dt = (t1 - t0) / n_steps
    y = state.amplitudes.copy()
    log_scale = state.log_scale

    def record(step: int) -> None:
        if series is not None:
            t = t0 + step * dt
            series.record(t, SiteState(y, h.half_width, label=state.label, log_scale=log_scale))

    record(0)
    if config.method == "expm":
        dense = h.to_dense()
        propagators: dict[int, np.ndarray] = {}
        step = 0
        while step < n_steps:
            k = min(config.record_stride, n_steps - step)
            if k not in propagators:
                propagators[k] = scipy.linalg.expm(dense * (-1j * k * dt))
            y = propagators[k] @ y
            step += k
            log_scale = _checked_log_scale(y, log_scale, t0 + step * dt)
            record(step)
        return SiteState(y, h.half_width, label=state.label, log_scale=log_scale)

    operator = rk4_step_operator(h, dt)
    for step in range(1, n_steps + 1):
        y = operator @ y
        if step % 32 == 0 or step == n_steps:
            log_scale = _checked_log_scale(y, log_scale, t0 + step * dt)
        if step % config.record_stride == 0 or step == n_steps:
            record(step)
    return SiteState(y, h.half_width, label=state.label, log_scale=log_scale)


def eigen_propagate(spectrum: Spectrum, h: Hamiltonian, state: SiteState, t: float) -> SiteState:
    """Single-time exact mode-expansion evolution (the integrator oracle)."""
    if len(spectrum) != h.dimension:
        raise NumericError(
            f"eigen expansion needs all {h.dimension} modes, spectrum has {len(spectrum)}"
        )
    coeffs = expansion_coefficients(state, spectrum)
    vectors = np.column_stack([m.right_vector.amplitudes for m in spectrum.modes])
    y = vectors @ (coeffs * np.exp(-1j * spectrum.energies() * t))
    return SiteState(y, h.half_width, label=state.label, log_scale=state.log_scale)


def expansion_coefficients(state: SiteState, spec: Spectrum) -> np.ndarray:
    """Coefficients c_n = <left_n|state> in the biorthogonal basis, in mode order."""
    return np.array([dirac_overlap(mode.left_vector, state) for mode in spec.modes], dtype=complex)


def fidelity(target: SiteState, evolved: SiteState) -> float:
    """|<target|evolved>|^2 with the evolved state renormalized.

    Scale-invariant in both arguments, so the split-off ``log_scale``
    factors drop out; always in [0, 1].
    """
    return _fidelity(target.amplitudes, target.raw_norm2(), evolved.amplitudes, evolved.raw_norm2())


def _fidelity(target: np.ndarray, target_n2: float, evolved: np.ndarray, evolved_n2: float) -> float:
    denom = evolved_n2 * target_n2
    if denom == 0.0:
        raise ModelError("fidelity undefined for a zero state")
    overlap = np.vdot(target, evolved)
    return float(abs(overlap) ** 2 / denom)


def dirac_probability(state: SiteState) -> float:
    """Square of the Dirac norm-squared, (sum |psi(l)|^2)^2."""
    n2 = state.norm2()
    return n2 * n2


def run_convergence_experiment(
    kinds,
    params: ChainParams,
    t_end: float,
    config: IntegratorConfig | None = None,
    seed: int = DEFAULT_SEED,
    center: int = 0,
    width: float = 10.0,
) -> dict[str, ObservableSeries]:
    """Propagate each stock initial state and track fidelity to |g> and |e>.

    The targets are the two slowest-decaying numeric eigenmodes of the
    chain.  Returns one series per requested kind.
    """
    h = build_hamiltonian(params)
    spec = numeric_spectrum(h, count=2)
    ground, excited = spec.stable_pair()
    targets = {"g": ground.right_vector, "e": excited.right_vector}
    if config is None:
        config = IntegratorConfig(dt=default_dt(params))

    results: dict[str, ObservableSeries] = {}
    for kind in kinds:
        initial = make_initial_state(kind, params, center=center, width=width, seed=seed)
        series = ObservableSeries(targets=targets)
        propagate(h, initial, t_end, config, series=series)
        results[kind] = series
    return results
