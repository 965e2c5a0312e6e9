"""Time evolution under the dissipative chain and the derived observables.

States are propagated without renormalization: the returned amplitudes are
the raw decaying ones, except that an overall factor is split off into
``SiteState.log_scale`` if the norm would otherwise underflow.
``propagate`` steps a sequence of states over a span (t0, t1) as the
columns of one N x k block, each column keeping its own ``log_scale``,
and returns them as a list; recorded samples reach an
``ObservableSeries`` in bounded chunks, whose norms and fidelities are
computed per chunk.

Both stepping routes apply ``taylor_operator(h, tau, p)``, the degree-p
Taylor polynomial of expm(-i H tau) as a CSR matrix with 2p + 1 diagonals.
Each ``propagate`` call picks its route with ``stepping_method`` on the
Hamiltonian it steps, at the step actually taken, dt = (t1 - t0) / n_steps,
and the sample actually taken, at most n_steps steps.
RK4 is p = 4 at tau = dt, taken only within ``stability_limit``.  The
exact route ('expm') applies it s times per recorded sample of k steps, at
tau = k dt/s, with (p, s) from ``taylor_terms``: p <= MAX_DEGREE and
x^(p+1)/(p+1)! e^x <= 2^-53 for x = ||H||_inf tau.  The remainder then moves
each entry of a column y by at most 2^-53 ||y||_inf, so y by at most
sqrt(N) 2^-53 ||y||_2, for any matrix; as ||expm(-i H t)||_2 <= exp(omega t)
(max Im H_ll = omega), a sample is off expm(-i H k dt) y(t_j) by at most
s sqrt(N) 2^-53 exp(omega k dt) ||y(t_j)||_2, to first order.  Rounding comes
on top: Horner's sums reach e^x ||y||, so a part of y that decays like e^-x
(the stiff edge) is rounded to about 2^-53 e^(2x) of itself.  There is no
dimension cap: an operator holds (2p + 1) N entries.  The mode expansion
``eigen_propagate``, its coefficients solved over the full spectrum's
right vectors, is the oracle for both routes.

Every check of the block (each exact sample, every RK4_CHECK_EVERY-th RK4
step) zeroes the real and imaginary parts of each column y below
FLUSH_RELATIVE ||y||, since x86 arithmetic on subnormal numbers is many
times slower.  A flush at t_j changes y by at most sqrt(2N) FLUSH_RELATIVE
relative; by t_j + tau that error grows by at most exp(omega tau) ||y(t_j)||
/ ||y(t_j + tau)|| (RK4 follows the exact flow to its truncation error).
Between checks a product shrinks a part by at most the operator's smallest
entry, (dt J)^4/24 for RK4.  A column whose norm falls below UNDERFLOW_GUARD
is split into its ``log_scale`` at the check, so the parts kept there are
at least about 1e-200 and the products up to the next check stay normal.
Recorded norms are unchanged: a flushed part squares to below 1e-300 ||y||^2.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from .model import (ChainParams, Hamiltonian, ModelError, NumericError, SiteState,
                    build_hamiltonian, row_norm2)
from .spectral import Spectrum, dirac_overlap, numeric_spectrum

__all__ = [
    "IntegratorConfig",
    "ObservableSeries",
    "DEFAULT_SEED",
    "STATE_KINDS",
    "default_dt",
    "stepping_method",
    "make_initial_state",
    "propagate",
    "taylor_operator",
    "taylor_terms",
    "eigen_propagate",
    "expansion_coefficients",
    "fidelity",
    "dirac_probability",
    "run_convergence_experiment",
]

DEFAULT_SEED = 223
# A column whose norm is below this is split into its log_scale at a check.
UNDERFLOW_GUARD = 1e-50
# Parts below this times their column's norm are zeroed (module docstring).
FLUSH_RELATIVE = 1e-150
# RK4 steps between two checks of the block: 4-8 measured fastest on an
# N = 801, stride-1 run.
RK4_CHECK_EVERY = 8
# Recorded samples reach an ObservableSeries in chunks of at most this many
# bytes of amplitudes, so a long stride-1 run never holds its trajectory.
RECORD_CHUNK_BYTES = 2**20
STATE_KINDS = ("point", "gaussian", "tophat", "random")


def stability_limit(h: Hamiltonian) -> float:
    """Largest stable dt for the explicit integrator on this matrix, 2.5 / ||H||_inf.

    By Gershgorin every z = -i E dt then lies within 2.5 of 0, inside the
    left half-disc of radius 2.61 that the classical RK4 stability region
    holds (Re z = Im E dt is at most omega dt on the chain).
    Accuracy-motivated defaults (``default_dt``) are much stricter.
    """
    return 2.5 / h.norm


def default_dt(params: ChainParams) -> float:
    """Default step: 0.02/J, reduced when the potential edge is stiff."""
    radius = max(2.0 * params.J, params.V * params.half_width**2) + params.omega
    return min(0.02 / params.J, 0.5 / radius)


# Highest Taylor degree of the exact route, as in Al-Mohy and Higham, SIAM
# J. Sci. Comput. 33:488-511 (2011), "Computing the action of the matrix exponential".
MAX_DEGREE = 55


def _theta(degree: int) -> float:
    """Largest x with x^(p+1) / (p+1)! e^x <= 2^-53 for p = ``degree``, by bisection."""
    lo, hi = 0.0, 2.0 * MAX_DEGREE
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        within = mid ** (degree + 1) / math.factorial(degree + 1) * math.exp(mid) <= 2.0**-53
        lo, hi = (mid, hi) if within else (lo, mid)
    return lo


_THETA = {degree: _theta(degree) for degree in range(1, MAX_DEGREE + 1)}


def taylor_terms(h: Hamiltonian, tau: float) -> tuple[int, int]:
    """Degree p and substeps s over ``tau``: fewest nonzeros s (2p + 1), lower p on a tie.

    Each substep's x = ||H||_inf tau / s meets the module docstring's bound;
    only degrees with s below 2**53 count.
    """
    x = h.norm * tau
    candidates = [(degree, max(1, math.ceil(x / theta)))
                  for degree, theta in _THETA.items() if x / theta < 2**53]
    if not candidates:
        raise ModelError(f"a span of {tau:g} needs more than 2**53 Taylor substeps")
    return min(candidates, key=lambda terms: terms[1] * (2 * terms[0] + 1))


def stepping_method(h: Hamiltonian, dt: float, record_stride: int) -> str:
    """'rk4' if ``record_stride`` RK4 steps of ``dt`` are stable and cheaper than one exact sample.

    Cheaper means fewer nonzeros applied: 9 per RK4 step against s (2p + 1)
    per exact sample (``taylor_terms``).  Everything else steps exactly.
    """
    degree, substeps = taylor_terms(h, record_stride * dt)
    rk4 = dt <= stability_limit(h) and substeps * (2 * degree + 1) > 9 * record_stride
    return "rk4" if rk4 else "expm"


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step integration parameters.

    ``record_stride`` thins the recorded observable mesh.  ``propagate``
    picks the stepping route for the Hamiltonian it steps
    (``stepping_method``).
    """

    dt: float
    record_stride: int = 1

    def __post_init__(self) -> None:
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ModelError(f"dt must be positive and finite, got {self.dt!r}")
        if not isinstance(self.record_stride, (int, np.integer)) or self.record_stride < 1:
            raise ModelError(f"record_stride must be an integer >= 1, got {self.record_stride!r}")


class ObservableSeries:
    """Time-stamped record of norms, probability and fidelities.

    Fidelity targets are registered at construction (name -> normalized
    state; their raw norms are computed once) and evaluated at every
    recorded time.  Samples arrive in chunks (see ``record``).  Serializes
    to CSV with columns: time, norm2, P, then one F_<name> column per
    target, all at 17 significant digits.
    """

    def __init__(self, targets: dict[str, SiteState] | None = None):
        self.targets: dict[str, SiteState] = dict(targets or {})
        for name, target in self.targets.items():
            if not target.is_normalized(tol=1e-8):
                raise ModelError(f"fidelity target {name!r} is not Dirac-normalized")
        self._target_rows = np.array([target.amplitudes.conj() for target in self.targets.values()])
        self._target_norm2 = np.array([target.raw_norm2() for target in self.targets.values()])
        self.times: list[float] = []
        self.norm2: list[float] = []
        self.prob: list[float] = []
        self.fidelities: dict[str, list[float]] = {name: [] for name in self.targets}

    def __len__(self) -> int:
        return len(self.times)

    def record(self, times, samples: np.ndarray, log_scale) -> None:
        """Append one chunk of samples.

        Row i of the s x N array ``samples`` is the raw state at
        ``times[i]``, with ``log_scale[i]`` its split-off factor.  Times must
        increase strictly, except that a first time equal to the last one
        recorded is skipped: two segments share their seam sample.
        """
        times = np.asarray(times, dtype=float)
        log_scale = np.asarray(log_scale, dtype=float)
        if self.times and len(times) and times[0] == self.times[-1]:
            times, samples, log_scale = times[1:], samples[1:], log_scale[1:]
        if not len(times):
            return
        before = np.concatenate([self.times[-1:] or [-math.inf], times[:-1]])
        if np.any(times <= before):
            i = int(np.argmax(times <= before))
            raise ModelError(
                f"times must be strictly increasing, got {times[i]} after {before[i]}"
            )
        raw_n2 = row_norm2(samples)
        n2 = np.exp(2.0 * log_scale) * raw_n2  # SiteState.norm2()
        _raise_at_first(~np.isfinite(n2), times, "non-finite norm")
        fidelities = {}
        if self.targets:
            denom = self._target_norm2[:, None] * raw_n2
            if np.any(denom == 0.0):
                raise ModelError("fidelity undefined for a zero state")
            values = np.abs(_overlaps(self._target_rows, samples)) ** 2 / denom
            in_range = (values >= 0.0) & (values <= 1.0 + 1e-12)
            _raise_at_first(~in_range.all(axis=0), times, "fidelity out of [0, 1]")
            fidelities = dict(zip(self.targets, np.minimum(values, 1.0)))
        self.times.extend(times.tolist())
        self.norm2.extend(n2.tolist())
        self.prob.extend((n2 * n2).tolist())
        for name, values in fidelities.items():
            self.fidelities[name].extend(values.tolist())

    def to_csv(self) -> str:
        if not self.times:
            raise ModelError("cannot serialize an empty series")
        header = ",".join(["time", "norm2", "P"] + [f"F_{name}" for name in self.targets])
        columns = [self.times, self.norm2, self.prob] + list(self.fidelities.values())
        row = ",".join(["%.17g"] * len(columns)) + "\n"  # as f"{value:.17g}"
        return header + "\n" + (row * len(self.times)) % tuple(np.array(columns).T.ravel().tolist())


def _overlaps(conj_targets: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """<target|sample> for each conjugated target row and sample row (t x s).

    An entry's bits do not depend on the number of rows.  einsum rather than
    BLAS: a threaded BLAS call after a stretch of sparse RK4 steps waits for
    the BLAS threads to wake, measured 1-30 ms with two OpenBLAS threads.
    """
    return np.einsum("tn,sn->ts", conj_targets, samples)


def _raise_at_first(bad: np.ndarray, times: np.ndarray, what: str) -> None:
    if bad.any():
        raise NumericError(f"{what} at t={float(times[np.argmax(bad)])}")


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
        if not (width > 0 and math.isfinite(width * width)):  # width**2 raises on overflow
            raise ModelError(f"width must be > 0 with a finite square, got {width}")
        with np.errstate(divide="ignore", invalid="ignore"):  # width**2 == 0 fails in normalized()
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
    state = SiteState(amps, params.half_width)
    return state.normalized()


def taylor_operator(h: Hamiltonian, tau: float, degree: int) -> scipy.sparse.csr_array:
    """Degree-p Taylor polynomial of expm(-i H tau) as a sparse matrix with 2p + 1 diagonals.

    Built in Horner form, I + A (I + A/2 (... (I + A/p))) with A = -i H tau.
    Degree 4 at tau = dt is one classical RK4 step: for a linear system the
    four stages collapse into this polynomial.
    """
    a = h.matrix * (-1j * tau)
    identity = scipy.sparse.eye_array(h.dimension, dtype=complex, format="csr")
    step = identity
    for k in range(degree, 0, -1):
        step = identity + (a @ step) / k
    return step


def _step_operators(h: Hamiltonian, dt: float, n_steps: int, stride: int):
    """(jump, check_every, {k: (operator, substeps)}): k steps are ``substeps`` products.

    The route is ``stepping_method`` on ``h`` at the step actually taken, ``dt``,
    and at the sample actually taken, at most ``n_steps`` steps.
    """
    sample = min(stride, n_steps)
    if stepping_method(h, dt, sample) == "rk4":
        return 1, RK4_CHECK_EVERY, {1: (taylor_operator(h, dt, 4), 1)}
    operators = {}
    for k in {sample, n_steps % stride} - {0}:  # full chunks, remainder
        degree, substeps = taylor_terms(h, k * dt)
        operators[k] = (taylor_operator(h, k * dt / substeps, degree), substeps)
    return stride, 1, operators


def _check_columns(y: np.ndarray, log_scale: np.ndarray, t: float) -> None:
    """Fail on non-finite amplitudes; rescale each column of ``y`` before it underflows.

    A column of norm below UNDERFLOW_GUARD is divided by its norm, which goes
    into ``log_scale``.  Then zero the parts of each column below
    FLUSH_RELATIVE times its norm (the norm after the split): this removes at
    most sqrt(2N) FLUSH_RELATIVE of the column, relative to its norm (the
    module docstring bounds how that error grows), and keeps no part below
    about UNDERFLOW_GUARD * FLUSH_RELATIVE = 1e-200.
    """
    limits = np.empty(y.shape[1])
    for j in range(y.shape[1]):
        # BLAS nrm2 scales: exact where |y|^2 underflows.  Called directly,
        # it costs half of scipy.linalg.norm's wrapper on these short columns.
        norm = float(scipy.linalg.blas.dznrm2(y[:, j]))
        if not math.isfinite(norm):
            raise NumericError(f"non-finite amplitudes at t = {t:g}")
        if 0.0 < norm < UNDERFLOW_GUARD:
            y[:, j] /= norm
            log_scale[j] += math.log(norm)
            norm = 1.0
        limits[j] = FLUSH_RELATIVE * norm
    parts = y.view(np.float64).reshape(*y.shape, 2)  # [site, column, real/imaginary]
    parts[np.abs(parts) < limits[:, None]] = 0.0


def propagate(
    h: Hamiltonian,
    states: Sequence[SiteState],
    t_span: tuple[float, float],
    config: IntegratorConfig,
    series: Sequence[ObservableSeries] | None = None,
) -> list[SiteState]:
    """Evolve k ``states`` from t0 to t1, ``t_span`` = (t0, t1), under dpsi/dt = -i H psi.

    The states are stepped together as the columns of one N x k block on
    a uniform mesh: each product with a Taylor operator advances all k.
    ``series`` is None or one ObservableSeries per state.  Returns the k
    states raw (decaying), each with its own underflow-prevention factor
    in ``log_scale``.  The route is ``stepping_method`` on ``h`` at the
    step actually taken, (t1 - t0) / n_steps, so RK4 never runs past
    ``stability_limit``; on the exact route each recorded sample is exact
    to the bound in the module docstring.  Both routes record at the same
    times: every ``record_stride`` steps and at the last step, handed to
    the series in chunks of at most RECORD_CHUNK_BYTES.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if t1 < t0:
        raise ModelError(f"t_span end {t1} precedes start {t0}")
    states = list(states)
    if not states:
        raise ModelError("no state to propagate")
    if series is not None and len(series) != len(states):
        raise ModelError(f"{len(series)} series for {len(states)} states")
    for s in states:
        if h.dimension != s.dimension:
            raise ModelError(f"dimension mismatch: H is {h.dimension}, state is {s.dimension}")

    if t1 == t0:
        for target, s in zip(series or (), states):
            target.record([t0], s.amplitudes[None], [s.log_scale])
        return states

    n_steps = max(1, round((t1 - t0) / config.dt))
    dt = (t1 - t0) / n_steps
    jump, check_every, operators = _step_operators(h, dt, n_steps, config.record_stride)

    y = np.column_stack([s.amplitudes for s in states])
    log_scale = np.array([s.log_scale for s in states])
    n_records = n_steps // config.record_stride + 2 if series else 0
    rows = min(n_records, max(1, RECORD_CHUNK_BYTES // (16 * y.size)))
    chunk = np.empty((len(states), rows, h.dimension), dtype=complex)
    chunk_times = np.empty(rows)
    chunk_logs = np.empty((len(states), rows))
    filled = 0

    def record(step: int) -> None:
        nonlocal filled
        if series is None:
            return
        chunk_times[filled] = t0 + step * dt
        chunk[:, filled] = y.T
        chunk_logs[:, filled] = log_scale
        filled += 1
        if filled == rows or step == n_steps:
            for j, target in enumerate(series):
                target.record(chunk_times[:filled], chunk[j, :filled], chunk_logs[j, :filled])
            filled = 0

    record(0)
    step = 0
    while step < n_steps:
        k = min(jump, n_steps - step)
        operator, substeps = operators[k]
        for _ in range(substeps):
            y = operator @ y
        step += k
        if step % check_every == 0 or step == n_steps:
            _check_columns(y, log_scale, t0 + step * dt)
        if step % config.record_stride == 0 or step == n_steps:
            record(step)
    return [SiteState(y[:, j], h.half_width, log_scale=float(log_scale[j]))
            for j in range(len(states))]


def eigen_propagate(spectrum: Spectrum, h: Hamiltonian, state: SiteState, t: float) -> SiteState:
    """Single-time exact mode-expansion evolution (the integrator oracle).

    The coefficients solve R c = state over the right vectors R: projections
    (``expansion_coefficients``) lose a long chain's ill-conditioned deep modes.
    """
    if len(spectrum) != h.dimension:
        raise ModelError(
            f"eigen expansion needs all {h.dimension} modes, spectrum has {len(spectrum)}"
        )
    vectors = np.column_stack([m.right_vector.amplitudes for m in spectrum.modes])
    coeffs = np.linalg.solve(vectors, state.amplitudes)
    y = vectors @ (coeffs * np.exp(-1j * spectrum.energies() * t))
    return SiteState(y, h.half_width, log_scale=state.log_scale)


def expansion_coefficients(state: SiteState, spec: Spectrum) -> np.ndarray:
    """Coefficients c_n = <left_n|state> in the biorthogonal basis, in mode order."""
    return np.array([dirac_overlap(mode.left_vector, state) for mode in spec.modes], dtype=complex)


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


def dirac_probability(state: SiteState) -> float:
    """Square of the Dirac norm-squared, (sum |psi(l)|^2)^2."""
    n2 = state.norm2()
    return n2 * n2


def run_convergence_experiment(
    initials: dict[str, SiteState],
    params: ChainParams,
    t_end: float,
    config: IntegratorConfig,
) -> dict[str, ObservableSeries]:
    """Propagate the named initial states and track fidelity to |g> and |e>.

    The targets are the two slowest-decaying numeric eigenmodes of the
    chain.  All states are stepped as one block.  Returns one series per
    name of ``initials``, in its order.
    """
    h = build_hamiltonian(params)
    spec = numeric_spectrum(h, count=2)
    ground, excited = spec.stable_pair()
    targets = {"g": ground.right_vector, "e": excited.right_vector}

    series = {name: ObservableSeries(targets=targets) for name in initials}
    propagate(h, list(initials.values()), (0.0, t_end), config, series=list(series.values()))
    return series
