"""Time evolution under the dissipative chain and the derived observables.

States are propagated without renormalization: the returned amplitudes are
the raw decaying ones, except that an overall factor is split off into
``SiteState.log_scale`` if the norm would otherwise underflow.
``propagate`` steps a sequence of states over a span (t0, t1) as the
columns of one N x k block, each column keeping its own ``log_scale``,
and returns them as a list; recorded samples reach an
``ObservableSeries`` in bounded chunks, whose norms and fidelities are
computed per chunk.  ``two_mode_series`` writes the norm of a sum of two
eigenmodes in closed form, on the times ``propagate`` records over the
same span (``_time_grid``), without stepping.

Both stepping routes apply ``taylor_operator(h, tau, p)``, the degree-p
Taylor polynomial of expm(-i H tau) as a CSR matrix with 2p + 1 diagonals.
Each ``propagate`` call picks its route with ``stepping_method`` on the
Hamiltonian it steps, at the step actually taken, dt = (t1 - t0) / n_steps,
and the sample actually taken, at most n_steps steps.
RK4 is p = 4 at tau = dt, taken only within ``stability_limit``.  The
exact route ('exact') applies it s times per recorded sample of k steps, at
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

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from .model import ChainParams, Hamiltonian, ModelError, NumericError, SiteState, row_norm2
from .spectral import EigenMode, Spectrum, dirac_overlap, numeric_spectrum

__all__ = [
    "IntegratorConfig",
    "ObservableSeries",
    "DEFAULT_SEED",
    "STATE_KINDS",
    "default_dt",
    "stepping_method",
    "make_initial_state",
    "propagate",
    "two_mode_series",
    "taylor_operator",
    "taylor_terms",
    "eigen_propagate",
    "fidelity",
    "run_convergence_experiment",
]

DEFAULT_SEED = 223
# A column whose norm is below this is split into its log_scale at a check.
UNDERFLOW_GUARD = 1e-50
# Parts below this times their column's norm are zeroed (module docstring).
FLUSH_RELATIVE = 1e-150
# RK4 steps between two checks of the block: 8 and 16 tie, 4 costs 20% more
# at M = 400 (stride-1 convergence runs at M = 100 and 400, switch at M = 100).
RK4_CHECK_EVERY = 8
# Recorded samples reach an ObservableSeries in chunks of at most this many
# bytes of amplitudes, so a long stride-1 run never holds its trajectory.
RECORD_CHUNK_BYTES = 2**20
# Most operator products a ``propagate`` call plans, and most times ``_time_grid``
# records: at N <= 801 a product took up to 0.75 ms, a recorded time 0.9 kB of peak RSS (README).
MAX_WORK = 2**20
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
    return "rk4" if rk4 else "exact"


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
    recorded time.  Samples arrive in chunks (see ``record``), each kept as
    one float64 block whose columns are ``header``: time, norm2, P, then one
    F_<name> per target.  ``series[name]`` reads a column by its header
    name; ``to_csv`` writes the blocks under the header, 17 significant digits.
    """

    def __init__(self, targets: dict[str, SiteState] | None = None):
        self.targets: dict[str, SiteState] = dict(targets or {})
        for name, target in self.targets.items():
            if abs(target.norm2() - 1.0) > 1e-8:
                raise ModelError(f"fidelity target {name!r} is not Dirac-normalized")
        self._target_rows = np.array([target.amplitudes.conj() for target in self.targets.values()])
        self._target_norm2 = np.array([target.raw_norm2() for target in self.targets.values()])
        self.header = ("time", "norm2", "P", *(f"F_{name}" for name in self.targets))
        self._blocks: list[np.ndarray] = []  # rows x len(header), float64

    def __len__(self) -> int:
        return sum(len(block) for block in self._blocks)

    def __getitem__(self, name: str) -> np.ndarray:
        """The column named ``name`` in ``header``, as a new float64 array (ValueError if none)."""
        column = self.header.index(name)
        return np.concatenate([block[:, column] for block in self._blocks] or [np.empty(0)])

    def record(self, times, samples: np.ndarray, log_scale) -> None:
        """Append one chunk of samples (``_append`` checks the times and norms).

        Row i of the s x N array ``samples`` is the raw state at
        ``times[i]``, with ``log_scale[i]`` its split-off factor.
        """
        raw_n2 = row_norm2(samples)
        n2 = np.exp(2.0 * np.asarray(log_scale, dtype=float)) * raw_n2  # SiteState.norm2()
        self._append(times, n2, samples, raw_n2)

    def _append(self, times, n2: np.ndarray, samples=None, raw_n2=None) -> None:
        """Append rows of norm^2 ``n2`` at ``times``; the one way rows enter a series.

        Times must increase strictly, except that a first time equal to the
        last one recorded is skipped: two segments share their seam sample.
        A non-finite P = norm2^2, as from a non-finite norm2, raises
        NumericError at its time.  With targets, the fidelities come from
        the raw ``samples``, of norm^2 ``raw_n2``.
        """
        times = np.asarray(times, dtype=float)
        last = self._blocks[-1][-1, 0] if self._blocks else -math.inf
        start = int(bool(self._blocks) and len(times) > 0 and times[0] == last)
        times, n2 = times[start:], n2[start:]
        if not len(times):
            return
        before = np.concatenate([[last], times[:-1]])
        if np.any(times <= before):
            i = int(np.argmax(times <= before))
            raise ModelError(f"times must be strictly increasing, got {times[i]} after {before[i]}")
        with np.errstate(over="ignore"):
            prob = n2 * n2
        _raise_at_first(~np.isfinite(prob), times, "non-finite norm")
        columns = [times, n2, prob]
        if self.targets:
            samples, raw_n2 = samples[start:], raw_n2[start:]
            denom = self._target_norm2[:, None] * raw_n2
            if np.any(denom == 0.0):
                raise ModelError("fidelity undefined for a zero state")
            values = np.abs(_overlaps(self._target_rows, samples)) ** 2 / denom
            in_range = (values >= 0.0) & (values <= 1.0 + 1e-12)
            _raise_at_first(~in_range.all(axis=0), times, "fidelity out of [0, 1]")
            columns.extend(np.minimum(values, 1.0))
        self._blocks.append(np.column_stack(columns))

    def to_csv(self) -> str:
        if not self._blocks:
            raise ModelError("cannot serialize an empty series")
        row = ",".join(["%.17g"] * len(self.header)) + "\n"  # as f"{value:.17g}"
        return ",".join(self.header) + "\n" + "".join(
            (row * len(block)) % tuple(block.ravel().tolist()) for block in self._blocks)


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
        if not (width > 0 and 0 < width * width < math.inf):  # width**2 raises on overflow
            raise ModelError(f"width must be > 0 with a finite square, got {width}")
        with np.errstate(over="ignore"):  # a subnormal width**2 sends l != c to exp(-inf) = 0
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


def _check_work(count: int, what: str) -> None:
    if count > MAX_WORK:
        raise ModelError(f"the span needs {count:,} {what}, above MAX_WORK = {MAX_WORK:,}")


def _time_grid(t_span: tuple[float, float], config: IntegratorConfig):
    """(dt, n_steps, steps, time): the uniform mesh over ``t_span`` = (t0, t1) and its records.

    n_steps = max(1, round((t1 - t0) / config.dt)) steps of dt = (t1 - t0) / n_steps,
    none over a zero span.  ``steps`` yields the recorded steps lazily: the
    multiples of ``record_stride`` below n_steps, then n_steps; more than
    MAX_WORK of them raise ModelError, and so do last recorded times that
    round to the same float (the smallest gaps, where a float's spacing is
    widest).  ``time`` maps a step, or an array of them, to t0 + step dt.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if t1 < t0:
        raise ModelError(f"t_span end {t1} precedes start {t0}")
    n_steps = max(1, round((t1 - t0) / config.dt)) if t1 > t0 else 0
    dt = (t1 - t0) / max(1, n_steps)
    _check_work(-(-n_steps // config.record_stride) + 1, "recorded times")
    last = (n_steps - 1) // config.record_stride * config.record_stride
    ends = [t0 + step * dt for step in (last - config.record_stride, last, n_steps) if step >= 0]
    if not all(a < b for a, b in zip(ends, ends[1:])):
        raise ModelError(f"dt = {config.dt!r} is too small for the span ({t0!r}, {t1!r}): "
                         "recorded times round to the same float")
    steps = itertools.chain(range(0, n_steps, config.record_stride), [n_steps])
    return dt, n_steps, steps, lambda step: t0 + step * dt


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
    to the bound in the module docstring.  Both routes record at the
    times of ``_time_grid``: every ``record_stride`` steps and at the last
    step, handed to the series in chunks of at most RECORD_CHUNK_BYTES.
    More than MAX_WORK planned operator products raise ModelError.
    """
    dt, n_steps, recorded, time = _time_grid(t_span, config)
    states = list(states)
    if not states:
        raise ModelError("no state to propagate")
    if series is not None and len(series) != len(states):
        raise ModelError(f"{len(series)} series for {len(states)} states")
    for s in states:
        if h.dimension != s.dimension:
            raise ModelError(f"dimension mismatch: H is {h.dimension}, state is {s.dimension}")

    if not n_steps:
        for target, s in zip(series or (), states):
            target.record([time(0)], s.amplitudes[None], [s.log_scale])
        return states

    jump, check_every, operators = _step_operators(h, dt, n_steps, config.record_stride)
    samples = {jump: n_steps // jump, n_steps % jump: 1}  # samples of k steps, by k
    _check_work(sum(samples[k] * s for k, (_, s) in operators.items()), "operator products")

    y = np.column_stack([s.amplitudes for s in states])
    log_scale = np.array([s.log_scale for s in states])
    n_records = n_steps // config.record_stride + 2 if series else 0
    rows = min(n_records, max(1, RECORD_CHUNK_BYTES // (16 * y.size)))
    chunk = np.empty((len(states), rows, h.dimension), dtype=complex)
    chunk_times = np.empty(rows)
    chunk_logs = np.empty((len(states), rows))
    filled = 0

    step = 0
    for sample_step in recorded:
        while step < sample_step:
            k = min(jump, sample_step - step)
            operator, substeps = operators[k]
            for _ in range(substeps):
                y = operator @ y
            step += k
            if step % check_every == 0 or step == n_steps:
                _check_columns(y, log_scale, time(step))
        if series is None:
            continue
        chunk_times[filled] = time(step)
        chunk[:, filled] = y.T
        chunk_logs[:, filled] = log_scale
        filled += 1
        if filled == rows or step == n_steps:
            for j, target in enumerate(series):
                target.record(chunk_times[:filled], chunk[j, :filled], chunk_logs[j, :filled])
            filled = 0
    return [SiteState(y[:, j], h.half_width, log_scale=float(log_scale[j]))
            for j in range(len(states))]


def two_mode_series(ground: EigenMode, excited: EigenMode, t_span: tuple[float, float],
                    config: IntegratorConfig) -> ObservableSeries:
    """Norm and probability of (g + e) / ||g + e|| in closed form, at ``propagate``'s times.

    g and e are the modes' right vectors, and each evolves exactly as
    exp(-i E t).  So at a time t after t0, exact up to the eigenpairs' error,

        norm2(t) = (||g||^2 exp(2 Im E_g t) + ||e||^2 exp(2 Im E_e t)
                    + 2 Re(<g|e> exp(i (conj(E_g) - E_e) t))) / ||g + e||^2

    and P = norm2^2.  The denominator is the numerator at t = 0, so norm2
    starts at exactly 1.  ``config`` sets only the times (``_time_grid``).
    """
    dt, _, steps, time = _time_grid(t_span, config)
    steps = np.fromiter(steps, dtype=float)  # as float(step), exact below 2**53
    times, elapsed = time(steps), steps * dt
    g, e = ground.right_vector, excited.right_vector
    beat = 1j * (ground.energy.conjugate() - excited.energy)
    with np.errstate(over="ignore", invalid="ignore"):  # _append reports a non-finite norm
        weight = (g.raw_norm2() * np.exp(2.0 * ground.energy.imag * elapsed)
                  + e.raw_norm2() * np.exp(2.0 * excited.energy.imag * elapsed)
                  + 2.0 * (dirac_overlap(g, e) * np.exp(beat * elapsed)).real)
        n2 = weight / weight[0]
    series = ObservableSeries()
    series._append(times, n2)
    return series


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
    y = vectors @ (coeffs * np.exp(-1j * spectrum.energies() * t))
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


def run_convergence_experiment(
    initials: dict[str, SiteState],
    h: Hamiltonian,
    t_end: float,
    config: IntegratorConfig,
) -> dict[str, ObservableSeries]:
    """Propagate the named initial states and track fidelity to |g> and |e>.

    The targets are the two slowest-decaying numeric eigenmodes of the
    built chain ``h``.  All states are stepped as one block.  Returns one
    series per name of ``initials``, in its order.
    """
    spec = numeric_spectrum(h, count=2)
    ground, excited = spec.stable_pair()
    targets = {"g": ground.right_vector, "e": excited.right_vector}

    series = {name: ObservableSeries(targets=targets) for name in initials}
    propagate(h, list(initials.values()), (0.0, t_end), config, series=list(series.values()))
    return series
