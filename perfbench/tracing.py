"""Per-layer tracing of nhchain from outside the package.

Every public function of the layer modules (model, spectral, dynamics,
quench, svgplot, cli), plus ``ObservableSeries.record`` and ``.to_csv``, is
wrapped, and every module-level name bound to it in the package is rebound
to the wrapper.  That includes the defining module's own global, because
``run_convergence_experiment`` reaches ``propagate`` through
``nhchain.dynamics`` while ``cli`` and ``quench`` import it by name.

A span is ``[name, layer, start, end, parent, op, info]``.  Spans stay in
memory until the run ends.  Each thread keeps its own stack; a span opened
on a thread with an empty stack (fig4's worker thread) takes the op's root
span as parent, because the root's thread waits for it.

There is no queue or lock in nhchain, so no span waits: self time is busy
time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import threading
import types
from collections import defaultdict
from time import perf_counter

LAYERS = ("model", "spectral", "dynamics", "quench", "svgplot", "cli")

# Computed cost models, stated per call; they count the arithmetic and
# complex128 array passes the code performs and ignore cache reuse.
#   RK4 step on N sites: 4 stages x (14N for the tridiagonal matvec + 6N for
#   the -i scaling) + 3 x 4N stage inputs + 12N final combination.
RK4_FLOPS_PER_SITE = 104
#   The same operations read or write 91 arrays of N complex128 values.
RK4_BYTES_PER_SITE = 91 * 16
#   Dense zgeev with right vectors: ~25 N^3 complex flops (Golub & Van Loan,
#   QR algorithm with eigenvectors), at 4 real flops each.
EIG_FLOPS_PER_N3 = 100


def _steps(t_span, config) -> int:
    if isinstance(t_span, (tuple, list)):
        t0, t1 = float(t_span[0]), float(t_span[1])
    else:
        t0, t1 = 0.0, float(t_span)
    return max(1, round((t1 - t0) / config.dt)) if t1 > t0 else 0


class Tracer:
    """Wraps the layer functions, records spans, and reduces them to metrics."""

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self.errors: dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._op = None
        self._root = None
        self._restore: list[tuple[object, str, object]] = []
        self._pulse: list = []
        self._solved: set = set()
        self._seen_errors: set[int] = set()
        self._hooks = {
            "dynamics.propagate": self._propagate_info,
            "spectral.numeric_spectrum": self._spectrum_info,
            "quench.quenched_hamiltonian": self._pulse_info,
            "dynamics.to_csv": lambda arguments, result: {"bytes": len(result)},
            "svgplot.render_line_plot": self._plot_info,
        }

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        layers = {layer: importlib.import_module(f"{self.package.__name__}.{layer}")
                  for layer in LAYERS}
        wrappers = {}
        for layer, module in layers.items():
            for attr, value in list(vars(module).items()):
                if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    wrappers[value] = self._wrap(value, layer, f"{layer}.{attr}")
        for module in [self.package, *layers.values()]:
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        series = layers["dynamics"].ObservableSeries
        for method in ("record", "to_csv"):
            original = vars(series)[method]
            self._restore.append((series, method, original))
            setattr(series, method, self._wrap(original, "dynamics", f"dynamics.{method}"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- spans --------------------------------------------------------------

    def begin_op(self, op_id) -> None:
        self._op = op_id
        self._root = None
        self._solved = set()
        self._pulse = []

    def end_op(self) -> None:
        self._op = None
        self._root = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, layer: str, name: str):
        hook = self._hooks.get(name)
        signature = inspect.signature(fn) if hook else None
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._root
            span = [name, layer, 0.0, 0.0, parent, self._op, None]
            if parent is None:
                self._root = span
            spans.append(span)
            stack.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if id(exc) not in self._seen_errors:
                    self._seen_errors.add(id(exc))
                    self.errors[layer] += 1
                raise
            finally:
                span[3] = perf_counter()
                stack.pop()
            if hook is not None:
                span[6] = hook(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    # -- argument-derived counts (run after the span closes) -----------------

    def _propagate_info(self, arguments, result) -> dict:
        h = arguments["h"]
        return {"steps": _steps(arguments["t_span"], arguments["config"]),
                "sites": h.dimension,
                "pulse": any(h is p for p in self._pulse)}

    def _spectrum_info(self, arguments, result) -> dict:
        h = arguments["h"]
        key = (h.half_width, h.off_diagonal, h.diagonal.tobytes())
        repeat = key in self._solved
        self._solved.add(key)
        return {"dim": h.dimension, "repeat": repeat}

    def _pulse_info(self, arguments, result) -> None:
        if result is not arguments["h"]:
            self._pulse.append(result)

    def _plot_info(self, arguments, result) -> dict:
        return {"points": sum(len(xs) for _, xs, _ in arguments["curves"]),
                "bytes": len(result)}


def self_times(spans: list[list]) -> dict[int, float]:
    """Self time of each span (by id): its duration minus the union of its children."""
    children = defaultdict(list)
    for span in spans:
        if span[4] is not None:
            children[id(span[4])].append((span[2], span[3]))
    result = {}
    for span in spans:
        start, end = span[2], span[3]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(id(span), ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        result[id(span)] = (end - start) - covered
    return result


def op_residuals(spans: list[list]) -> list[float]:
    """Per op: the sum of all its spans' self times minus its root span's duration."""
    own = self_times(spans)
    total = defaultdict(float)
    roots = {}
    for span in spans:
        total[span[5]] += own[id(span)]
        if span[4] is None:
            roots[span[5]] = span[3] - span[2]
    return [total[op] - roots[op] for op in roots]


# Functions with their own calls/self_s metrics.
FUNCTIONS = ("model.build_hamiltonian", "spectral.numeric_spectrum", "dynamics.propagate",
             "dynamics.record", "dynamics.to_csv", "quench.run_switch_experiment",
             "svgplot.render_line_plot")

# Every per-layer metric of a pass, in report order.
METRICS = (
    [f"{layer}.{what}" for layer in LAYERS for what in ("self_s", "errors")]
    + [f"{name}.{what}" for name in FUNCTIONS for what in ("calls", "self_s")]
    + ["cli.ops", "cli.files_written", "cli.bytes_written",
       "spectral.numeric_spectrum.dim_max", "spectral.numeric_spectrum.flops_computed",
       "spectral.repeat_solves",
       "dynamics.propagate.steps", "dynamics.propagate.us_per_step",
       "dynamics.propagate.site_steps", "dynamics.propagate.flops_computed",
       "dynamics.propagate.bytes_computed", "dynamics.to_csv.bytes",
       "quench.pulse_steps",
       "svgplot.render_line_plot.points", "svgplot.render_line_plot.bytes"]
)


def pass_metrics(spans: list[list], errors: dict[str, int], written: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass over a workload."""
    own = self_times(spans)
    m: dict[str, float] = defaultdict(float)
    for layer in LAYERS:
        m[f"{layer}.errors"] = errors.get(layer, 0)
    for span in spans:
        name, layer, info = span[0], span[1], span[6]
        m[f"{layer}.self_s"] += own[id(span)]
        if span[4] is None:
            m["cli.ops"] += 1
        if name in FUNCTIONS:
            m[f"{name}.calls"] += 1
            m[f"{name}.self_s"] += own[id(span)]
        if name == "dynamics.propagate":
            m["dynamics.propagate.steps"] += info["steps"]
            m["dynamics.propagate.site_steps"] += info["steps"] * info["sites"]
            if info["pulse"]:
                m["quench.pulse_steps"] += info["steps"]
        elif name == "spectral.numeric_spectrum":
            m["spectral.numeric_spectrum.dim_max"] = max(
                m["spectral.numeric_spectrum.dim_max"], info["dim"])
            m["spectral.numeric_spectrum.flops_computed"] += EIG_FLOPS_PER_N3 * info["dim"] ** 3
            m["spectral.repeat_solves"] += info["repeat"]
        elif name == "dynamics.to_csv":
            m["dynamics.to_csv.bytes"] += info["bytes"]
        elif name == "svgplot.render_line_plot":
            m["svgplot.render_line_plot.points"] += info["points"]
            m["svgplot.render_line_plot.bytes"] += info["bytes"]
    steps = m["dynamics.propagate.steps"]
    if steps:
        m["dynamics.propagate.us_per_step"] = 1e6 * m["dynamics.propagate.self_s"] / steps
    m["dynamics.propagate.flops_computed"] = RK4_FLOPS_PER_SITE * m["dynamics.propagate.site_steps"]
    m["dynamics.propagate.bytes_computed"] = RK4_BYTES_PER_SITE * m["dynamics.propagate.site_steps"]
    m["cli.files_written"] = written["files"]
    m["cli.bytes_written"] = written["bytes"]
    return {name: float(m[name]) for name in METRICS}


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("us_per_step"):
        return "us"
    if metric.endswith("flops_computed"):
        return "flop"
    if metric.endswith(("bytes", "bytes_computed", "bytes_written")):
        return "B"
    return "count"


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}


def by_dimension(spans: list[list]) -> dict[str, dict[int, float]]:
    """Propagate self time per step and eigensolve self time per call, by chain dimension."""
    own = self_times(spans)
    step_time, steps = defaultdict(float), defaultdict(int)
    solve_time, solves = defaultdict(float), defaultdict(int)
    for span in spans:
        if span[0] == "dynamics.propagate" and span[6]["steps"]:
            step_time[span[6]["sites"]] += own[id(span)]
            steps[span[6]["sites"]] += span[6]["steps"]
        elif span[0] == "spectral.numeric_spectrum":
            solve_time[span[6]["dim"]] += own[id(span)]
            solves[span[6]["dim"]] += 1
    return {
        "propagate_us_per_step": {n: 1e6 * step_time[n] / steps[n] for n in sorted(steps)},
        "numeric_spectrum_s_per_call": {n: solve_time[n] / solves[n] for n in sorted(solves)},
    }
