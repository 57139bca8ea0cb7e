"""Span tracer for the gwmc package, installed from outside it.

``install`` replaces every public function and public method of the traced
modules, plus a few private layer boundaries, by a wrapper that times the
call. The wrapper goes into every gwmc namespace that holds the original,
so calls between modules (``from .state import renormalize``) are traced
too. Nothing under ``src/`` changes.

Spans are aggregated in memory as they close, one record per
(caller span, callee span) edge: call count, inclusive seconds and self
seconds. Self time is the span's duration minus the time of the traced
spans it called. A 6x6 trajectory makes about 10^5 spans; aggregating
instead of storing each one keeps the tracing overhead to a few percent.
``layer_metrics`` turns one trace into the per-layer numbers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time
import traceback
from collections import Counter

# The package's modules, one layer each (``errors`` does no work).
LAYERS = ("lattice", "state", "dynamics", "observables", "oracle", "cli")
# Private functions that are layer boundaries worth a span of their own.
PRIVATE_BOUNDARIES = {"cli": ("_sweep_task", "_write_series")}
# Spans whose individual durations are kept, not only their sums.
KEEP_DURATIONS = ("cli._sweep_task",)

ROOT = "<root>"


class Tracer:
    def __init__(self):
        self.edges: dict[tuple[str, str], list] = {}  # (parent, name) -> [calls, incl_s, self_s]
        self.durations: dict[str, list[float]] = {name: [] for name in KEEP_DURATIONS}
        self.counts: Counter = Counter()
        self._stack = [[ROOT, 0.0]]  # open spans: [name, traced child seconds]

    @property
    def current(self) -> str:
        return self._stack[-1][0]

    def wrap(self, name: str, fn, hook=None):
        stack = self._stack
        edges = self.edges
        clock = time.perf_counter
        keep = self.durations.get(name)
        signature = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            parent = stack[-1]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                parent[1] += elapsed
                edge = edges.get((parent[0], name))
                if edge is None:
                    edge = edges[(parent[0], name)] = [0, 0.0, 0.0]
                edge[0] += 1
                edge[1] += elapsed
                edge[2] += elapsed - frame[1]
                if keep is not None:
                    keep.append(elapsed)
            if hook is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    replaced = hook(self, bound.arguments, result)
                except Exception:  # a counter must never break the traced program
                    if not self.counts["hook_errors"]:
                        traceback.print_exc()
                    self.counts["hook_errors"] += 1
                    replaced = None
                if replaced is not None:  # the hook substituted the result
                    result = replaced
            return result

        return traced

    def to_json(self) -> dict:
        return {
            "edges": [[p, n, *v] for (p, n), v in sorted(self.edges.items())],
            "durations": self.durations,
            "counts": dict(self.counts),
        }


# -- counters ----------------------------------------------------------------


class CountingGenerator:
    """Delegates to a numpy Generator and counts the variates each call
    draws, against the innermost open span."""

    def __init__(self, gen, tracer: Tracer):
        self._gen = gen
        self._tracer = tracer

    def __getattr__(self, attr):
        value = getattr(self._gen, attr)
        if not callable(value):
            return value

        def draw(*args, **kwargs):
            out = value(*args, **kwargs)
            size = getattr(out, "size", 1)
            self._tracer.counts[f"draws@{self._tracer.current}"] += int(size)
            return out

        return draw


def _on_generator(tracer, call, result):
    return CountingGenerator(result, tracer)


def _on_advance(tracer, call, result):
    amps = call["amps"]
    tracer.counts["steps"] += 1
    tracer.counts["site_steps"] += amps.size // amps.shape[-1]
    jumps = len(result[1])
    tracer.counts["jumps"] += jumps
    tracer.counts["masked_steps"] += int(jumps > 0)


def _on_run_trajectory(tracer, call, result):
    n_sites = call["geometry"].n_sites
    tracer.counts["samples"] += len(result.samples)
    tracer.counts["sample_bytes"] += len(result.samples) * n_sites * 3 * 8
    if result.trapped_at is not None:
        dt = call["step"].dt
        n_steps = int(round(call["traj"].t_total / dt))
        tracer.counts["idle_steps"] += n_steps - int(round(result.trapped_at / dt))


def _on_run_ensemble(tracer, call, result):
    bloch = result[1]
    held = bloch.shape[0] * bloch.shape[1]
    tracer.counts["samples"] += held
    tracer.counts["sample_bytes"] += held * bloch.shape[2] * 3 * 8


HOOKS = {
    "dynamics.RngStream.generator": _on_generator,
    "dynamics.advance": _on_advance,
    "dynamics.run_trajectory": _on_run_trajectory,
    "dynamics.run_ensemble": _on_run_ensemble,
}


# -- installation --------------------------------------------------------------


def _targets():
    """Yield (span name, owner, attribute) for every traced callable."""
    for layer in LAYERS:
        module = importlib.import_module(f"gwmc.{layer}")
        private = PRIVATE_BOUNDARIES.get(layer, ())
        for attr, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) and (not attr.startswith("_") or attr in private):
                yield f"{layer}.{attr}", module, attr
            elif inspect.isclass(obj):
                for meth, fn in vars(obj).items():
                    if inspect.isfunction(fn) and not meth.startswith("_"):
                        yield f"{layer}.{obj.__name__}.{meth}", obj, meth


def _namespaces():
    import gwmc

    yield gwmc
    for layer in LAYERS:
        yield importlib.import_module(f"gwmc.{layer}")


def replace_everywhere(original, replacement) -> list:
    """Rebind every gwmc module attribute that is ``original``; returns undo records."""
    undo = []
    for ns in _namespaces():
        for attr, value in list(vars(ns).items()):
            if value is original:
                setattr(ns, attr, replacement)
                undo.append((ns, attr, original))
    return undo


def install(tracer: Tracer):
    """Wrap the traced callables; returns a function that restores them."""
    undo = []
    for name, owner, attr in list(_targets()):
        original = vars(owner)[attr]
        wrapped = tracer.wrap(name, original, HOOKS.get(name))
        if inspect.isclass(owner):
            setattr(owner, attr, wrapped)
            undo.append((owner, attr, original))
        else:
            undo.extend(replace_everywhere(original, wrapped))

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


# -- per-layer metrics ---------------------------------------------------------

ESTIMATORS = (
    "observables.magnetization",
    "observables.instantaneous_structure_factor",
    "observables.batch_means",
    "observables.structure_factor",
    "observables.correlation_series",
    "observables.correlation_profile",
)
CLI_IO = ("cli._write_series", "cli.write_meta", "cli.cmd_run", "cli.cmd_sweep",
          "cli.cmd_correlate", "cli.cmd_mf_curve", "cli.cmd_oracle_check")


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer numbers of one traced command (see perfbench/README.md)."""
    self_s = Counter()
    incl_s = Counter()
    calls = Counter()
    gather_bloch = 0.0
    for parent, name, n, incl, own in trace["edges"]:
        self_s[name] += own
        incl_s[name] += incl
        calls[name] += n
        if name == "state.bloch_vectors" and parent == "dynamics.mean_fields":
            gather_bloch += own
    counts = Counter(trace["counts"])
    draws = sum(v for k, v in counts.items() if k.startswith("draws@dynamics."))

    def total(names):
        return sum(self_s[n] for n in names)

    def prefixed(prefix):
        return sum(v for k, v in self_s.items() if k.startswith(prefix))

    tasks = trace["durations"].get("cli._sweep_task", [])
    return {
        "dynamics.gather_s": self_s["dynamics.mean_fields"] + gather_bloch,
        "dynamics.gather_calls": calls["dynamics.mean_fields"],
        "dynamics.drift_s": self_s["dynamics.deterministic_step"],
        "dynamics.jump_s": total(("dynamics.advance", "dynamics.jump_probabilities")),
        "dynamics.jump_draws": draws,
        "dynamics.jumps": counts["jumps"],
        "dynamics.jump_yield": counts["jumps"] / draws if draws else 0.0,
        "dynamics.masked_steps": counts["masked_steps"],
        "dynamics.steps": counts["steps"],
        "dynamics.idle_steps": counts["idle_steps"],
        "dynamics.loop_s": total(("dynamics.run_trajectory", "dynamics.run_ensemble")),
        "dynamics.site_step_ns": (1e9 * incl_s["dynamics.advance"] / counts["site_steps"]
                                  if counts["site_steps"] else 0.0),
        "state.renormalize_s": self_s["state.renormalize"],
        "state.renormalize_calls": calls["state.renormalize"],
        "state.bloch_s": self_s["state.bloch_vectors"] - gather_bloch,
        "lattice.build_s": self_s["lattice.build_lattice"],
        "lattice.class_index_s": total(("lattice.pair_class_index", "lattice.distance_classes")),
        "observables.samples": counts["samples"],
        "observables.sample_bytes": counts["sample_bytes"],
        "observables.estimator_s": total(ESTIMATORS),
        "oracle.lindblad_s": prefixed("oracle.DenseLindblad."),
        "oracle.rhs_calls": calls["oracle.DenseLindblad.rhs"],
        "oracle.fullwfmc_s": prefixed("oracle.FullWfmc.") + total(
            ("oracle.full_wfmc_ensemble", "oracle.full_wfmc_trajectory")),
        "oracle.ensemble_s": incl_s["dynamics.run_ensemble"],
        "oracle.expect_s": total(("oracle.pauli_expectations", "oracle.pair_xx_expectations")),
        "cli.io_s": total(CLI_IO),
        "cli.task_s_median": statistics.median(tasks) if tasks else 0.0,
        "cli.task_s_max": max(tasks) if tasks else 0.0,
        "traced_s": sum(self_s.values()),
        "hook_errors": counts["hook_errors"],
    }
