"""In-memory spans around steerlab's public functions, recorded from outside.

Each public function of a traced module is replaced, in every steerlab
module that binds it, by a wrapper that records a span: name, parent span,
start and end. Optional count hooks read work counts (LP shape, sample
counts) from a call's arguments and result after the span has closed.
Spans stay in memory; :func:`layer_metrics` turns the spans of one pass
into per-layer self times and counts.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
from time import perf_counter

import numpy as np

#: Library modules whose public functions get spans. ``linalg`` helpers are
#: called at too fine a grain to time from outside, and the rest of ``cli``
#: is what ``cli.self_s`` measures, so only ``cli.main`` is wrapped there.
TRACED_MODULES = ("certifier", "covariant", "analysis", "objects", "lossy",
                  "assemblage", "rand")


class Span:
    __slots__ = ("name", "parent", "start", "end", "child", "counts")

    def __init__(self, name, parent, start):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.child = 0.0
        self.counts = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child


class Tracer:
    """Records spans in call order; nesting is tracked per thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, count=None):
        stack_of = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            span = Span(name, stack[-1] if stack else None, perf_counter())
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child += span.end - span.start
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result

        return wrapper


def _count_linprog(args, kwargs, res):
    a_ub, a_eq = kwargs["A_ub"], kwargs["A_eq"]
    return {
        "certifier.lp_iterations": int(res.nit),
        "certifier.lp_rows": a_ub.shape[0] + a_eq.shape[0],
        "certifier.lp_cols": a_ub.shape[1],
        "certifier.lp_nnz": a_ub.nnz + a_eq.nnz,
    }


def _count_lp_feasibility(args, kwargs, cert):
    return {"certifier.instances": 1,
            "certifier.feasible": int(cert.status == "feasible")}


def _count_mc(args, kwargs, est):
    d = args[0] if args else kwargs["d"]
    n = est.n
    # every accepted sample adds d |z><z| (trace d), so trace / d is the
    # acceptance fraction for both estimators
    trace = est.trace if hasattr(est, "trace") else float(np.trace(est.estimate).real)
    return {"covariant.mc_samples": n, "covariant.mc_accepted": n * trace / d}


def _count_sample_array(args, kwargs, states):
    return {"covariant.haar_samples": len(states)}


def _count_phase_diagram(args, kwargs, rows):
    return {"analysis.rows": len(rows)}


_COUNT_HOOKS = {
    "certifier.linprog": _count_linprog,
    "certifier.lp_feasibility": _count_lp_feasibility,
    "covariant.mc_effect": _count_mc,
    "covariant.mc_response_moments": _count_mc,
    "covariant.HaarSampler.sample_array": _count_sample_array,
    "analysis.phase_diagram": _count_phase_diagram,
}


def install(tracer: Tracer) -> None:
    """Wrap the traced functions wherever a steerlab module binds them."""
    from steerlab import certifier, cli, covariant

    targets = {}  # id(original) -> (original, span name)
    for layer in TRACED_MODULES:
        module = sys.modules[f"steerlab.{layer}"]
        for attr, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not attr.startswith("_")):
                targets[id(obj)] = (obj, f"{layer}.{attr}")
    # a foreign function, a private helper and the CLI entry point
    targets[id(certifier.linprog)] = (certifier.linprog, "certifier.linprog")
    targets[id(certifier._reconstruction_residual)] = (
        certifier._reconstruction_residual, "certifier.residual")
    targets[id(cli.main)] = (cli.main, "cli.main")

    wrappers = {
        key: tracer.wrap(name, fn, _COUNT_HOOKS.get(name))
        for key, (fn, name) in targets.items()
    }
    for name, module in list(sys.modules.items()):
        if name != "steerlab" and not name.startswith("steerlab."):
            continue
        for attr, obj in list(vars(module).items()):
            if id(obj) in wrappers and obj is targets[id(obj)][0]:
                setattr(module, attr, wrappers[id(obj)])
    covariant.HaarSampler.sample_array = tracer.wrap(
        "covariant.HaarSampler.sample_array", covariant.HaarSampler.sample_array,
        _count_sample_array)


#: Per-layer time metrics as sums of span self times. ``certifier.verify_s``
#: is the whole of verify_certificate, whose work is the residual helper.
_SELF_TIMES = {
    "certifier.lp_solve_s": ("certifier.linprog",),
    "certifier.lp_build_s": ("certifier.lp_feasibility",),
    "certifier.parent_s": ("certifier.discretize_parent", "certifier.parent_from_states"),
    "covariant.haar_s": ("covariant.HaarSampler.sample_array",),
    "covariant.mc_s": ("covariant.mc_effect", "covariant.mc_response_moments"),
    "analysis.label_s": ("analysis.phase_diagram",),
    "analysis.csv_s": ("analysis.phase_diagram_csv",),
    "cli.self_s": ("cli.main",),
    "objects.apply_channel_s": ("objects.apply_channel",),
    "objects.one_way_state_s": ("objects.one_way_state",),
    "lossy.reduce_dual_s": ("lossy.reduce_through_loss_dual",),
    "lossy.noisify_s": ("lossy.noisify_povm",),
    "assemblage.steer_s": ("assemblage.steer",),
    "assemblage.loss_roundtrip_s": ("assemblage.apply_loss_to_assemblage",
                                    "assemblage.filter_loss"),
    "rand.povm_s": ("rand.random_povm",),
    "rand.density_s": ("rand.random_density",),
}

#: Counts that must repeat exactly for a given seed.
EXACT_COUNTS = ("certifier.lp_iterations", "certifier.lp_rows", "certifier.lp_cols",
                "certifier.lp_nnz", "covariant.mc_samples", "covariant.haar_samples",
                "analysis.rows", "objects.kraus_ops", "cli.out_bytes")


def layer_metrics(spans: list[Span], counts: dict, wall: float) -> dict:
    """Per-layer self times and counts of one pass.

    ``counts`` holds the counts the workload took outside any span;
    ``wall`` is the pass's traced wall time.
    """
    self_by_name: dict[str, float] = {}
    totals = dict(counts)
    root_time = 0.0
    verify = 0.0
    for span in spans:
        self_by_name[span.name] = self_by_name.get(span.name, 0.0) + span.self_time
        if span.parent is None:
            root_time += span.duration
        if span.name == "certifier.verify_certificate":
            verify += span.duration
        if span.counts:
            for key, value in span.counts.items():
                totals[key] = totals.get(key, 0) + value
    out = {metric: sum(self_by_name.get(n, 0.0) for n in names)
           for metric, names in _SELF_TIMES.items()}
    out["certifier.verify_s"] = verify
    for key in EXACT_COUNTS:
        out[key] = totals.get(key, 0)
    instances = totals.get("certifier.instances", 0)
    out["certifier.feasible_frac"] = (
        totals.get("certifier.feasible", 0) / instances if instances else 0.0)
    samples = totals.get("covariant.mc_samples", 0)
    out["covariant.mc_accept_frac"] = (
        totals.get("covariant.mc_accepted", 0.0) / samples if samples else 0.0)
    out["covariant.mc_samples_per_s"] = (
        samples / out["covariant.mc_s"] if out["covariant.mc_s"] > 0 else 0.0)
    out["trace.untraced_s"] = wall - root_time
    return out
