"""One benchmark process: set up a workload, then time passes over its calls.

Run by ``run.py`` with ``src`` on ``PYTHONPATH``. The process prints
``ready`` once the workload is set up (steerlab imported, inputs made from
the seed, one small warm-up call per command). In ``setup`` mode it stops
there; in ``measure`` mode it times passes for the given seconds; in
``trace`` mode it times untraced passes for half the seconds and traced
passes for the other half. The last line of its output is one JSON object.
"""

from __future__ import annotations

# steerlab comes first, so that ``-X importtime`` counts numpy and scipy
# in steerlab's import chain, as a user of the command line pays them.
import steerlab
import steerlab.cli
from steerlab import covariant, objects

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from importlib.metadata import version
from time import perf_counter
from typing import Callable, NamedTuple

import numpy as np

import spans

TOL = 1e-10


class Call(NamedTuple):
    """One timed call: ``run`` is timed, ``check`` and ``counts`` are not."""

    run: Callable[[], object]
    check: Callable[[object], bool]
    counts: Callable[[object], dict] | None = None


class CliResult(NamedTuple):
    rc: int
    stdout: str
    out_path: str | None


def cli(*argv, out_path=None) -> CliResult:
    """``steerlab.cli.main`` in-process with stdout captured.

    The entry point is looked up on each call so a traced run sees its span.
    """
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = steerlab.cli.main([str(a) for a in argv])
    return CliResult(rc, buf.getvalue(), out_path)


def cli_counts(res: CliResult) -> dict:
    size = len(res.stdout.encode())
    if res.out_path:
        size += os.path.getsize(res.out_path)
    return {"cli.out_bytes": size}


def cli_call(argv, check: Callable[[dict], bool], out_path=None) -> Call:
    def checked(res):
        return res.rc == 0 and check(json.loads(res.stdout))

    return Call(lambda: cli(*argv, out_path=out_path), checked, cli_counts)


def cli_warmup(*argv) -> Call:
    """A small set-up call; only its exit code is checked."""
    return Call(lambda: cli(*argv), lambda res: res.rc == 0)


# ---------------------------------------------------------------------------
# jm-certify: LP certificates of noisified MUB pairs against Haar parents
# ---------------------------------------------------------------------------

#: (d, eta, p, atoms, expected status). eta * p = 0.81 > 1/sqrt(2) rules out
#: any parent for the second instance; the third is the largest LP.
JM_INSTANCES = (
    (2, 0.5, 0.5, 500, "feasible"),
    (2, 0.9, 0.9, 500, "infeasible-at-tolerance"),
    (3, 0.25, 0.5, 300, "feasible"),
)
#: Haar parents drawn per instance; LP work varies from parent to parent,
#: so several parents per pass keep the pass time steady across seeds.
JM_PARENTS = 4
JM_TOL = 1e-4


def jm_check(expected: str):
    def check(doc):
        # the infeasible residual is not pinned: the LP has several optimal
        # vertices, and different solver methods stop at different ones
        return (doc["status"] == expected
                and abs(doc["verified_residual"] - doc["residual"]) <= 1e-12
                and (expected != "feasible" or doc["residual"] <= JM_TOL))
    return check


def jm_certify(seed: int, tmp: str):
    parent_seeds = np.random.default_rng(seed).integers(0, 2**31, JM_PARENTS)
    calls = [
        cli_call(["jm-certify", "--d", d, "--eta", eta, "--p", p, "--atoms", atoms,
                  "--targets", "builtin:mubs", "--tol", JM_TOL, "--seed", s],
                 jm_check(expected))
        for d, eta, p, atoms, expected in JM_INSTANCES
        for s in parent_seeds
    ]
    warmups = [cli_warmup("jm-certify", "--d", 2, "--eta", 0.5, "--p", 0.5, "--atoms", 50,
                          "--targets", "builtin:mubs", "--tol", JM_TOL, "--seed", 0)]
    return warmups, calls


# ---------------------------------------------------------------------------
# mc-simulate: Monte Carlo of the covariant simulation
# ---------------------------------------------------------------------------

MC_SAMPLES = 1_000_000
MC_WORKERS = 2
SIGMAS = 5.0


def effect_check(d: int, t: float):
    analytic = covariant.analytic_effect(d, t, objects.PureState(np.eye(d)[0], (d,)))
    want = [[float(z.real), float(z.imag)] for z in analytic.ravel()]

    def check(doc):
        return (doc["max_sigma_deviation"] <= SIGMAS
                and np.max(np.abs(np.array(doc["analytic"]) - want)) <= 1e-12)
    return check


def moments_check(d: int, t: float):
    aligned, trace = covariant.aligned_weight(d, t), covariant.effect_trace(d, t)

    def check(est):
        return (abs(est.aligned - aligned) <= SIGMAS * est.aligned_stderr
                and abs(est.trace - trace) <= SIGMAS * est.trace_stderr)
    return check


def mc_simulate(seed: int, tmp: str):
    s = np.random.default_rng(seed).integers(0, 2**31, 3)
    calls = [
        cli_call(["simulate-povm", "--d", 3, "--t", 0.4, "--samples", MC_SAMPLES,
                  "--seed", s[0]], effect_check(3, 0.4)),
        cli_call(["simulate-povm", "--d", 5, "--t", 0.3, "--samples", MC_SAMPLES,
                  "--seed", s[1]], effect_check(5, 0.3)),
        Call(lambda: covariant.mc_response_moments(3, 0.4, MC_SAMPLES, seed=int(s[2]),
                                                   workers=MC_WORKERS),
             moments_check(3, 0.4)),
    ]
    warmups = [
        cli_warmup("simulate-povm", "--d", 3, "--t", 0.4, "--samples", 1000, "--seed", 0),
        Call(lambda: covariant.mc_response_moments(3, 0.4, 1000, seed=0, workers=MC_WORKERS),
             lambda est: est.n == 1000),
    ]
    return warmups, calls


# ---------------------------------------------------------------------------
# state-channels: channels, the state family, assemblages, random objects and
# the (eta, p) plane
# ---------------------------------------------------------------------------

PHASE_GRID = 200
#: sha256 and cell counts of the phase-diagram CSV at PHASE_GRID, by dimension,
#: recorded from the library as it stood when this benchmark was defined.
PHASE_DIGESTS = {
    2: ("3a0d8fcce9e506b37c7908727cfd0b43889acd2547eb262e3a3538e26fb9e16c",
        {"UNSTEERABLE_B_TO_A_ONLY": 17600, "UNLIMITED_ONE_WAY": 2701,
         "D_STEERABLE_ONLY": 12099, "UNDETERMINED": 8001}),
    3: ("6fa524a7d0bcc84cc3307d5e7e5852427fb6b04a72506e89bbd2ecaed15e0ac2",
        {"UNSTEERABLE_B_TO_A_ONLY": 19481, "UNLIMITED_ONE_WAY": 820,
         "D_STEERABLE_ONLY": 7380, "UNDETERMINED": 12720}),
    4: ("8e3ffd6ca9b9f631113551d6d684335cf9c86d4baeeb5aa25b60d18f5446b563",
        {"UNSTEERABLE_B_TO_A_ONLY": 19895, "UNLIMITED_ONE_WAY": 406,
         "D_STEERABLE_ONLY": 5394, "UNDETERMINED": 14706}),
    5: ("c1a6509fdf46d8a37cf0026badf825efb42b92acb5ecc810e02ef0c823e16ff5",
        {"UNSTEERABLE_B_TO_A_ONLY": 20070, "UNLIMITED_ONE_WAY": 231,
         "D_STEERABLE_ONLY": 4169, "UNDETERMINED": 15931}),
    6: ("e8704c8530a7b2a048c3e2d3e40c8095626185ade84afe25e0e58e5a21d7888b",
        {"UNSTEERABLE_B_TO_A_ONLY": 20148, "UNLIMITED_ONE_WAY": 153,
         "D_STEERABLE_ONLY": 3447, "UNDETERMINED": 16653}),
    7: ("764093849e3777f337820633d78ae6ba0e80c263ceaf9ac1da90e9c415442800",
        {"UNSTEERABLE_B_TO_A_ONLY": 20181, "UNLIMITED_ONE_WAY": 120,
         "D_STEERABLE_ONLY": 3080, "UNDETERMINED": 17020}),
}


def phase_call(d: int, tmp: str) -> Call:
    out = os.path.join(tmp, f"phase-d{d}.csv")
    digest, cells = PHASE_DIGESTS[d]

    def check(doc):
        with open(out, "rb") as fh:
            got = hashlib.sha256(fh.read()).hexdigest()
        return (got == digest and doc["cells"] == cells
                and doc["rows"] == (PHASE_GRID + 1) ** 2)

    return cli_call(["phase-diagram", "--d", d, "--grid", PHASE_GRID, "--out", out], check,
                    out_path=out)


CHANNEL_D = 10


def channel_call(d: int, eta: float, p: float) -> Call:
    chain = objects.lossy_noisy_channel(d, eta, p)
    source = objects.phi_plus(d).to_density()

    def run():
        return (objects.apply_channel(chain, source, 1),
                objects.one_way_state(d, eta, p))

    def check(states):
        via_kraus, closed_form = states
        return (via_kraus.dims == closed_form.dims
                and np.max(np.abs(via_kraus.mat - closed_form.mat)) <= 1e-12)

    return Call(run, check, lambda _: {"objects.kraus_ops": len(chain.kraus_operators())})


def state_check(doc):
    v = doc["validity"]
    return (v["hermitian_deviation"] <= TOL and v["min_eigenvalue"] >= -TOL
            and v["trace_deviation"] <= TOL and v["reduced_a_vs_max_mixed"] <= TOL)


def state_channels(seed: int, tmp: str):
    rng = np.random.default_rng(seed)
    eta, p = (float(x) for x in rng.uniform(0.1, 0.9, 2))
    calls = [
        channel_call(CHANNEL_D, eta, p),
        cli_call(["state", "--d", 12, "--eta", eta, "--p", p], state_check),
        cli_call(["appendixC-check", "--d", 4, "--eta", eta, "--p", p, "--trials", 200],
                 lambda doc: doc["max_decomposition_residual"] <= TOL),
        cli_call(["lemma1-roundtrip", "--d", 6, "--eta", eta,
                  "--seed", int(rng.integers(0, 2**31))],
                 lambda doc: doc["max_roundtrip_residual"] <= TOL),
        phase_call(2 + seed % 6, tmp),
    ]
    warmups = [
        channel_call(2, eta, p),
        cli_warmup("state", "--d", 2, "--eta", eta, "--p", p),
        cli_warmup("appendixC-check", "--d", 2, "--eta", eta, "--p", p, "--trials", 5),
        cli_warmup("lemma1-roundtrip", "--d", 2, "--eta", eta, "--seed", 0),
        cli_warmup("phase-diagram", "--d", 2, "--grid", 10,
                   "--out", os.path.join(tmp, "warm.csv")),
    ]
    return warmups, calls


WORKLOADS = {
    "jm-certify": jm_certify,
    "mc-simulate": mc_simulate,
    "state-channels": state_channels,
}


# ---------------------------------------------------------------------------
# Timed passes
# ---------------------------------------------------------------------------


class Passes:
    """Outcome of timing passes: call times, call counts, per-pass layers."""

    def __init__(self, n_calls: int):
        self.times: list[list[float]] = [[] for _ in range(n_calls)]
        self.layers: list[dict] = []
        self.attempted = 0
        self.failed = 0

    def wall(self) -> float:
        """Wall time of one pass: the sum over calls of each call's median
        time, which a slow spell in one call of one pass does not move."""
        return sum(statistics.median(t) for t in self.times if t)


def run_passes(calls: list[Call], seconds: float, tracer=None) -> Passes:
    """Time whole passes over ``calls`` until another would overrun ``seconds``.

    Output checks and count hooks run outside the timed region. At least
    one pass runs.
    """
    out = Passes(len(calls))
    lengths = []
    start = perf_counter()
    while True:
        gc.collect()
        pass_start = perf_counter()
        first_span = len(tracer.spans) if tracer else 0
        wall = 0.0
        counts: dict = {}
        for call, times in zip(calls, out.times):
            out.attempted += 1
            try:
                t0 = perf_counter()
                result = call.run()
                times.append(perf_counter() - t0)
                wall += times[-1]
                ok = call.check(result)
                if tracer and call.counts:
                    for key, value in call.counts(result).items():
                        counts[key] = counts.get(key, 0) + value
            except Exception:  # a failing call counts as failed; the pass goes on
                traceback.print_exc()
                ok = False
            if not ok:
                out.failed += 1
        if tracer:
            out.layers.append(spans.layer_metrics(tracer.spans[first_span:], counts, wall))
        now = perf_counter()
        lengths.append(now - pass_start)
        if now - start + statistics.median(lengths) > seconds:
            return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--tmp", required=True, help="directory for output files")
    args = parser.parse_args(argv)

    tmp = tempfile.mkdtemp(dir=args.tmp)
    try:
        warmups, calls = WORKLOADS[args.workload](args.seed, tmp)
        for warm in warmups:
            if not warm.check(warm.run()):
                raise SystemExit(f"{args.workload}: a warm-up call failed its check")
        print("ready", flush=True)
        start = perf_counter()
        if args.mode == "setup":
            return 0
        if args.mode == "measure":
            untraced, traced = run_passes(calls, args.seconds), None
        else:
            untraced = run_passes(calls, args.seconds / 2)
            tracer = spans.Tracer()
            spans.install(tracer)
            traced = run_passes(calls, args.seconds - (perf_counter() - start), tracer)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    runs = [untraced] + ([traced] if traced else [])
    result = {
        "wall_s": untraced.wall(),
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": platform.python_version(), "numpy": version("numpy"),
                     "scipy": version("scipy")},
    }
    if traced:
        result["traced_wall_s"] = traced.wall()
        first = traced.layers[0]
        result["layers"] = {key: statistics.median(p[key] for p in traced.layers)
                            for key in first}
        result["layers"].update((key, first[key]) for key in spans.EXACT_COUNTS)
        result["counts_stable"] = all(
            p[key] == first[key] for p in traced.layers for key in spans.EXACT_COUNTS)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
