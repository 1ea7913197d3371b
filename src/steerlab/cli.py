"""Command-line surface tying the library together.

Exit codes: 0 on success, 2 on validation errors and inputs too large for
memory, 3 on solver failures.
Only ``jm-certify`` needs scipy: its first linear program loads scipy's
vendored HiGHS extension alone, and ``scipy.optimize`` and ``scipy.sparse``
never load. Every other command runs on numpy alone.
Monte Carlo runs one worker thread per CPU the process may run on, so
``taskset`` caps it; its output does not depend on the worker count.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import analysis, assemblage, certifier, covariant, lossy, objects, rand
from .linalg import frobenius_each, matrix_to_entries, psd_stack
from .objects import Povm

_DEFAULT_ATOM_SEED = 0

#: Complex entries per trial block of the stacked checks: a block's arrays
#: stay near 256 kB each, however many trials run, so the temporaries of
#: its checks stay below the peak of ``state --d 12``.
_BLOCK_ENTRIES = 2**14

#: Trials of ``lemma1-roundtrip``, each measuring two random two-outcome POVMs.
_LEMMA1_TRIALS, _LEMMA1_SETTINGS, _LEMMA1_OUTCOMES = 50, 2, 2


def _emit(doc, path: str | None) -> None:
    text = json.dumps(doc, ensure_ascii=False, allow_nan=False, check_circular=False)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


def _cmd_thresholds(args) -> int:
    report = analysis.ThresholdReport(args.d)
    _emit(report.to_document(), None)
    return 0


def _cmd_phase_diagram(args) -> int:
    diagram = analysis.phase_diagram(args.d, args.grid)
    csv_text = analysis.phase_diagram_csv(diagram)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(csv_text)
    _emit({"d": args.d, "grid": args.grid, "rows": len(diagram),
           "cells": diagram.cell_counts(), "out": args.out}, None)
    return 0


def _cmd_state(args) -> int:
    rho = objects.one_way_state(args.d, args.eta, args.p)
    evals = np.linalg.eigvalsh(rho.mat)
    reduced_a = rho.reduced(0)
    reduced_b = rho.reduced(1)
    doc = {
        "state": rho.to_document(),
        "validity": {
            "hermitian_deviation": float(np.max(np.abs(rho.mat - rho.mat.conj().T))),
            "min_eigenvalue": float(evals[0]),
            "trace_deviation": float(abs(np.trace(rho.mat).real - 1.0)),
            "reduced_a_vs_max_mixed": float(
                np.linalg.norm(reduced_a - np.eye(args.d) / args.d)
            ),
        },
        "reduced_a": objects.DensityOperator(reduced_a, (args.d,)).to_document(),
        "reduced_b": objects.DensityOperator(reduced_b, (args.d + 1,)).to_document(),
    }
    _emit(doc, args.emit)
    return 0


def _cmd_simulate_povm(args) -> int:
    phi = objects.PureState(
        np.eye(args.d, dtype=complex)[0], (args.d,)
    )
    est = covariant.mc_effect(args.d, args.t, phi, args.samples, seed=args.seed)
    analytic = covariant.analytic_effect(args.d, args.t, phi)
    deviation = est.max_sigma_deviation(analytic)
    doc = {
        "d": args.d,
        "t": args.t,
        "n": args.samples,
        "estimate": matrix_to_entries(est.estimate),
        "stderr": {
            "real": est.stderr_real.ravel().tolist(),
            "imag": est.stderr_imag.ravel().tolist(),
        },
        "analytic": matrix_to_entries(analytic),
        # infinite when an entry with zero stderr deviates; JSON has no infinity
        "max_sigma_deviation": deviation if np.isfinite(deviation) else None,
    }
    _emit(doc, None)
    return 0


def _load_targets(selector: str, d: int, eta: float, p: float) -> list[Povm]:
    params = lossy.NoiseParams(d=d, eta=eta, p=p)
    if selector == "builtin:mubs":
        bases = objects.mub_pair(d)
    else:
        with open(selector, "r", encoding="utf-8") as fh:
            docs = json.load(fh)
        if not isinstance(docs, list):
            raise ValueError("targets file must hold a JSON array of POVM documents")
        bases = [Povm.from_document(doc) for doc in docs]
    return [lossy.noisify_povm(b, params) for b in bases]


def _cmd_jm_certify(args) -> int:
    targets = _load_targets(args.targets, args.d, args.eta, args.p)
    parent = certifier.discretize_parent(args.d, args.atoms, seed=args.seed)
    cert = certifier.lp_feasibility(targets, parent, tol=args.tol)
    check = certifier.verify_certificate(cert, targets)
    doc = cert.to_document(emit_conditionals=args.emit_conditionals)
    doc["verified_residual"] = check
    doc["note"] = (
        "feasibility certifies joint measurability; infeasibility at "
        "tolerance is NOT proof of incompatibility (the parent is fixed)"
    )
    _emit(doc, None)
    return 0


def _trial_blocks(trials: int, entries_per_trial: int):
    """The trial numbers of each block, as ranges."""
    size = max(1, _BLOCK_ENTRIES // entries_per_trial)
    return [range(start, min(start + size, trials)) for start in range(0, trials, size)]


def _naming_trials(run, trials, inputs):
    """``run(inputs)``, the leading axis of ``inputs`` holding ``trials``.

    On a ValueError, ``run`` is repeated on the inputs of each trial alone,
    so that the error names the first trial that fails.
    """
    try:
        return run(inputs)
    except ValueError:
        for k, one in zip(trials, inputs):
            try:
                run(one)
            except ValueError as exc:
                raise ValueError(f"trial {k}: {exc}") from None
        raise


def _lemma1_residual(normals, d: int, eta: float) -> float:
    """Largest round-trip deviation over the trials of a (..., K) array of
    normals, K per trial: a state on d*d levels, then one POVM per setting."""
    lead = normals.shape[:-1]
    counts = [_LEMMA1_OUTCOMES] * _LEMMA1_SETTINGS
    rho_normals = 2 * d**4
    rho = objects.density_stack(
        rand.gram_densities(normals[..., :rho_normals].reshape(lead + (2, d * d, d * d))))
    effects = psd_stack(
        rand.gram_povms(normals[..., rho_normals:].reshape(
            lead + (_LEMMA1_SETTINGS, _LEMMA1_OUTCOMES, 2, d, d))),
        range(_LEMMA1_OUTCOMES), "effect")
    sigma = assemblage.steer_entries(effects.reshape(lead + (-1, d, d)),
                                     rho.reshape(lead + (d, d, d, d)), 0, counts)
    recovered = assemblage.filter_entries(assemblage.lossy_entries(sigma, eta, counts), eta,
                                          counts)
    return float(np.max(frobenius_each(recovered - sigma)))


def _cmd_lemma1_roundtrip(args) -> int:
    """Loss then filter on the assemblages of random states and POVMs.

    Each trial draws a random density matrix on d*d levels and one random
    POVM per setting, steers, applies loss and filters it; the trials of a
    block run as one stack, drawing their normals in one call, in the
    order the per-trial objects would draw them.
    """
    if not 0.0 < args.eta <= 1.0:  # the filter divides by eta
        raise ValueError(f"eta must lie in (0, 1], got {args.eta}")
    rng = rand.rng_from(args.seed)
    d = args.d
    entries = _LEMMA1_SETTINGS * _LEMMA1_OUTCOMES
    normals_per_trial = 2 * d**4 + entries * 2 * d * d
    worst = 0.0
    # per trial: a state on d*d levels and the lossy entries on d+1 levels
    for trials in _trial_blocks(_LEMMA1_TRIALS, d**4 + entries * (d + 1) ** 2):
        normals = rng.standard_normal((len(trials), normals_per_trial))
        worst = max(worst, _naming_trials(lambda x: _lemma1_residual(x, d, args.eta), trials,
                                          normals))
    _emit({"d": d, "eta": args.eta, "seed": args.seed, "trials": _LEMMA1_TRIALS,
           "max_roundtrip_residual": worst}, None)
    return 0


def _appendix_c_residual(normals, params) -> float:
    """Largest decomposition residual over the random POVMs of a
    (..., n, 2, d+1, d+1) array of normals."""
    labels = range(normals.shape[-4])
    effects = psd_stack(rand.gram_povms(normals), labels, "effect")
    return float(np.max(lossy.pull_back(effects, params, labels).residuals))


def _cmd_appendix_c_check(args) -> int:
    """The dual-channel decomposition of random POVMs on d+1 levels.

    Trial k draws a random POVM with 2 + k % (d+1) outcomes. A block's
    normals are drawn in one call, in the order the per-trial objects would
    draw them, into a layout padded to d+2 outcomes; the trials with the
    same outcome count then run as one stack.
    """
    rng = rand.rng_from([args.d, args.trials])
    params = lossy.NoiseParams(d=args.d, eta=args.eta, p=args.p)
    side, most = args.d + 1, args.d + 2
    worst = 0.0
    for block in _trial_blocks(args.trials, most * side * side):
        trials = np.asarray(block)
        outcomes = 2 + trials % side
        drawn = np.arange(most) < outcomes[:, None]
        normals = np.zeros((len(trials), most, 2, side, side))
        normals[drawn] = rng.standard_normal((int(drawn.sum()), 2, side, side))
        for n in sorted(set(outcomes.tolist())):
            group = outcomes == n
            worst = max(worst, _naming_trials(lambda x: _appendix_c_residual(x, params),
                                              trials[group], normals[group, :n]))
    _emit({"d": args.d, "eta": args.eta, "p": args.p, "trials": args.trials,
           "max_decomposition_residual": worst}, None)
    return 0


def int_at_least(minimum: int):
    """An argparse type accepting integers >= ``minimum``, so errors name the flag."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    parse.__name__ = "int"  # argparse reports a non-integer as "invalid int value"
    return parse


#: The type of the count and dimension flags.
positive_int = int_at_least(1)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="steerlab",
        description="One-way steering state family, noisy-lossy measurement "
        "compatibility, and parameter-region analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("thresholds", help="certification thresholds for one dimension")
    p.add_argument("--d", type=positive_int, required=True)
    p.set_defaults(func=_cmd_thresholds)

    p = sub.add_parser("phase-diagram", help="label the (eta, p) plane into a CSV")
    p.add_argument("--d", type=positive_int, required=True)
    p.add_argument("--grid", type=int_at_least(2), required=True)
    p.add_argument("--out", type=str, required=True)
    p.set_defaults(func=_cmd_phase_diagram)

    p = sub.add_parser("state", help="construct and validate the state family member")
    p.add_argument("--d", type=positive_int, required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--emit", type=str, default=None, help="also write the JSON here")
    p.set_defaults(func=_cmd_state)

    p = sub.add_parser(
        "simulate-povm",
        help="Monte Carlo vs analytic simulated effect for the target |0>",
    )
    p.add_argument("--d", type=positive_int, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--samples", type=positive_int, required=True)
    p.add_argument("--seed", type=int_at_least(0), required=True)
    p.set_defaults(func=_cmd_simulate_povm)

    p = sub.add_parser(
        "jm-certify",
        help="LP joint-measurability certificate for noisified targets",
    )
    p.add_argument("--d", type=positive_int, required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--atoms", type=positive_int, required=True)
    p.add_argument(
        "--targets",
        type=str,
        required=True,
        help="'builtin:mubs' or a path to a JSON array of POVM documents",
    )
    p.add_argument("--tol", type=float, default=certifier.DEFAULT_TOL)
    p.add_argument("--seed", type=int_at_least(0), default=_DEFAULT_ATOM_SEED)
    p.add_argument("--emit-conditionals", action="store_true")
    p.set_defaults(func=_cmd_jm_certify)

    p = sub.add_parser(
        "lemma1-roundtrip",
        help="verify that loss on random assemblages is undone by the filter",
    )
    p.add_argument("--d", type=positive_int, required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--seed", type=int_at_least(0), required=True)
    p.set_defaults(func=_cmd_lemma1_roundtrip)

    p = sub.add_parser(
        "appendixC-check",
        help="verify the dual-channel decomposition on random enlarged POVMs",
    )
    p.add_argument("--d", type=positive_int, required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--trials", type=positive_int, required=True)
    p.set_defaults(func=_cmd_appendix_c_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except certifier.SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
