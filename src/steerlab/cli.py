"""Command-line surface tying the library together.

Exit codes: 0 on success, 2 on validation errors and inputs too large for
memory, 3 on solver failures.
Only ``jm-certify`` needs scipy, loaded on its first linear program; every
other command runs on numpy alone.
The STEERLAB_THREADS environment variable caps the Monte Carlo worker
count (default: available parallelism).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import analysis, assemblage, certifier, covariant, lossy, objects, rand
from .linalg import matrix_to_entries
from .objects import Povm

_DEFAULT_ATOM_SEED = 0


def _emit(doc, path: str | None) -> None:
    text = json.dumps(doc, indent=2, ensure_ascii=False, allow_nan=False)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


def _cmd_thresholds(args) -> int:
    report = analysis.threshold_report(args.d)
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


def _cmd_lemma1_roundtrip(args) -> int:
    rng = rand.rng_from(args.seed)
    worst = 0.0
    trials = 50
    for _ in range(trials):
        rho = rand.random_density(args.d * args.d, rng, dims=(args.d, args.d))
        povms = [rand.random_povm(args.d, 2, rng) for _ in range(2)]
        sigma = assemblage.steer(rho, povms, measured_side=0)
        lossy_sigma = assemblage.apply_loss_to_assemblage(sigma, args.eta)
        recovered = assemblage.filter_loss(lossy_sigma, args.eta)
        for x in range(sigma.n_settings):
            for a in range(sigma.outcomes_per_setting[x]):
                dev = np.linalg.norm(recovered.entry(a, x) - sigma.entry(a, x))
                worst = max(worst, float(dev))
    _emit({"d": args.d, "eta": args.eta, "seed": args.seed, "trials": trials,
           "max_roundtrip_residual": worst}, None)
    return 0


def _cmd_appendix_c_check(args) -> int:
    rng = rand.rng_from([args.d, args.trials])
    params = lossy.NoiseParams(d=args.d, eta=args.eta, p=args.p)
    worst = 0.0
    for k in range(args.trials):
        n_outcomes = 2 + (k % (args.d + 1))
        m_prime = rand.random_povm(args.d + 1, n_outcomes, rng)
        decomp = lossy.reduce_through_loss_dual(m_prime, params)
        worst = max(worst, decomp.identity_residual)
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


def build_parser() -> argparse.ArgumentParser:
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
    parser = build_parser()
    args = parser.parse_args(argv)
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
