"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output) and asserts the same condition, including the runtime
budget where one is stated.

Run with::

    pytest tests/test_acceptance.py -v -s
"""

import time
from decimal import Decimal, getcontext

import numpy as np

from steerlab.analysis import (
    RegionLabel,
    certified_d_steerable,
    certified_unsteerable,
    p_threshold_all,
    p_threshold_two_mubs,
    phase_diagram,
)
from steerlab.assemblage import apply_loss_to_assemblage, filter_loss, steer
from steerlab.certifier import (
    FEASIBLE,
    INFEASIBLE_AT_TOLERANCE,
    discretize_parent,
    lp_feasibility,
    verify_certificate,
)
from steerlab.covariant import (
    HaarSampler,
    aligned_weight,
    effect_trace,
    mc_response_moments,
    noise_params_from_threshold,
    simulate_rank1_povm,
)
from steerlab.linalg import frobenius
from steerlab.lossy import NoiseParams, noisify_povm, reduce_through_loss_dual
from steerlab.objects import (
    Povm,
    apply_channel,
    lossy_noisy_channel,
    mub_pair,
    one_way_state,
    phi_plus,
)
from steerlab.rand import random_density, random_povm, random_rank1_targets


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {name}: {detail} -> {'PASS' if ok else 'FAIL'}")


def test_criterion_1_simulation_identity():
    # simulate_rank1_povm(targets, t) == noisify(targets, (1-t)^(d-1), t)
    start = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for d in range(2, 7):
        for _ in range(50):
            targets = random_rank1_targets(d, d + int(rng.integers(0, 3)), rng)
            t = float(rng.random())
            sim = simulate_rank1_povm(targets, t)
            ideal = Povm([a * np.outer(v, v.conj()) for a, v in targets])
            noisy = noisify_povm(ideal, noise_params_from_threshold(d, t))
            dev = max(
                frobenius(sim.effect(lab) - noisy.effect(lab)) for lab in noisy.labels
            )
            worst = max(worst, dev)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-12 and elapsed < 10.0
    _report(1, "analytic simulation equals noisification",
            ok, f"max deviation {worst:.3e} (tol 1e-12), {elapsed:.1f}s (budget 10s)")
    assert ok


def test_criterion_2_monte_carlo_integrals():
    # scalar moments within 3 standard errors at 1e6 samples; Haar first
    # moment within 5e-3 Frobenius
    n = 1_000_000
    worst_sigma = 0.0
    budget_ok = True
    for d in (2, 3, 4):
        for t in (0.1, 0.5, 0.9):
            start = time.monotonic()
            est = mc_response_moments(d, t, n, seed=200 + 10 * d + int(10 * t),
                                      workers=2)
            elapsed = time.monotonic() - start
            budget_ok = budget_ok and elapsed < 60.0
            dev_a = abs(est.aligned - aligned_weight(d, t)) / est.aligned_stderr
            dev_t = abs(est.trace - effect_trace(d, t)) / est.trace_stderr
            worst_sigma = max(worst_sigma, dev_a, dev_t)
    moment_dev = 0.0
    for d in (2, 3, 4):
        z = HaarSampler(d=d, seed=300 + d).sample_array(n)
        mean = (z[:, :, None] * z[:, None, :].conj()).sum(axis=0) / n
        moment_dev = max(moment_dev, frobenius(mean - np.eye(d) / d))
    ok = worst_sigma < 3.0 and moment_dev < 5e-3 and budget_ok
    _report(2, "Monte Carlo matches the closed-form integrals", ok,
            f"worst moment deviation {worst_sigma:.2f} sigma (tol 3), "
            f"first moment {moment_dev:.2e} (tol 5e-3)")
    assert ok


def test_criterion_3_loss_filter_roundtrip():
    start = time.monotonic()
    rng = np.random.default_rng(103)
    worst = 0.0
    for d in (2, 3, 4):
        for eta in (0.05, 0.5, 1.0):
            for _ in range(100):
                rho = random_density(d * d, rng, dims=(d, d))
                povms = [random_povm(d, 2, rng) for _ in range(2)]
                sigma = steer(rho, povms, measured_side=0)
                back = filter_loss(apply_loss_to_assemblage(sigma, eta), eta)
                for x in range(sigma.n_settings):
                    for a in range(sigma.outcomes_per_setting[x]):
                        worst = max(
                            worst,
                            frobenius(back.entry(a, x) - sigma.entry(a, x)),
                        )
    elapsed = time.monotonic() - start
    ok = worst <= 1e-12 and elapsed < 5.0
    _report(3, "loss filter round trip is the identity", ok,
            f"max deviation {worst:.3e} (tol 1e-12), {elapsed:.1f}s (budget 5s)")
    assert ok


def test_criterion_4_dual_decomposition():
    start = time.monotonic()
    rng = np.random.default_rng(104)
    grid = (0.15, 0.5, 0.85)
    worst = 0.0
    for d in (2, 3, 4):
        for _ in range(200):
            m_prime = random_povm(d + 1, 2 + int(rng.integers(0, d + 1)), rng)
            for eta in grid:
                for p in grid:
                    decomp = reduce_through_loss_dual(
                        m_prime, NoiseParams(d=d, eta=eta, p=p)
                    )
                    worst = max(worst, decomp.identity_residual)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-12 and elapsed < 10.0
    _report(4, "pulled-back effects split into reduced POVM plus vacuum response",
            ok, f"max deviation {worst:.3e} (tol 1e-12), {elapsed:.1f}s (budget 10s)")
    assert ok


def test_criterion_5_threshold_values():
    getcontext().prec = 50

    def oracle_all(d):
        dd = Decimal(d)
        return float((dd * (dd / (dd + 1)).sqrt() - 1) / (dd - 1))

    def oracle_mubs(d):
        dd = Decimal(d)
        return float(
            ((dd + dd.sqrt() - 1) * (dd - 1).sqrt() - 1)
            / ((dd - 1) * ((dd - 1).sqrt() + 1))
        )

    devs = [
        abs(p_threshold_all(2) - 0.6329931618554521),
        abs(p_threshold_all(2) - oracle_all(2)),
        abs(p_threshold_all(3) - 0.7990381056766580),
        abs(p_threshold_all(3) - oracle_all(3)),
        abs(p_threshold_two_mubs(2) - 0.7071067811865475),
        abs(p_threshold_two_mubs(2) - oracle_mubs(2)),
    ]
    worst = max(devs)
    ok = worst <= 1e-12
    _report(5, "thresholds match extended-precision evaluation", ok,
            f"max deviation {worst:.3e} (tol 1e-12)")
    assert ok


def test_criterion_6_nonempty_unlimited_region():
    worst_d = None
    ok = True
    for d in range(2, 17):
        rows = phase_diagram(d, 400)
        unlimited = [r for r in rows if r[2] is RegionLabel.UNLIMITED_ONE_WAY]
        if not unlimited:
            ok, worst_d = False, d
            break
        for eta, p, _ in unlimited:
            if not (certified_d_steerable(d, eta, p) and certified_unsteerable(d, eta, p)):
                ok, worst_d = False, d
                break
    _report(6, "unlimited one-way region visible for every d in 2..16", ok,
            "all cells recheck" if ok else f"failure at d={worst_d}")
    assert ok


def test_criterion_7_jm_certification_pipeline():
    start = time.monotonic()
    parent = discretize_parent(2, 2000, seed=107)
    mubs = mub_pair(2)
    ok = True
    details = []
    for p in (0.2, 0.5, 0.8):
        params = NoiseParams(d=2, eta=1.0 - p, p=p)
        targets = [noisify_povm(b, params) for b in mubs]
        cert = lp_feasibility(targets, parent, tol=1e-4)
        recheck = verify_certificate(cert, targets)
        good = (
            cert.status == FEASIBLE
            and cert.residual <= 1e-4
            and abs(recheck - cert.residual) < 1e-12
        )
        ok = ok and good
        details.append(f"p={p}: {cert.residual:.1e}")
    noiseless = [noisify_povm(b, NoiseParams(d=2, eta=1.0, p=1.0)) for b in mubs]
    cert = lp_feasibility(noiseless, parent, tol=1e-4)
    ok = ok and cert.status == INFEASIBLE_AT_TOLERANCE
    details.append(f"noiseless: {cert.residual:.2f} {cert.status}")
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 120.0
    _report(7, "LP certification of noisified bases", ok,
            "; ".join(details) + f", {elapsed:.1f}s (budget 120s)")
    assert ok


def test_criterion_8_state_family_validity():
    vals = (0.0, 0.25, 0.5, 0.75, 1.0)
    worst_reduced = 0.0
    worst_path = 0.0
    for d in (2, 3, 4, 5, 6):
        for eta in vals:
            for p in vals:
                rho = one_way_state(d, eta, p)  # invariants checked on construction
                worst_reduced = max(
                    worst_reduced, frobenius(rho.reduced(0) - np.eye(d) / d)
                )
                chained = apply_channel(
                    lossy_noisy_channel(d, eta, p), phi_plus(d).to_density(), 1
                )
                worst_path = max(
                    worst_path, float(np.max(np.abs(chained.mat - rho.mat)))
                )
    ok = worst_reduced <= 1e-12 and worst_path <= 1e-12
    _report(8, "state family valid with exact channel-composition agreement", ok,
            f"reduced-state dev {worst_reduced:.3e}, path dev {worst_path:.3e} "
            "(tol 1e-12)")
    assert ok
