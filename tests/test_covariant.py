import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from steerlab.analysis import certified_unsteerable, eta_unsteerable_bound
from steerlab.certifier import exact_certificate
import steerlab
from steerlab.covariant import (
    _CHUNK,
    EffectEstimate,
    HaarSampler,
    ResponseFunctionModel,
    _accumulate_effect,
    _accumulate_moments,
    _run_shards,
    _unit_rows,
    aligned_weight,
    analytic_effect,
    build_jm_model,
    effect_trace,
    mc_effect,
    mc_response_moments,
    noise_params_from_threshold,
    orthogonal_weight,
    simulate_rank1_povm,
)
from steerlab.linalg import dagger, frobenius
from steerlab.lossy import NoiseParams, noisify_povm
from steerlab.objects import NO_CLICK, Povm, PureState, mub_pair
from steerlab.rand import random_povm, random_rank1_targets, random_unitary


def test_sampler_validation():
    with pytest.raises(ValueError):
        HaarSampler(d=0)


def test_sampler_unit_norm_and_determinism():
    s = HaarSampler(d=4, seed=7)
    z1 = s.sample_array(1000)
    z2 = s.sample_array(1000)
    assert np.array_equal(z1, z2)
    assert np.max(np.abs(np.linalg.norm(z1, axis=1) - 1.0)) < 1e-12


def test_sampler_d1_degenerate():
    states = HaarSampler(d=1, seed=0).states(5)
    for psi in states:
        assert np.allclose(psi.vec, [1.0])


def test_sample_haar_returns_pure_states():
    states = HaarSampler(d=3, seed=1).states(50)
    assert len(states) == 50
    assert all(psi.dims == (3,) for psi in states)


def test_haar_first_moment():
    # mean projector converges to I/d
    z = HaarSampler(d=3, seed=2).sample_array(100_000)
    mean = (z.conj().T @ z) / z.shape[0]
    assert frobenius(mean - np.eye(3) / 3) < 8e-3


def test_overlap_distribution_matches_closed_form_cdf():
    # |<0|z>|^2 has CDF 1 - (1-s)^(d-1) for Haar states
    from scipy.stats import kstest

    for d in (2, 4):
        z = HaarSampler(d=d, seed=30 + d).sample_array(50_000)
        overlaps = np.abs(z[:, 0]) ** 2
        stat = kstest(overlaps, lambda s: 1.0 - (1.0 - s) ** (d - 1)).statistic
        assert stat < 0.01, (d, stat)


# ---------------------------------------------------------------------------
# closed-form moments
# ---------------------------------------------------------------------------


def test_moment_boundaries():
    for d in (2, 3, 6):
        assert abs(aligned_weight(d, 0.0) - 1.0) < 1e-15
        assert abs(effect_trace(d, 0.0) - d) < 1e-15
        assert aligned_weight(d, 1.0) == 0.0
        assert effect_trace(d, 1.0) == 0.0


def test_moment_values():
    assert abs(aligned_weight(2, 0.5) - 0.75) < 1e-15
    assert abs(effect_trace(2, 0.5) - 1.0) < 1e-15
    assert abs(aligned_weight(3, 0.5) - 0.5) < 1e-15
    assert abs(effect_trace(3, 0.5) - 0.75) < 1e-15


def test_moment_ordering_and_monotonicity():
    ts = np.linspace(0.0, 1.0, 101)
    for d in range(2, 9):
        a = np.array([aligned_weight(d, t) for t in ts])
        tr = np.array([effect_trace(d, t) for t in ts])
        assert np.all(a >= -1e-15)
        assert np.all(tr - a >= -1e-15)
        assert np.all(tr <= d + 1e-15)
        assert np.all(np.diff(a) <= 1e-15)
        assert np.all(np.diff(tr) <= 1e-15)


def test_moments_match_monte_carlo():
    # the estimator is the independent check of the closed forms
    for d, t in ((2, 0.3), (3, 0.5), (4, 0.7)):
        est = mc_response_moments(d, t, 200_000, seed=5, workers=2)
        assert abs(est.aligned - aligned_weight(d, t)) < 3 * est.aligned_stderr
        assert abs(est.trace - effect_trace(d, t)) < 3 * est.trace_stderr


def test_moments_match_quadrature():
    # overlap density is (d-1)(1-x)^(d-2); integrate the defining moments
    from scipy.integrate import quad

    for d in (2, 3, 5):
        for t in (0.0, 0.25, 0.6, 0.95):
            density = lambda x: (d - 1) * (1.0 - x) ** (d - 2)
            trace_q, _ = quad(density, t, 1.0)
            aligned_q, _ = quad(lambda x: x * density(x), t, 1.0)
            assert abs(d * trace_q - effect_trace(d, t)) < 1e-10
            assert abs(d * aligned_q - aligned_weight(d, t)) < 1e-10


def test_hit_frequency_matches_trace_moment():
    # acceptance probability of the threshold event is tr/d
    d, t, n = 3, 0.4, 200_000
    z = HaarSampler(d=d, seed=6).sample_array(n)
    hits = (np.abs(z[:, 0]) ** 2 >= t).mean()
    expect = effect_trace(d, t) / d
    se = np.sqrt(expect * (1 - expect) / n)
    assert abs(hits - expect) < 3 * se


def test_mc_moments_deterministic_per_worker_count():
    a = mc_response_moments(3, 0.4, 50_000, seed=9, workers=3)
    b = mc_response_moments(3, 0.4, 50_000, seed=9, workers=3)
    assert a.aligned == b.aligned and a.trace == b.trace
    # several shards: the estimates must not depend on the worker count
    moments = [mc_response_moments(3, 0.4, 200_000, seed=9, workers=w) for w in (1, 2, 3)]
    assert all(m == moments[0] for m in moments)
    effects = [mc_effect(2, 0.3, _basis_state(2), 100_000, seed=7, workers=w)
               for w in (1, 2, 3)]
    for e in effects[1:]:
        assert np.array_equal(e.estimate, effects[0].estimate)
        assert np.array_equal(e.stderr_real, effects[0].stderr_real)
        assert np.array_equal(e.stderr_imag, effects[0].stderr_imag)


def test_worker_count_env_override(monkeypatch):
    from steerlab.covariant import default_workers

    monkeypatch.setenv("STEERLAB_THREADS", "2")
    assert default_workers() == 2
    monkeypatch.setenv("STEERLAB_THREADS", "0")
    with pytest.raises(ValueError):
        default_workers()
    monkeypatch.delenv("STEERLAB_THREADS")
    assert default_workers() >= 1


# ---------------------------------------------------------------------------
# Monte Carlo effect estimation
# ---------------------------------------------------------------------------


def _basis_state(d, k=0):
    v = np.zeros(d, dtype=complex)
    v[k] = 1.0
    return PureState(v, (d,))


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(2, 6),
    t=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    n=st.integers(1, 3000),
    seed=st.integers(0, 2**32 - 1),
    shard=st.integers(0, 20),
)
def test_accumulate_effect_matches_outer_products(d, t, n, seed, shard):
    # the shard input is the unnormalized planes of sample_array's stream
    sampler = HaarSampler(d=d, seed=seed)
    z = sampler.sample_array(n, shard=shard)
    phi = sampler.sample_array(1, shard=shard + 1)[0]
    zh = z[(np.abs(z @ phi.conj()) ** 2) >= t]
    proj = np.einsum("ni,nj->nij", zh, zh.conj())
    want = (d * proj.sum(axis=0), d * d * (proj.real**2).sum(axis=0),
            d * d * (proj.imag**2).sum(axis=0))
    sums = _accumulate_effect(d, t, phi, sampler._normals(n, shard))
    for got, ref in zip(sums, want):
        assert got.shape == (d, d)
        assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))
    # Hermitian, with an exactly real diagonal, as every |z><z| is
    first, _, sq_im = sums
    assert np.array_equal(first, first.conj().T)
    assert not np.any(first.imag.diagonal()) and not np.any(sq_im.diagonal())


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(2, 6),
    t=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    n=st.integers(1, 3000),
    seed=st.integers(0, 2**32 - 1),
    shard=st.integers(0, 20),
)
def test_accumulate_moments_matches_overlaps(d, t, n, seed, shard):
    sampler = HaarSampler(d=d, seed=seed)
    overlap = np.abs(sampler.sample_array(n, shard=shard)[:, 0]) ** 2
    xa = d * overlap[overlap >= t]
    s_a, s_a2, s_t = _accumulate_moments(d, t, sampler._normals(n, shard))
    assert s_t == d * xa.size
    assert abs(s_a - xa.sum()) <= 1e-12 * max(1.0, xa.sum())
    assert abs(s_a2 - (xa**2).sum()) <= 1e-12 * max(1.0, (xa**2).sum())


def test_shards_draw_the_sampler_streams():
    # one Gaussian stream: shard k normalizes to sample_array(m, shard=k)
    sampler = HaarSampler(d=3, seed=4)
    n = 2 * _CHUNK + 3
    drawn = []

    def keep(g):
        drawn.append(g)
        return (0,)

    _run_shards(sampler, n, 1, keep)  # one worker runs the shards in order
    sizes = [g.shape[1] for g in drawn]
    assert len(sizes) == 3 and sum(sizes) == n and max(sizes) - min(sizes) <= 1
    for k, g in enumerate(drawn):
        assert _unit_rows(*g).tobytes() == sampler.sample_array(len(g[0]), shard=k).tobytes()


def test_sampler_stream_is_pinned():
    # the Haar parents of jm-certify come from this stream
    z = HaarSampler(3, seed=0).sample_array(300)
    digest = "7d2f9b51dc5562b21ad8aa180b0f127793443ab8fba8c3a3e2dcdce5cc7e3192"
    assert hashlib.sha256(z.tobytes()).hexdigest() == digest


def test_mc_effect_independent_of_blas_threads():
    child = """
import numpy as np
from steerlab.covariant import mc_effect
from steerlab.objects import PureState
est = mc_effect(3, 0.4, PureState(np.eye(3)[0], (3,)), 200_000, seed=3, workers=2)
print((est.estimate.tobytes() + est.stderr_real.tobytes() + est.stderr_imag.tobytes()).hex())
"""
    src = str(Path(steerlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path,
               "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", child], capture_output=True,
                              text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_max_sigma_deviation_propagates_nan():
    est = mc_effect(2, 0.3, _basis_state(2), 2000, seed=1)
    assert np.isnan(est.max_sigma_deviation(np.full((2, 2), np.nan)))
    reference = analytic_effect(2, 0.3, _basis_state(2))
    assert np.isfinite(est.max_sigma_deviation(reference))
    reference[1, 0] = np.nan
    assert np.isnan(est.max_sigma_deviation(reference))
    # where every stderr is zero, a NaN entry still reads NaN, not 0 or inf
    exact = EffectEstimate(np.zeros((2, 2), complex), np.zeros((2, 2)), np.zeros((2, 2)), 1)
    assert exact.max_sigma_deviation(np.zeros((2, 2))) == 0.0
    assert exact.max_sigma_deviation(np.eye(2)) == np.inf
    assert np.isnan(exact.max_sigma_deviation(np.diag([np.nan, 0.0])))


def test_mc_effect_t0_is_identity():
    est = mc_effect(3, 0.0, _basis_state(3), 100_000, seed=7, workers=2)
    assert est.max_sigma_deviation(np.eye(3)) < 4.0
    assert frobenius(est.estimate - np.eye(3)) < 0.05


def test_mc_effect_t1_is_zero():
    est = mc_effect(3, 1.0, _basis_state(3), 10_000, seed=8)
    assert frobenius(est.estimate) == 0.0
    assert est.max_sigma_deviation(np.zeros((3, 3))) == 0.0


def test_mc_effect_matches_analytic():
    phi = _basis_state(3)
    est = mc_effect(3, 0.4, phi, 400_000, seed=9, workers=2)
    assert est.max_sigma_deviation(analytic_effect(3, 0.4, phi)) < 3.0


def test_mc_effect_rotated_target():
    rng = np.random.default_rng(10)
    u = random_unitary(3, rng)
    phi = PureState(u[:, 0], (3,))
    est = mc_effect(3, 0.5, phi, 200_000, seed=11, workers=2)
    assert est.max_sigma_deviation(analytic_effect(3, 0.5, phi)) < 4.0


# ---------------------------------------------------------------------------
# analytic simulation of rank-one POVMs
# ---------------------------------------------------------------------------


def test_simulate_t0_reproduces_sampling_dist():
    rng = np.random.default_rng(12)
    targets = random_rank1_targets(3, 5, rng)
    out = simulate_rank1_povm(targets, 0.0)
    for label, (alpha, _) in zip(range(5), targets):
        assert frobenius(out.effect(label) - (alpha / 3) * np.eye(3)) < 1e-12
    assert frobenius(out.effect(NO_CLICK)) < 1e-12


def test_simulate_t1_all_no_click():
    rng = np.random.default_rng(13)
    targets = random_rank1_targets(3, 4, rng)
    out = simulate_rank1_povm(targets, 1.0)
    for label in range(4):
        assert frobenius(out.effect(label)) < 1e-15
    assert frobenius(out.effect(NO_CLICK) - np.eye(3)) < 1e-15


def test_simulate_equals_noisify():
    rng = np.random.default_rng(14)
    for d in range(2, 7):
        for _ in range(5):
            targets = random_rank1_targets(d, d + int(rng.integers(0, 3)), rng)
            t = float(rng.random())
            sim = simulate_rank1_povm(targets, t)
            params = noise_params_from_threshold(d, t)
            ideal = Povm([a * np.outer(v, v.conj()) for a, v in targets])
            noisy = noisify_povm(ideal, params)
            dev = max(
                frobenius(sim.effect(lab) - noisy.effect(lab)) for lab in noisy.labels
            )
            assert dev < 1e-12


def test_simulate_rejects_non_resolution():
    bad = [(1.0, np.array([1.0, 0.0], dtype=complex))]
    with pytest.raises(ValueError):
        simulate_rank1_povm(bad, 0.5)


def test_simulation_unitarily_covariant():
    rng = np.random.default_rng(15)
    targets = random_rank1_targets(3, 4, rng)
    u = random_unitary(3, rng)
    rotated = [(a, u @ v) for a, v in targets]
    sim = simulate_rank1_povm(targets, 0.6)
    sim_rot = simulate_rank1_povm(rotated, 0.6)
    for label in list(range(4)) + [NO_CLICK]:
        assert frobenius(sim_rot.effect(label) - u @ sim.effect(label) @ dagger(u)) < 1e-12


def test_noise_params_from_threshold():
    assert noise_params_from_threshold(3, 0.0) == NoiseParams(d=3, eta=1.0, p=0.0)
    assert noise_params_from_threshold(3, 1.0) == NoiseParams(d=3, eta=0.0, p=1.0)
    params = noise_params_from_threshold(3, 0.5)
    assert abs(params.eta - 0.25) < 1e-15 and params.p == 0.5


# ---------------------------------------------------------------------------
# the joint-measurability model
# ---------------------------------------------------------------------------


def test_build_jm_model_projective_exact_point():
    # rank-one projective input at eta exactly (1-p)^(d-1): no extra mixing
    d, p = 3, 0.4
    eta = (1 - p) ** (d - 1)
    comp = mub_pair(d)[0]
    params = NoiseParams(d=d, eta=eta, p=p)
    model = build_jm_model(comp, params)
    assert model.vacuum_mix == 0.0
    assert model.t == p
    assert exact_certificate(model, comp, params).residual < 1e-12


def test_build_jm_model_single_outcome():
    d = 3
    trivial = Povm([np.eye(d)])
    for p in (0.0, 0.5, 0.9):
        for scale in (1.0, 0.5):
            eta = scale * (1 - p) ** (d - 1)
            if eta == 0.0 and p == 0.0:
                continue
            params = NoiseParams(d=d, eta=eta, p=p)
            model = build_jm_model(trivial, params)
            assert exact_certificate(model, trivial, params).residual < 1e-12


def test_build_jm_model_extra_noise():
    rng = np.random.default_rng(16)
    d, p = 3, 0.3
    m = random_povm(d, 4, rng)
    eta = 0.5 * (1 - p) ** (d - 1)  # strictly below the exact point
    params = NoiseParams(d=d, eta=eta, p=p)
    model = build_jm_model(m, params)
    assert 0.0 < model.vacuum_mix < 1.0
    assert exact_certificate(model, m, params).residual < 1e-12


def test_build_jm_model_refuses_above_bound():
    rng = np.random.default_rng(17)
    m = random_povm(3, 3, rng)
    with pytest.raises(ValueError):
        build_jm_model(m, NoiseParams(d=3, eta=0.9, p=0.5))


def test_build_jm_model_refuses_where_unsteerability_is_uncertified():
    # an absolute slack of 1e-12 accepts both points; at d=13, p=0.9 it is
    # as large as the bound itself
    for d, p, eta in ((13, 0.9, 2e-12), (5, 0.6, eta_unsteerable_bound(5, 0.6) + 5e-13)):
        assert not certified_unsteerable(d, eta, p)
        with pytest.raises(ValueError):
            build_jm_model(mub_pair(d)[0], NoiseParams(d=d, eta=eta, p=p))
        bound = eta_unsteerable_bound(d, p)
        model = build_jm_model(mub_pair(d)[0], NoiseParams(d=d, eta=bound, p=p))
        assert model.vacuum_mix == 0.0


def test_build_jm_model_sampling_dist():
    rng = np.random.default_rng(18)
    m = random_povm(2, 3, rng)
    params = NoiseParams(d=2, eta=0.3, p=0.5)
    model = build_jm_model(m, params)
    dist = model.sampling_dist
    assert abs(dist.sum() - 1.0) < 1e-10
    assert np.all(dist >= 0)


def test_model_validation():
    v0 = np.array([1.0, 0.0], dtype=complex)
    v1 = np.array([0.0, 1.0], dtype=complex)
    with pytest.raises(ValueError):
        ResponseFunctionModel(
            d=2, t=0.5, targets=((1.0, v0),), piece_labels=(0,), target_labels=(0,)
        )  # weights sum to 1, not d
    with pytest.raises(ValueError):
        ResponseFunctionModel(
            d=2,
            t=1.5,
            targets=((1.0, v0), (1.0, v1)),
            piece_labels=(0, 1),
            target_labels=(0, 1),
        )


def test_response_probabilities_normalized():
    rng = np.random.default_rng(19)
    m = random_povm(3, 3, rng)
    params = NoiseParams(d=3, eta=0.2, p=0.4)
    model = build_jm_model(m, params)
    z = HaarSampler(d=3, seed=20).sample_array(500)
    probs = model.response_probabilities(z)
    assert probs.shape == (4, 500)
    assert np.all(probs >= -1e-12)
    assert np.max(np.abs(probs.sum(axis=0) - 1.0)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(2, 4),
    labels=st.lists(st.integers(0, 3) | st.sampled_from(["0", "1", "2", "x"]),
                    min_size=1, max_size=4, unique=True),
    p=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    scale=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(d=4, labels=[0], p=0.0, scale=1.0, seed=268629)  # ||sum_a M_a - I||_F = 2.58e-12
def test_model_is_its_parent_relabelled(d, labels, p, scale, seed):
    # every view of the model comes from parent_effects() and relabelling()
    rng = np.random.default_rng(seed)
    m = Povm(random_povm(d, len(labels), rng).effects, labels)
    # the model sums to I exactly, noisify_povm to I - eta (p E + (1-p) tr(E) I/d)
    # with E = I - sum_a M_a, which differs from I by at most ||E||_F
    bound = 1e-12 + frobenius(m.effects.sum(axis=0) - np.eye(d))
    params = NoiseParams(d=d, eta=scale * eta_unsteerable_bound(d, p), p=p)
    model = build_jm_model(m, params)

    table = model.relabelling()
    assert table.shape == (len(labels) + 1, len(model.parent_effects()))
    assert np.all(table >= 0.0)
    assert np.max(np.abs(table.sum(axis=0) - 1.0)) <= 1e-12

    rebuilt, want = model.reconstruct_povm(), noisify_povm(m, params)
    assert rebuilt.labels == m.labels + (NO_CLICK,)
    assert np.max(np.linalg.norm(rebuilt.effects - want.effects, axis=(1, 2))) <= bound
    assert exact_certificate(model, m, params).residual <= bound

    probs = model.response_probabilities(HaarSampler(d=d, seed=seed).sample_array(200))
    assert probs.shape == (len(labels) + 1, 200)
    assert np.all(probs >= -1e-12)
    assert np.max(np.abs(probs.sum(axis=0) - 1.0)) <= 1e-12
