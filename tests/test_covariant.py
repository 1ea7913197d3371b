import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from steerlab.analysis import certified_unsteerable, eta_unsteerable_bound
from steerlab.certifier import exact_certificate, verify_certificate
import steerlab
from steerlab.covariant import (
    _BLOCK,
    _BLOCK_ROWS,
    _CHUNK,
    EffectEstimate,
    HaarSampler,
    ResponseFunctionModel,
    _accepted_states,
    _accumulate_effect,
    _accumulate_moments,
    _run_shards,
    aligned_weight,
    analytic_effect,
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


@pytest.mark.parametrize("call, message", [
    (lambda: HaarSampler(2.5), "dimension d must be an integer, got 2.5"),
    (lambda: HaarSampler(True), "dimension d must be an integer, got True"),
    (lambda: mc_response_moments(3, 0.4, True), "sample count n must be an integer, got True"),
    (lambda: mc_response_moments(3, 0.4, 70000.0),
     "sample count n must be an integer, got 70000.0"),
    (lambda: mc_effect(3, 0.4, _basis_state(3), 0), "sample count n must be >= 1, got 0"),
    (lambda: mc_response_moments(3, 0.4, 1000, workers=True),
     "workers must be an integer, got True"),
    (lambda: mc_response_moments(3, 0.4, 1000, workers=0), "workers must be >= 1, got 0"),
    (lambda: mc_effect(3, 0.4, _basis_state(3), 1000, workers=-1),
     "workers must be >= 1, got -1"),
], ids=["d-float", "d-bool", "n-bool", "n-float", "n-zero", "workers-bool", "workers-zero",
        "workers-negative"])
def test_mc_refuses_bad_counts_by_name(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_mc_takes_numpy_integer_counts():
    want = mc_response_moments(3, 0.4, 1000, seed=2, workers=2)
    assert mc_response_moments(np.int64(3), 0.4, np.int64(1000), seed=2,
                               workers=np.int32(2)) == want
    assert HaarSampler(np.int16(3), seed=2).sample_array(np.uint8(5)).shape == (5, 3)


def test_sampler_unit_norm_and_determinism():
    s = HaarSampler(d=4, seed=7)
    z1 = s.sample_array(1000)
    z2 = s.sample_array(1000)
    assert np.array_equal(z1, z2)
    assert np.max(np.abs(np.linalg.norm(z1, axis=1) - 1.0)) < 1e-12


def test_sampler_d1_degenerate():
    for row in HaarSampler(d=1, seed=0).sample_array(5):
        assert np.allclose(row, [1.0])


def test_sample_haar_returns_pure_states():
    states = [PureState(row, (3,)) for row in HaarSampler(d=3, seed=1).sample_array(50)]
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


def test_worker_count_is_the_affinity_count(monkeypatch):
    from steerlab import covariant

    monkeypatch.setattr(covariant.os, "sched_getaffinity", lambda pid: {0, 2, 5},
                        raising=False)
    monkeypatch.setenv("STEERLAB_THREADS", "1")  # no environment variable overrides it
    assert covariant.default_workers() == 3


# ---------------------------------------------------------------------------
# Monte Carlo effect estimation
# ---------------------------------------------------------------------------


def _basis_state(d, k=0):
    v = np.zeros(d, dtype=complex)
    v[k] = 1.0
    return PureState(v, (d,))


def _block_sums(accumulate, sampler, n, shard, block):
    # the accumulator's sums over the (d, b) blocks of one shard, added in
    # order; the flat buffer holds a few numbers more than a block
    buf = np.empty(sampler.d * block + 1)
    parts = [accumulate(e, phases) for e, phases in sampler._blocks(shard, n, buf)]
    return [sum(p) for p in zip(*parts)]


def _stream_samples(d, t, seed, shard, n, block):
    # the accepted unit vectors of one shard, as rows: default_rng([seed, shard])
    # read as (d, b) blocks of `block` exponentials E, the last one shorter; a
    # sample is accepted when E_0 >= t sum(E), and the m accepted samples of a
    # block take the phases pi (2U - 1) of z_1 ... z_{d-1} from a (d-1, m) draw
    # of default_rng([seed, shard, 1])
    moduli = np.random.default_rng([seed, shard])
    phases = np.random.default_rng([seed, shard, 1])
    rows = []
    for lo in range(0, n, block):
        e = moduli.standard_exponential((d, min(block, n - lo)))
        e = e[:, e[0] >= t * e.sum(axis=0)]
        theta = np.pi * (2.0 * phases.random((d - 1, e.shape[1])) - 1.0)
        theta = np.vstack([np.zeros(e.shape[1]), theta])
        rows.append((np.sqrt(e / e.sum(axis=0)) * np.exp(1j * theta)).T)
    return np.concatenate(rows)


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(2, 6),
    t=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    n=st.integers(1, 3000),
    seed=st.integers(0, 2**32 - 1),
    shard=st.integers(0, 20),
    block=st.integers(1, 4000),
    rotate=st.booleans(),
)
def test_accumulate_effect_matches_outer_products(d, t, n, seed, shard, block, rotate):
    # the shard input is the exponentials of the shard's stream, streamed in
    # blocks through one buffer, and its phase stream; a rotation U maps each
    # accepted sample z to U z
    sampler = HaarSampler(d=d, seed=seed)
    z = _stream_samples(d, t, seed, shard, n, block)
    rot = None
    if rotate:
        u = random_unitary(d, np.random.default_rng([seed, shard, 2]))
        z = z @ u.T
        rot = np.array([[u.real, -u.imag], [u.imag, u.real]])
    proj = np.einsum("ni,nj->nij", z, z.conj())
    want = (d * proj.sum(axis=0), d * d * (proj.real**2).sum(axis=0),
            d * d * (proj.imag**2).sum(axis=0))
    sums = _block_sums(lambda e, phases: _accumulate_effect(d, t, rot, e, phases), sampler, n,
                       shard, block)
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
    block=st.integers(1, 4000),
)
def test_accumulate_moments_matches_overlaps(d, t, n, seed, shard, block):
    sampler = HaarSampler(d=d, seed=seed)
    xa = d * np.abs(_stream_samples(d, t, seed, shard, n, block)[:, 0]) ** 2
    s_a, s_a2, s_t = _block_sums(lambda e, _: _accumulate_moments(d, t, e), sampler, n, shard,
                                 block)
    assert s_t == d * xa.size
    assert abs(s_a - xa.sum()) <= 1e-12 * max(1.0, xa.sum())
    assert abs(s_a2 - (xa**2).sum()) <= 1e-12 * max(1.0, (xa**2).sum())


@pytest.mark.parametrize("d", [3, 40])
def test_shards_draw_the_sampler_streams(d):
    # shard k's blocks of exponentials, flattened in order, are the first d·m
    # numbers of default_rng([seed, k]), and each comes with the phase
    # generator default_rng([seed, k, 1]); at d = 40 the _BLOCK_ROWS floor
    # sets the block
    sampler = HaarSampler(d=d, seed=4)
    n = 2 * _CHUNK + 3
    rows = max(_BLOCK // d, _BLOCK_ROWS)
    drawn = []

    def keep(e, phases):
        # the next block overwrites e; nothing reads the phases here
        drawn.append((e.shape, hashlib.sha256(e).hexdigest(), phases.bit_generator.state))
        return (0,)

    _run_shards(sampler, n, 1, keep)  # one worker runs the shards and blocks in order
    assert all(shape[0] == d for shape, _, _ in drawn)  # the sample index is last
    assert max(shape[1] for shape, _, _ in drawn) == rows
    assert sum(shape[1] for shape, _, _ in drawn) == n
    base, extra = divmod(n, 3)
    short = 0
    for k in range(3):
        stream = np.random.default_rng([4, k]).standard_exponential(d * (base + (k < extra)))
        phases = np.random.default_rng([4, k, 1]).bit_generator.state
        at = 0
        while at < stream.size:
            shape, digest, state = drawn.pop(0)
            assert digest == hashlib.sha256(stream[at:at + d * shape[1]]).hexdigest()
            assert state == phases
            at += d * shape[1]
        assert at == stream.size
        short += shape[1] < rows
    assert not drawn
    assert short == 3  # no shard is a multiple of the block, so each ends on a short block


@pytest.mark.parametrize("d, t", [(5, 0.3), (16, 0.05)])
def test_mc_memory_is_a_few_blocks(d, t):
    # one worker's temporaries are sized by the block, not the shard
    n = 200_000
    bound = 4 * (8 * d * max(_BLOCK // d, _BLOCK_ROWS))
    for run in (lambda: mc_effect(d, t, _basis_state(d), n, seed=1, workers=1),
                lambda: mc_response_moments(d, t, n, seed=1, workers=1)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound


def _stream_blocks(d, t, n, seed, draw):
    # draw(e, phases) on each block of n samples of one worker, in order
    drawn = []

    def keep(e, phases):
        drawn.append(draw(e, phases))
        return (0,)

    _run_shards(HaarSampler(d=d, seed=seed), n, 1, keep)
    return np.concatenate(drawn, axis=-1)


def test_stream_overlap_matches_closed_form_cdf():
    # E_0 / sum(E) is |<0|z>|^2 of a Haar state, whose CDF is 1 - (1-s)^(d-1)
    from scipy.stats import kstest

    for d in (2, 4):
        overlaps = _stream_blocks(d, 0.0, 50_000, 30 + d, lambda e, _: e[0] / e.sum(axis=0))
        stat = kstest(overlaps, lambda s: 1.0 - (1.0 - s) ** (d - 1)).statistic
        assert stat < 0.01, (d, stat)


@pytest.mark.parametrize("d, t", [(2, 0.0), (5, 0.3)])
def test_stream_phases_are_uniform(d, t):
    # z_0 is real, so z_0 z_j* carries the phase of z_j: its mean and that of
    # its square vanish when the phase is uniform
    def products(e, phases):
        x, y = _accepted_states(t, e, phases)
        return x[0] * (x[1:] - 1j * y[1:])

    q = _stream_blocks(d, t, 200_000, 17, products)
    for sample in (q, q**2):
        for part in (sample.real, sample.imag):
            mean, se = part.mean(axis=1), part.std(axis=1) / np.sqrt(part.shape[1])
            assert np.all(np.abs(mean) < 4 * se), (mean, se)


def test_effect_and_moments_accept_the_same_samples():
    # both estimators read the moduli of one stream, whatever the target
    d, t, n = 4, 0.3, 150_000
    mom = mc_response_moments(d, t, n, seed=12, workers=2)
    u = random_unitary(d, np.random.default_rng(12))
    for phi in (_basis_state(d), PureState(u[:, 0], (d,))):
        est = mc_effect(d, t, phi, n, seed=12, workers=2)
        aligned = (phi.vec.conj() @ est.estimate @ phi.vec).real
        assert abs(np.trace(est.estimate).real - mom.trace) <= 1e-12 * mom.trace
        assert abs(aligned - mom.aligned) <= 1e-12 * mom.aligned


MC_PINS = json.loads((Path(__file__).parent / "mc_pins.json").read_text())


@pytest.mark.parametrize("pins", MC_PINS, ids=lambda pins: f"seed{pins['benchmark_seed']}")
def test_mc_estimates_are_pinned(pins):
    # the mc-simulate calls of one benchmark seed at 200,000 samples: the hit
    # count, so the trace moment, repeats bit for bit; sums added in another
    # order may move the other estimates by rounding only
    seeds = np.random.default_rng(pins["benchmark_seed"]).integers(0, 2**31, 3)
    assert [e["seed"] for e in pins["effects"]] + [pins["moments"]["seed"]] == seeds.tolist()
    for rec in pins["effects"]:
        d = rec["d"]
        est = mc_effect(d, rec["t"], _basis_state(d), 200_000, seed=rec["seed"], workers=2)
        re_im = np.array(rec["estimate"])
        for got, want in [(est.estimate.ravel(), re_im[:, 0] + 1j * re_im[:, 1]),
                          (est.stderr_real.ravel(), np.array(rec["stderr_real"])),
                          (est.stderr_imag.ravel(), np.array(rec["stderr_imag"]))]:
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    rec = pins["moments"]
    est = mc_response_moments(rec["d"], rec["t"], 200_000, seed=rec["seed"], workers=2)
    assert (est.trace, est.trace_stderr) == (rec["trace"], rec["trace_stderr"])
    for key in ("aligned", "aligned_stderr"):
        assert abs(getattr(est, key) - rec[key]) <= 1e-13 * rec[key]


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


@settings(max_examples=20, deadline=None)
@given(d=st.integers(2, 6), t=st.floats(0.0, 0.5), seed=st.integers(0, 2**32 - 1))
def test_mc_effect_matches_analytic_for_random_targets(d, t, seed):
    phi = PureState(random_unitary(d, np.random.default_rng(seed))[:, 0], (d,))
    est = mc_effect(d, t, phi, 20_000, seed=seed, workers=2)
    assert est.max_sigma_deviation(analytic_effect(d, t, phi)) < 5.0


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
    model = ResponseFunctionModel(comp, params)
    assert model.vacuum_mix == 0.0
    assert model.t == p
    assert exact_certificate(model).residual < 1e-12


def test_build_jm_model_single_outcome():
    d = 3
    trivial = Povm([np.eye(d)])
    for p in (0.0, 0.5, 0.9):
        for scale in (1.0, 0.5):
            eta = scale * (1 - p) ** (d - 1)
            if eta == 0.0 and p == 0.0:
                continue
            params = NoiseParams(d=d, eta=eta, p=p)
            model = ResponseFunctionModel(trivial, params)
            assert exact_certificate(model).residual < 1e-12


def test_build_jm_model_extra_noise():
    rng = np.random.default_rng(16)
    d, p = 3, 0.3
    m = random_povm(d, 4, rng)
    eta = 0.5 * (1 - p) ** (d - 1)  # strictly below the exact point
    params = NoiseParams(d=d, eta=eta, p=p)
    model = ResponseFunctionModel(m, params)
    assert 0.0 < model.vacuum_mix < 1.0
    assert exact_certificate(model).residual < 1e-12


def test_build_jm_model_refuses_above_bound():
    rng = np.random.default_rng(17)
    m = random_povm(3, 3, rng)
    with pytest.raises(ValueError):
        ResponseFunctionModel(m, NoiseParams(d=3, eta=0.9, p=0.5))


def test_build_jm_model_refuses_where_unsteerability_is_uncertified():
    # an absolute slack of 1e-12 accepts both points; at d=13, p=0.9 it is
    # as large as the bound itself
    for d, p, eta in ((13, 0.9, 2e-12), (5, 0.6, eta_unsteerable_bound(5, 0.6) + 5e-13)):
        assert not certified_unsteerable(d, eta, p)
        with pytest.raises(ValueError):
            ResponseFunctionModel(mub_pair(d)[0], NoiseParams(d=d, eta=eta, p=p))
        bound = eta_unsteerable_bound(d, p)
        model = ResponseFunctionModel(mub_pair(d)[0], NoiseParams(d=d, eta=bound, p=p))
        assert model.vacuum_mix == 0.0


def test_build_jm_model_sampling_dist():
    rng = np.random.default_rng(18)
    m = random_povm(2, 3, rng)
    params = NoiseParams(d=2, eta=0.3, p=0.5)
    model = ResponseFunctionModel(m, params)
    dist = model.sampling_dist
    assert abs(dist.sum() - 1.0) < 1e-10
    assert np.all(dist >= 0)


def test_model_validation():
    # the model is its target and noise pair; the constructor refuses every
    # pair for which there is no covariant model
    comp = mub_pair(2)[0]
    clicked = Povm(np.concatenate([comp.effects, np.zeros((1, 2, 2))]), (0, 1, NO_CLICK))
    cases = (
        (comp, NoiseParams(d=3, eta=0.1, p=0.5), "does not match params d=3"),
        (clicked, NoiseParams(d=2, eta=0.1, p=0.5), "no-click"),
        (comp, NoiseParams(d=2, eta=0.6, p=0.5), "exceeds the compatibility bound"),
    )
    for m, params, message in cases:
        with pytest.raises(ValueError, match=message):
            ResponseFunctionModel(m, params)
    model = ResponseFunctionModel(comp, NoiseParams(d=2, eta=0.25, p=0.5))
    assert (model.d, model.t, model.vacuum_mix) == (2, 0.5, 0.5)


def test_response_probabilities_normalized():
    rng = np.random.default_rng(19)
    m = random_povm(3, 3, rng)
    params = NoiseParams(d=3, eta=0.2, p=0.4)
    model = ResponseFunctionModel(m, params)
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
    model = ResponseFunctionModel(m, params)

    table = model.relabelling()
    assert table.shape == (len(labels) + 1, len(model.parent_effects()))
    assert np.all(table >= 0.0)
    assert np.max(np.abs(table.sum(axis=0) - 1.0)) <= 1e-12

    rebuilt, want = model.reconstruct_povm(), noisify_povm(m, params)
    assert rebuilt.labels == m.labels + (NO_CLICK,)
    assert np.max(np.linalg.norm(rebuilt.effects - want.effects, axis=(1, 2))) <= bound
    assert exact_certificate(model).residual <= bound

    probs = model.response_probabilities(HaarSampler(d=d, seed=seed).sample_array(200))
    assert probs.shape == (len(labels) + 1, 200)
    assert np.all(probs >= -1e-12)
    assert np.max(np.abs(probs.sum(axis=0) - 1.0)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(2, 6),
    n_outcomes=st.integers(1, 4),
    data=st.data(),
    p=st.floats(0.0, 0.95),
    scale=st.sampled_from([1.0]) | st.floats(1e-6, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_model_is_exact_on_degenerate_and_rank_deficient_targets(d, n_outcomes, data, p,
                                                                 scale, seed):
    # each basis vector of a random unitary goes whole to one outcome or half
    # to each of two, so the effects repeat the weights 1 and 1/2 and most
    # miss some basis vectors; the pieces must still rebuild them exactly
    outcome = st.integers(0, n_outcomes - 1)
    split = data.draw(st.lists(st.tuples(outcome, outcome), min_size=d, max_size=d))
    weights = np.zeros((n_outcomes, d))
    for k, (a, b) in enumerate(split):
        weights[a, k] += 0.5
        weights[b, k] += 0.5
    u = random_unitary(d, seed)
    target = Povm((u * weights[:, None, :]) @ dagger(u))
    params = NoiseParams(d=d, eta=scale * eta_unsteerable_bound(d, p), p=p)
    model = ResponseFunctionModel(target, params)
    assert len(model.parent_effects()) == np.count_nonzero(weights) + 1
    assert verify_certificate(exact_certificate(model), [noisify_povm(target, params)]) <= 1e-12
