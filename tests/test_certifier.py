import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, sparse

from steerlab import certifier, cli
from steerlab.certifier import (
    DEFAULT_TOL,
    FEASIBLE,
    INFEASIBLE_AT_TOLERANCE,
    DiscreteParent,
    JmCertificate,
    _hermitian_components,
    discretize_parent,
    exact_certificate,
    lp_feasibility,
    parent_from_states,
    response_conditionals,
    verify_certificate,
)
from steerlab.covariant import ResponseFunctionModel
from steerlab.linalg import frobenius, is_psd
from steerlab.lossy import NoiseParams, noisify_povm
from steerlab.objects import Povm, mub_pair
from steerlab.rand import random_povm


def _noisified_mubs(d, eta, p):
    params = NoiseParams(d=d, eta=eta, p=p)
    return [noisify_povm(b, params) for b in mub_pair(d)]


def test_discretize_parent_exact_sum():
    for d, n in ((2, 16), (3, 100)):
        parent = discretize_parent(d, n, seed=0)
        assert parent.n_atoms == n
        assert frobenius(parent.effects.sum(axis=0) - np.eye(d)) < 1e-12
        assert all(is_psd(e, 1e-10) for e in parent.effects)


def test_discretize_parent_needs_enough_atoms():
    with pytest.raises(ValueError):
        discretize_parent(3, 8)


def test_raw_sum_converges_to_identity():
    # with many atoms the correction becomes trivial
    d, n = 2, 1_000_000
    from steerlab.covariant import HaarSampler

    states = HaarSampler(d=d, seed=1).sample_array(n)
    raw_sum = (d / n) * (states.T @ states.conj())
    assert frobenius(raw_sum - np.eye(d)) < 5e-3


def test_tetrahedral_parent_exact_without_correction():
    # qubit tetrahedron: a symmetric frame whose raw sum is already I
    c, s = np.sqrt(1 / 3), np.sqrt(2 / 3)
    states = np.array(
        [
            [1.0, 0.0],
            [c, s],
            [c, s * np.exp(2j * np.pi / 3)],
            [c, s * np.exp(4j * np.pi / 3)],
        ],
        dtype=complex,
    )
    parent = parent_from_states(states, 2)
    for k in range(4):
        raw = 0.5 * np.outer(states[k], states[k].conj())
        assert frobenius(parent.effects[k] - raw) < 1e-12


def test_parent_rejects_direct_bad_effects():
    with pytest.raises(ValueError):
        DiscreteParent(np.stack([np.eye(2), np.eye(2)]))


def test_parent_refuses_a_batched_stack():
    # each (n, d, d) stack of the batch is a POVM, but a parent is one stack
    effects = np.stack([np.eye(2) / 2, np.eye(2) / 2])
    with pytest.raises(ValueError, match="one \\(n, d, d\\) stack"):
        DiscreteParent(np.stack([effects, effects]))
    assert DiscreteParent(effects).d == 2


def test_parent_refuses_states_that_do_not_match_its_effects():
    effects = np.stack([np.eye(2) / 2] * 2)
    with pytest.raises(ValueError, match=r"shape \(n_atoms, d\) = \(2, 2\), got \(5, 3\)"):
        DiscreteParent(effects, states=np.ones((5, 3)))
    parent = DiscreteParent(effects, states=np.eye(2))
    assert parent.states.dtype == complex and np.array_equal(parent.states, np.eye(2))


# ---------------------------------------------------------------------------
# LP feasibility
# ---------------------------------------------------------------------------


def test_single_povm_coarse_graining_of_parent():
    # a target the parent refines is reproduced at solver precision
    parent = discretize_parent(2, 40, seed=2)
    half = parent.effects[:20].sum(axis=0)
    rest = parent.effects[20:].sum(axis=0)
    target = Povm([half, rest])
    cert = lp_feasibility([target], parent, tol=1e-6)
    assert cert.status == FEASIBLE
    assert cert.residual < 1e-9


def test_single_noisified_povm_feasible():
    parent = discretize_parent(2, 400, seed=3)
    params = NoiseParams(d=2, eta=0.5, p=0.5)
    target = noisify_povm(mub_pair(2)[0], params)
    cert = lp_feasibility([target], parent, tol=1e-6)
    assert cert.status == FEASIBLE
    assert cert.residual < 1e-9


def test_noisified_mubs_feasible_at_boundary():
    parent = discretize_parent(2, 2000, seed=4)
    for p in (0.1, 0.3, 0.5, 0.7, 0.9):
        targets = _noisified_mubs(2, 1.0 - p, p)
        cert = lp_feasibility(targets, parent, tol=1e-4)
        assert cert.status == FEASIBLE, (p, cert.residual)
        assert cert.residual <= 1e-4
        assert abs(verify_certificate(cert, targets) - cert.residual) < 1e-12


def test_noisified_random_pair_feasible_at_boundary():
    # the guarantee covers every measurement pair, not just the bases
    rng = np.random.default_rng(21)
    parent = discretize_parent(2, 1200, seed=20)
    p = 0.35
    params = NoiseParams(d=2, eta=1.0 - p, p=p)
    targets = [noisify_povm(random_povm(2, 3, rng), params) for _ in range(2)]
    cert = lp_feasibility(targets, parent, tol=1e-4)
    assert cert.status == FEASIBLE
    assert cert.residual <= 1e-4


def test_noiseless_mubs_infeasible_at_tolerance():
    parent = discretize_parent(2, 2000, seed=5)
    targets = _noisified_mubs(2, 1.0, 1.0)
    cert = lp_feasibility(targets, parent, tol=1e-4)
    assert cert.status == INFEASIBLE_AT_TOLERANCE
    assert cert.residual > 0.1  # bounded away from zero


def test_conditionals_nonnegative_normalized():
    parent = discretize_parent(2, 500, seed=6)
    targets = _noisified_mubs(2, 0.4, 0.4)
    cert = lp_feasibility(targets, parent, tol=1e-4)
    for table in cert.conditionals:
        assert np.all(table >= 0.0)
        assert np.max(np.abs(table.sum(axis=0) - 1.0)) < 1e-12


def test_noise_monotonicity():
    # making targets noisier never increases the achievable residual
    parent = discretize_parent(2, 300, seed=7)
    base_p = 0.9
    targets_sharp = _noisified_mubs(2, 1.0, base_p)
    res_sharp = lp_feasibility(targets_sharp, parent, tol=1e-4).residual
    for p in (0.7, 0.5, 0.2):
        noisier = _noisified_mubs(2, 1.0, p)
        res = lp_feasibility(noisier, parent, tol=1e-4).residual
        assert res <= res_sharp + 1e-10
        res_sharp = res


def test_lp_rejects_dimension_mismatch():
    parent = discretize_parent(2, 50, seed=8)
    with pytest.raises(ValueError):
        lp_feasibility([random_povm(3, 2, np.random.default_rng(0))], parent)


@pytest.mark.parametrize("tol", [True, np.bool_(False)])
def test_lp_refuses_a_bool_tolerance(tol):
    # the certificate's JSON would print "tol": true
    parent = discretize_parent(2, 50, seed=8)
    with pytest.raises(ValueError, match=f"^tol must be a number, got {tol}$"):
        lp_feasibility(list(mub_pair(2)), parent, tol=tol)


class _Captured(Exception):
    pass


def _csc_array(mat):
    """A :func:`certifier._csc` record as a scipy sparse array."""
    return sparse.csc_array((mat.values, mat.indices, mat.indptr), shape=mat.shape)


def _scipy_linprog(c, *, A_ub, A_eq, **kwargs):
    """The LP solved by ``scipy.optimize.linprog(method="highs")`` with presolve
    off: the oracle that :func:`certifier.linprog` reproduces."""
    return optimize.linprog(c, A_ub=_csc_array(A_ub), A_eq=_csc_array(A_eq), method="highs",
                            options={"presolve": False}, **kwargs)


@settings(max_examples=40, deadline=None)
@given(
    d=st.sampled_from([2, 3]),
    n_atoms=st.integers(9, 16),
    outcomes=st.lists(st.integers(2, 4), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_lp_rows_are_deviation_coordinates(d, n_atoms, outcomes, seed):
    rng = np.random.default_rng(seed)
    parent = discretize_parent(d, n_atoms, seed=seed)
    targets = []
    for k in outcomes:
        effects = random_povm(d, k, rng).effects.copy()
        # sum off the identity by 3e-11 (Povm allows 1e-10), so r_x exceeds round-off
        effects[0] += 3e-11 * np.eye(d)
        targets.append(Povm(effects))
    captured = {}

    def fake_linprog(c, **kwargs):
        captured.update(kwargs)
        raise _Captured

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(certifier, "linprog", fake_linprog)
        with pytest.raises(_Captured):
            lp_feasibility(targets, parent)
    a_ub, b_ub, a_eq, b_eq = (captured[k] for k in ("A_ub", "b_ub", "A_eq", "b_eq"))
    assert a_ub.indices.dtype == a_eq.indices.dtype == np.int32
    a_ub, a_eq = _csc_array(a_ub), _csc_array(a_eq)

    # column-stochastic conditionals; at each atom, each target's slack outcome is
    # eliminated, and each target's heaviest outcome has no deviation variables
    tables = [rng.random((k, n_atoms)) for k in outcomes]
    tables = [t / t.sum(axis=0) for t in tables]
    heaviest = [np.argmax(np.trace(m.effects, axis1=1, axis2=2).real) for m in targets]
    slack = certifier._slack_outcomes(targets, parent)
    # slot j of an atom holds its j-th outcome other than the slack one
    slots = [np.array([np.delete(np.arange(k), e) for e in row]).reshape(n_atoms, k - 1).T
             for k, row in zip(outcomes, slack)]
    devs = [np.einsum("an,nij->aij", t, parent.effects) - m.effects
            for t, m in zip(tables, targets)]
    comps = _hermitian_components(np.concatenate(devs))
    # the d^2 coordinates carry the whole matrix: off-diagonal ones count twice
    weights = 2.0 - _hermitian_components(np.eye(d))
    assert np.allclose(comps**2 @ weights,
                       np.linalg.norm(np.concatenate(devs), axis=(1, 2))**2, rtol=0, atol=1e-12)
    # variables: the slots' conditionals, then the deviation coordinates D of
    # the outcomes other than the heaviest, then s
    s = rng.random()
    vec = np.concatenate(
        [np.take_along_axis(t, j, axis=0).ravel() for t, j in zip(tables, slots)]
        + [np.delete(_hermitian_components(dev), e, axis=0).ravel()
           for dev, e in zip(devs, heaviest)]
        + [[s]])
    assert np.max(np.abs(a_eq @ vec - b_eq)) < 1e-12
    n_dev = 2 * comps.size  # +D and -D rows of every outcome, eliminated ones included
    want = np.stack([comps, -comps], axis=-1).ravel() - s
    assert np.max(np.abs(a_ub[:n_dev] @ vec - b_ub[:n_dev] - want)) < 1e-12
    # the <= 1 rows: an atom's slots of each target sum to 1 - p(e_(x,lam)|x, lam)
    rest = np.concatenate([1.0 - np.take_along_axis(t, e[None], axis=0)[0]
                           for t, e in zip(tables, slack)])
    assert np.max(np.abs(a_ub[n_dev:] @ vec - rest)) < 1e-12
    assert np.all(b_ub[n_dev:] == 1.0)
    assert np.max(np.abs(a_ub[:n_dev, [-1]].toarray() + 1.0)) < 1e-12
    assert a_ub[n_dev:, [-1]].nnz == 0


@settings(max_examples=40, deadline=None)
@given(
    d=st.sampled_from([2, 3]),
    n_atoms=st.integers(9, 40),
    outcomes=st.lists(st.integers(1, 4), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_certificate_attains_the_lp_optimum(d, n_atoms, outcomes, seed):
    rng = np.random.default_rng(seed)
    parent = discretize_parent(d, n_atoms, seed=seed)
    targets = [random_povm(d, k, rng) for k in outcomes]
    results = []
    solve = certifier.linprog

    def recording_linprog(*args, **kwargs):
        results.append(solve(*args, **kwargs))
        return results[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(certifier, "linprog", recording_linprog)
        cert = lp_feasibility(targets, parent)
    (res,) = results
    devs = np.concatenate([np.einsum("an,nij->aij", table, parent.effects) - m.effects
                           for table, m in zip(cert.conditionals, targets)])
    assert abs(np.max(np.abs(_hermitian_components(devs))) - res.fun) < 1e-9
    for table, k in zip(cert.conditionals, outcomes):
        assert table.shape == (k, n_atoms)
        assert np.max(np.abs(table.sum(axis=0) - 1.0)) < 1e-12


@settings(max_examples=20, deadline=None)
@given(
    d=st.sampled_from([2, 3]),
    n_atoms=st.integers(9, 30),
    outcomes=st.lists(st.integers(1, 4), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_bounds_array_solves_like_bound_pairs(d, n_atoms, outcomes, seed):
    # the (n, 2) bounds array holds the pairs of the list it replaced: the
    # conditionals and s nonnegative, the deviations free; the solution and
    # the iteration count are the same with either form
    rng = np.random.default_rng(seed)
    parent = discretize_parent(d, n_atoms, seed=seed)
    targets = [random_povm(d, k, rng) for k in outcomes]
    free = sum(outcomes) - len(outcomes)
    pairs = [(0, None)] * (free * n_atoms) + [(None, None)] * (free * d * d) + [(0, None)]
    expected = np.array([(-np.inf if lo is None else lo, np.inf) for lo, _ in pairs])
    results = []
    solve = certifier.linprog

    def both_forms(c, bounds, **kwargs):
        assert np.array_equal(bounds, expected)
        results.extend([solve(c, bounds=bounds, **kwargs),
                        _scipy_linprog(c, bounds=pairs, **kwargs)])
        return results[0]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(certifier, "linprog", both_forms)
        lp_feasibility(targets, parent)
    array_form, pair_form = results
    assert np.array_equal(array_form.x, pair_form.x) and array_form.nit == pair_form.nit


def _plain_lp_optimum(targets, parent):
    """The JM LP with every conditional a variable: dense rows, no slack outcome."""
    n, total = parent.n_atoms, sum(m.n_outcomes for m in targets)
    comps = _hermitian_components(parent.effects).T
    t = _hermitian_components(np.concatenate([m.effects for m in targets]))
    # variables: p(a|x, lam) over all outcomes and atoms, then s
    dev = np.kron(np.eye(total), comps)  # coordinates of each outcome's C p
    s_col = -np.ones((2 * dev.shape[0], 1))
    a_ub = np.hstack([np.vstack([dev, -dev]), s_col])
    b_ub = np.concatenate([t.ravel(), -t.ravel()])
    a_eq = np.zeros((len(targets) * n, total * n + 1))
    start = 0
    for x, m in enumerate(targets):
        for a in range(start, start + m.n_outcomes):
            a_eq[x * n:(x + 1) * n, a * n:(a + 1) * n] = np.eye(n)
        start += m.n_outcomes
    c = np.zeros(total * n + 1)
    c[-1] = 1.0
    res = optimize.linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=np.ones(a_eq.shape[0]),
                           bounds=(0, None), method="highs")
    assert res.success
    return res.fun


#: The JM LPs of the property tests below: up to three targets of up to four
#: outcomes, each maybe with a zero effect and maybe noisified.
_JM_LP_DRAWS = dict(
    d=st.sampled_from([2, 3]),
    n_atoms=st.integers(9, 24),
    shapes=st.lists(st.tuples(st.integers(1, 4), st.booleans(), st.booleans()),
                    min_size=1, max_size=3),
    eta=st.floats(0.05, 1.0),
    p=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)


def _jm_lp_instance(d, n_atoms, shapes, eta, p, seed):
    """Targets and parent of one drawn JM LP."""
    rng = np.random.default_rng(seed)
    parent = discretize_parent(d, n_atoms, seed=seed)
    targets = []
    for k, zero_effect, noisy in shapes:
        # up to k outcomes: random ones, a zero-trace one, and no-click if noisified
        effects = random_povm(d, max(k - zero_effect - noisy, 1), rng).effects
        if zero_effect:
            effects = np.concatenate([np.zeros((1, d, d)), effects])
        m = Povm(effects)
        targets.append(noisify_povm(m, NoiseParams(d=d, eta=eta, p=p)) if noisy else m)
    return targets, parent


@settings(max_examples=40, deadline=None)
@given(**_JM_LP_DRAWS)
def test_lp_optimum_matches_the_plain_lp(d, n_atoms, shapes, eta, p, seed):
    # the per-atom slack outcomes change the LP's variables, not its optimum
    targets, parent = _jm_lp_instance(d, n_atoms, shapes, eta, p, seed)
    results = []
    solve = certifier.linprog

    def recording_linprog(*args, **kwargs):
        results.append(solve(*args, **kwargs))
        return results[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(certifier, "linprog", recording_linprog)
        lp_feasibility(targets, parent)
    (res,) = results
    assert abs(res.fun - _plain_lp_optimum(targets, parent)) < 1e-9


def _captured_lp(targets, parent) -> dict:
    """The arguments :func:`lp_feasibility` passes to ``certifier.linprog``."""
    captured = {}

    def capturing_linprog(c, **kwargs):
        captured.update(kwargs, c=c)
        raise _Captured

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(certifier, "linprog", capturing_linprog)
        with pytest.raises(_Captured):
            lp_feasibility(targets, parent)
    return captured


@settings(max_examples=40, deadline=None)
@given(**_JM_LP_DRAWS)
def test_linprog_returns_the_scipy_vertex(d, n_atoms, shapes, eta, p, seed):
    # HiGHS driven directly solves the same model with the same options as
    # scipy.optimize.linprog(method="highs"): the same vertex, bit for bit
    lp = _captured_lp(*_jm_lp_instance(d, n_atoms, shapes, eta, p, seed))
    ours, theirs = certifier.linprog(**lp), _scipy_linprog(**lp)
    assert theirs.success
    assert np.max(np.abs(ours.x - theirs.x)) == 0
    assert ours.fun == theirs.fun and ours.nit == theirs.nit


def _one_variable_lp(c, b_ub, rows=(0, 1)):
    """min c x over x >= 0 with the rows x <= b_ub[0] and -x <= b_ub[1]."""
    a_ub = certifier.Csc((2, 1), np.array([0, 2], dtype=np.int32),
                         np.array(rows, dtype=np.int32), np.array([1.0, -1.0]))
    a_eq = certifier.Csc((0, 1), np.zeros(2, dtype=np.int32), np.zeros(0, dtype=np.int32),
                         np.zeros(0))
    return certifier.linprog(np.array([c]), A_ub=a_ub, b_ub=np.array(b_ub), A_eq=a_eq,
                             b_eq=np.zeros(0), bounds=np.array([[0.0, np.inf]]))


def test_linprog_accepts_only_a_checked_optimum(monkeypatch):
    res = _one_variable_lp(1.0, [2.0, -1.0])
    assert res.x.tolist() == [1.0] and res.fun == 1.0
    with pytest.raises(certifier.SolverFailure, match="LP solver failed: Infeasible"):
        _one_variable_lp(1.0, [0.5, -1.0])
    with pytest.raises(certifier.SolverFailure, match="LP solver failed: .*nbounded"):
        _one_variable_lp(-1.0, [np.inf, -1.0])
    with pytest.raises(certifier.SolverFailure, match="HiGHS passModel failed"):
        _one_variable_lp(1.0, [2.0, -1.0], rows=(0, 5))  # a row index out of range
    # the optimum x = 1 meets its row -x <= -1 with no slack, which a negative
    # tolerance refuses
    monkeypatch.setattr(certifier, "_RESULT_TOL", -1e-3)
    with pytest.raises(certifier.SolverFailure, match="misses the constraints by more than"):
        _one_variable_lp(1.0, [2.0, -1.0])


def test_lp_matrices_have_json_counts():
    # the LP shape and nonzero counts are Python ints, which json can write
    lp = _captured_lp(_noisified_mubs(2, 0.5, 0.5), discretize_parent(2, 50, seed=1))
    for mat in (lp["A_ub"], lp["A_eq"]):
        assert all(type(n) is int for n in mat.shape) and type(mat.nnz) is int
        assert json.loads(json.dumps({"shape": mat.shape, "nnz": mat.nnz})) == {
            "shape": list(mat.shape), "nnz": mat.nnz}
    assert lp["A_ub"].shape[1] == lp["A_eq"].shape[1] == lp["c"].size


#: The benchmark's LP instances (d, eta, p, atoms) and the Haar seeds of its
#: four parents at seed 0.
_BENCH_INSTANCES = ((2, 0.5, 0.5, 500), (2, 0.9, 0.9, 500), (3, 0.25, 0.5, 300))
_BENCH_PARENT_SEEDS = np.random.default_rng(0).integers(0, 2**31, 4)


def _start_deviation(targets, parent, slack):
    """Largest Hermitian-coordinate deviation when atom lam reports slack[x, lam]."""
    tables = [np.eye(m.n_outcomes)[:, e] for m, e in zip(targets, slack)]
    devs = np.concatenate([np.einsum("an,nij->aij", table, parent.effects) - m.effects
                           for table, m in zip(tables, targets)])
    return np.max(np.abs(_hermitian_components(devs)))


@pytest.mark.parametrize("d, eta, p, atoms", _BENCH_INSTANCES)
def test_slack_outcomes_start_near_the_threshold_response(d, eta, p, atoms):
    targets = _noisified_mubs(d, eta, p)
    for seed in _BENCH_PARENT_SEEDS:
        parent = discretize_parent(d, atoms, seed=int(seed))
        slack = certifier._slack_outcomes(targets, parent)
        assert np.array_equal(slack, certifier._slack_outcomes(targets, parent))
        traces = [np.trace(m.effects, axis1=1, axis2=2).real for m in targets]
        heaviest = np.array([np.argmax(tr) for tr in traces])
        all_heaviest = np.repeat(heaviest[:, None], atoms, axis=1)
        assert (_start_deviation(targets, parent, slack)
                <= _start_deviation(targets, parent, all_heaviest))
        # each other outcome takes atoms up to, and within one atom weight of, its trace
        weights = np.trace(parent.effects, axis1=1, axis2=2).real
        for row, tr, h in zip(slack, traces, heaviest):
            for a in np.delete(np.arange(len(tr)), h):
                assigned = weights[row == a].sum()
                assert 0.0 <= tr[a] - assigned < weights.max()


#: sha256 of ``jm-certify ... --tol 1e-4 --emit-conditionals`` stdout for each
#: benchmark instance, one digest per parent of ``_BENCH_PARENT_SEEDS``.
_BENCH_DIGESTS = {
    (2, 0.5, 0.5, 500): (
        "22f7d7405c6ce356234cd857838176621bdfc2ef64e790ab5a92a314ec1e7f0a",
        "e79e3546346f8e7021aee3324fec91bafe99554cb8ea4123c940a3a5942cf2e3",
        "138ac1b813ce6f1f811b5f5dbd84a2c7cef07323be795404d4c11841658c2b2c",
        "195377893507ca27d45ebb2c582b8054e6269f2fcf36e1e943c15f02ed110174"),
    (2, 0.9, 0.9, 500): (
        "bf4701b681b6cbd891805f355359e60ec721babddd3226ec1f610fff118aba6e",
        "d7d3d2b8516f978b049aeba14d7771077a1feb0f6461e83a27cf73d67deb7c4c",
        "a310f64cb7fed1a6a2ddb412faf6a06cdbabbe1792073ee733d52908d2ffc9ee",
        "8855e54feb6a914c09c1eb7f0abae214f58c6451b497ee381fbe763c6f9ab4c4"),
    (3, 0.25, 0.5, 300): (
        "a2363936907e56ace4a9e45f4585e8ec7432f2d8dc7384025f468d68c5876e5e",
        "e2d7153cd043f432176eace7e2cad768b0463c3e97844936aa68eaa0270a4740",
        "5ed93ef4787750a1e9ada43fe68b4684a8af6d3e0f1a6d02f2dcf909ade39543",
        "c2fd01e7c519c95a219e48a172ba9e921bb405f744d81b73ba7f87f215e3ac0d"),
}


@pytest.mark.parametrize("d, eta, p, atoms", _BENCH_INSTANCES)
def test_benchmark_certificates_keep_their_vertex(d, eta, p, atoms, capsys):
    # the printed conditionals are the LP's optimal vertex: a change of solver
    # options or of how the model reaches HiGHS that moves the vertex fails here
    for seed, digest in zip(_BENCH_PARENT_SEEDS, _BENCH_DIGESTS[d, eta, p, atoms]):
        code = cli.main(["jm-certify", "--d", str(d), "--eta", str(eta), "--p", str(p),
                         "--atoms", str(atoms), "--targets", "builtin:mubs", "--tol", "1e-4",
                         "--seed", str(seed), "--emit-conditionals"])
        assert code == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_slack_outcomes_lightest_outcome_chooses_first():
    # the qubit tetrahedron twice, atoms of weight 1/4; outcomes 1 and 2 both
    # overlap most with atoms 0 and 4, and the lighter outcome 2 picks first
    c, s = np.sqrt(1 / 3), np.sqrt(2 / 3)
    tetra = [[1.0, 0.0]] + [[c, s * np.exp(2j * np.pi * k / 3)] for k in range(3)]
    parent = parent_from_states(np.array(tetra * 2, dtype=complex), 2)
    aligned = np.diag([1.0, 0.0])
    effects = [0.95 * (np.eye(2) - aligned), 0.5 * aligned + 0.05 * np.eye(2), 0.45 * aligned]
    (slack,) = certifier._slack_outcomes([Povm(effects)], parent)
    assert slack[0] == 2 and slack[4] == 1
    assert np.count_nonzero(slack == 2) == 1 and np.count_nonzero(slack == 1) == 2


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def test_verify_matches_recorded_residual():
    parent = discretize_parent(2, 200, seed=9)
    targets = _noisified_mubs(2, 0.3, 0.6)
    cert = lp_feasibility(targets, parent, tol=1e-4)
    assert abs(verify_certificate(cert, targets) - cert.residual) < 1e-12


def test_verify_detects_tampered_conditionals():
    parent = discretize_parent(2, 200, seed=10)
    targets = _noisified_mubs(2, 0.3, 0.6)
    cert = lp_feasibility(targets, parent, tol=1e-4)
    # normalization-preserving tamper: permute the outcome rows
    tampered = [t.copy() for t in cert.conditionals]
    tampered[0] = tampered[0][::-1, :]
    bad = JmCertificate(
        parent=parent,
        conditionals=tuple(tampered),
        residual=cert.residual,
        tol=cert.tol,
    )
    assert verify_certificate(bad, targets) > cert.tol
    # a zeroed column is not even a valid certificate
    broken = [t.copy() for t in cert.conditionals]
    broken[0][:, 0] = 0.0
    with pytest.raises(ValueError):
        JmCertificate(
            parent=parent,
            conditionals=tuple(broken),
            residual=cert.residual,
            tol=cert.tol,
        )


def test_nan_conditionals_are_no_certificate():
    parent = discretize_parent(2, 50, seed=0)
    targets = _noisified_mubs(2, 0.5, 0.5)
    valid = lp_feasibility(targets, parent, tol=1e-4).conditionals
    for x in range(len(targets)):
        nan = list(valid)
        nan[x] = np.full_like(valid[x], np.nan)
        with pytest.raises(ValueError):
            JmCertificate(parent=parent, conditionals=tuple(nan), residual=0.0, tol=1e-4)
        # the residual carries the NaN instead of reading as exact
        assert np.isnan(certifier._reconstruction_residual(
            parent.effects, nan, [p.effects for p in targets]))


def test_verify_rejects_shape_mismatch():
    parent = discretize_parent(2, 100, seed=11)
    targets = _noisified_mubs(2, 0.5, 0.5)
    cert = lp_feasibility(targets, parent, tol=1e-4)
    with pytest.raises(ValueError):
        verify_certificate(cert, targets[:1])


# ---------------------------------------------------------------------------
# bridges from the explicit model
# ---------------------------------------------------------------------------


def test_exact_certificate_from_model():
    rng = np.random.default_rng(12)
    for d in (2, 3):
        m = random_povm(d, 3, rng)
        p = 0.4
        params = NoiseParams(d=d, eta=0.8 * (1 - p) ** (d - 1), p=p)
        model = ResponseFunctionModel(m, params)
        cert = exact_certificate(model)
        target = noisify_povm(m, params)
        assert cert.residual < 1e-10
        assert verify_certificate(cert, [target]) < 1e-10
        assert cert.parent.states is None  # direct-effect parent


def test_response_conditionals_mc_error():
    # hand-built conditionals on a sampled parent: residual at the level of
    # the discretization error, and the LP can only do better
    d, p = 2, 0.5
    params = NoiseParams(d=d, eta=1 - p, p=p)
    target = noisify_povm(mub_pair(d)[0], params)
    model = ResponseFunctionModel(mub_pair(d)[0], params)
    parent = discretize_parent(d, 3000, seed=13)
    table = response_conditionals(model, parent)
    assert table.shape == (3, 3000)
    assert np.max(np.abs(table.sum(axis=0) - 1.0)) < 1e-12
    hand_built = JmCertificate(
        parent=parent,
        conditionals=(table,),
        residual=0.0,
        tol=1.0,
    )
    hand_residual = verify_certificate(hand_built, [target])
    assert 0.0 < hand_residual < 0.1  # Monte Carlo error scale
    lp_residual = lp_feasibility([target], parent, tol=1e-4).residual
    assert lp_residual <= hand_residual


def test_response_conditionals_requires_atom_states():
    rng = np.random.default_rng(14)
    m = random_povm(2, 2, rng)
    params = NoiseParams(d=2, eta=0.25, p=0.5)
    model = ResponseFunctionModel(m, params)
    cert = exact_certificate(model)
    with pytest.raises(ValueError):
        response_conditionals(model, cert.parent)


# ---------------------------------------------------------------------------
# certificate document
# ---------------------------------------------------------------------------


def test_certificate_document():
    parent = discretize_parent(2, 100, seed=15)
    targets = _noisified_mubs(2, 0.5, 0.5)
    cert = lp_feasibility(targets, parent, tol=1e-4)
    doc = cert.to_document()
    assert doc["d"] == 2 and doc["n_atoms"] == 100 and doc["seed"] == 15
    assert doc["status"] == FEASIBLE and "conditionals" not in doc
    full = cert.to_document(emit_conditionals=True)
    assert len(full["conditionals"]) == 2
    assert len(full["conditionals"][0]) == 3  # outcomes of the first target


def test_certificate_validation():
    parent = discretize_parent(2, 16, seed=16)
    bad = np.full((2, 16), 0.4)  # columns sum to 0.8
    with pytest.raises(ValueError):
        JmCertificate(parent=parent, conditionals=(bad,), residual=0.0, tol=DEFAULT_TOL)


def test_certificate_status_is_decided_by_the_residual():
    parent = discretize_parent(2, 16, seed=16)
    table = (np.full((2, 16), 0.5),)
    tol = 1e-4
    assert JmCertificate(parent, table, tol, tol).status == FEASIBLE
    for residual in (np.nextafter(tol, np.inf), np.nan):
        assert JmCertificate(parent, table, residual, tol).status == INFEASIBLE_AT_TOLERANCE
