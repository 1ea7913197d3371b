"""Covariant simulation of noisy-lossy measurements.

A continuous parent measurement with density ``d |z><z|`` over Haar-random
pure states, together with threshold response functions
``accept iff |<phi|z>|^2 >= t``, reproduces every noisy-lossy POVM whose
transmission does not exceed ``(1-t)^(d-1)`` at visibility ``t``. The
closed-form moments of the construction, a Monte Carlo estimator for them,
and the explicit joint-measurability model built from them all live here.

The Monte Carlo estimators draw each Haar sample in polar form. The squared
moduli of a standard complex Gaussian vector are independent standard
exponentials E_i and its phases are uniform and independent of them, so
the unit vector with ``|z_i|^2 = E_i / sum(E)`` and uniform phases is Haar.
The exponentials are drawn by inversion, as ``L = log(1 - U) = -E <= 0``
of uniforms U, and ``|z_i|^2 = L_i / sum(L)``. The samples are split into
shards of at most ``_CHUNK``, and each shard streams through its
accumulator in (d, b) blocks of these logarithms, sample index last, each
drawn straight into one per-worker buffer: shard k's blocks, flattened in
order, are ``log(1 - U)`` of the first d·m uniforms of
``default_rng([seed, k])``. A sample is accepted when ``E_0 >= t sum(E)``,
that is ``L_0 <= t sum(L)``, and only the accepted samples of a block draw
their d-1 relative phases, as a (d-1, m) block of uniforms from
``default_rng([seed, k, 1])``. A worker holds one block plus its
temporaries; the block size fixes the estimates, and the worker count does
not.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import reduce
from itertools import starmap

import numpy as np

from .analysis import certified_unsteerable, eta_unsteerable_bound
from .linalg import check_int, check_unit, dagger
from .lossy import NoiseParams
from .objects import NO_CLICK, Povm, PureState

#: Per-chunk sample count for memory-bounded accumulation.
_CHUNK = 1 << 16
#: A shard is accumulated in (d, b) blocks of log-moduli ``log(1 - U)``,
#: sample index last, of b = max(_BLOCK // d, _BLOCK_ROWS) samples, each
#: filled by one draw: _BLOCK numbers (768 KiB) bound a block's memory, and
#: _BLOCK_ROWS bounds the numpy calls per sample above d = 24. A larger block
#: makes fewer numpy calls per sample and holds more memory per worker. The
#: block size fixes which uniforms form a sample and which phases it gets, so
#: it fixes the Monte Carlo estimates.
_BLOCK = 3 << 15
_BLOCK_ROWS = 1 << 12


def default_workers() -> int:
    """Worker count: the CPUs this process may run on (its affinity mask,
    which ``taskset`` or a cpuset caps)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class HaarSampler:
    """Reproducible sampler of Haar-distributed pure states: ``sample_array``
    normalizes 2d standard normals per state, and the Monte Carlo estimators
    stream moduli and phases from :meth:`_blocks`."""

    d: int
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "d", check_int("dimension d", self.d, 1))
        object.__setattr__(self, "seed", check_int("seed", self.seed, 0))

    def _rng(self, *stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *stream])

    def _blocks(self, shard: int, m: int, buf: np.ndarray):
        """The squared moduli of ``m`` samples of stream ``shard``, up to
        normalization, as (d, b) blocks of ``L = log(1 - U)``, sample index
        last, of ``b = len(buf) // d`` samples, the last one shorter: each is a
        C-contiguous view at the start of the flat ``buf``, filled by one draw
        and overwritten by the next. ``-L`` is a standard exponential by
        inversion, and ``L`` is finite and ``<= 0`` for every U in [0, 1), so
        ``L_i / sum(L) = E_i / sum(E)``. Flattened in order, the blocks are
        ``log(1 - U)`` of the first d·m uniforms of ``default_rng([seed,
        shard])``. Each block comes with the shard's phase generator
        ``default_rng([seed, shard, 1])``."""
        rng, phases = self._rng(shard), self._rng(shard, 1)
        rows = len(buf) // self.d
        for lo in range(0, m, rows):
            e = buf[:self.d * min(rows, m - lo)].reshape(self.d, -1)
            rng.random(out=e)
            np.subtract(1.0, e, out=e)
            np.log(e, out=e)
            yield e, phases

    def sample_array(self, n: int) -> np.ndarray:
        """(n, d) array of unit vectors from stream ``default_rng([seed, 0])``,
        drawn as (2, n, d) normals: the real plane, then the imaginary."""
        check_int("sample count n", n, 1)
        if self.d == 1:
            return np.ones((n, 1), dtype=complex)
        re, im = self._rng(0).standard_normal((2, n, self.d))
        z = np.empty(re.shape, dtype=complex)
        z.real, z.imag = re, im
        return z / np.linalg.norm(z, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# Closed-form moments of the threshold response construction
# ---------------------------------------------------------------------------


def _check_dt(d: int, t: float) -> None:
    check_int("dimension d", d, 2)
    check_unit("threshold t", t)


def aligned_weight(d: int, t: float) -> float:
    """<phi| N |phi> of the single-target simulated effect: (1-t)^(d-1)((d-1)t+1)."""
    _check_dt(d, t)
    return eta_unsteerable_bound(d, t) * ((d - 1) * t + 1.0)


def effect_trace(d: int, t: float) -> float:
    """tr N of the single-target simulated effect: d(1-t)^(d-1)."""
    _check_dt(d, t)
    return d * eta_unsteerable_bound(d, t)


def orthogonal_weight(d: int, t: float) -> float:
    """Weight of the simulated effect spread over the orthogonal subspace."""
    return effect_trace(d, t) - aligned_weight(d, t)


def noise_params_from_threshold(d: int, t: float) -> NoiseParams:
    """Noise pair reproduced by the construction at threshold t:
    eta = (1-t)^(d-1), p = t."""
    _check_dt(d, t)
    return NoiseParams(d=d, eta=eta_unsteerable_bound(d, t), p=t)


# ---------------------------------------------------------------------------
# Monte Carlo estimators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentEstimate:
    """Sample means and standard errors of the two scalar moments."""

    aligned: float
    aligned_stderr: float
    trace: float
    trace_stderr: float
    n: int


@dataclass(frozen=True, eq=False)
class EffectEstimate:
    """Entrywise Monte Carlo estimate of a simulated effect.

    Standard errors are reported separately for real and imaginary parts,
    each from the sample variance of the corresponding component.
    """

    estimate: np.ndarray
    stderr_real: np.ndarray
    stderr_imag: np.ndarray
    n: int

    def max_sigma_deviation(self, analytic: np.ndarray) -> float:
        """Largest entrywise |deviation| / stderr against a reference matrix.

        Infinite when an entry with zero stderr deviates by more than 1e-12;
        NaN when the reference has a NaN entry.
        """
        diff = self.estimate - np.asarray(analytic, dtype=complex)
        dev = np.stack([np.abs(diff.real), np.abs(diff.imag)])
        se = np.stack([self.stderr_real, self.stderr_imag])
        positive = se > 0.0
        # 0 * dev keeps a NaN deviation NaN where the stderr is zero
        exact = np.where(dev > 1e-12, np.inf, 0.0 * dev)
        return float(np.max(np.where(positive, dev / np.where(positive, se, 1.0), exact)))


def _run_shards(sampler: HaarSampler, n: int, workers: int | None, accumulate) -> list:
    """Sums of ``accumulate(e, phases)`` over the blocks ``e`` of log-moduli
    of ``n`` Haar samples, drawn in shards and streamed in blocks, each with
    its shard's phase generator.

    The samples are split into ceil(n / _CHUNK) shards whose sizes differ
    by at most one, and worker w runs shards w, w + workers, ... Shard k of
    m samples streams through ``accumulate`` in (d, b) blocks, sample index
    last, of ``b = max(_BLOCK // d, _BLOCK_ROWS)`` (see
    :meth:`HaarSampler._blocks`): its blocks, flattened in order, are
    ``log(1 - U)`` of the first d·m uniforms of ``default_rng([seed, k])``,
    the moduli. An accumulator that needs phases draws them for the accepted
    samples only, block after block, from ``default_rng([seed, k, 1])`` (see
    :func:`_accepted_states`).
    So the block size fixes which numbers form a sample. A worker allocates
    one flat block buffer once and reuses it for each of its shards, so its
    memory is one block plus that block's temporaries. The block sums are
    added in block order and the shard sums in shard order, so the sums
    depend on the seed and n but not on the worker count.
    The accumulators call no BLAS routine, whose own threads would compete
    with the workers.
    """
    check_int("sample count n", n, 1)
    if workers is not None:
        check_int("workers", workers, 1)
    shards = -(-n // _CHUNK)
    workers = min(default_workers() if workers is None else workers, shards)
    base, extra = divmod(n, shards)

    def run(w: int) -> list:
        rows = max(_BLOCK // sampler.d, _BLOCK_ROWS)
        buf = np.empty(sampler.d * min(base + 1, rows))
        return [reduce(_add, starmap(accumulate, sampler._blocks(k, base + (k < extra), buf)))
                for k in range(w, shards, workers)]

    with ThreadPoolExecutor(max_workers=workers) as pool:
        per_worker = list(pool.map(run, range(workers)))
    # shard k is the (k // workers)-th shard of worker k % workers
    return reduce(_add, (per_worker[k % workers][k // workers] for k in range(shards)))


def _add(sums, part):
    return [s + p for s, p in zip(sums, part)]


def _accepted(t, e):
    """Mask of the samples of the (d, b) block ``e`` of log-moduli
    ``L = -E <= 0`` that the threshold accepts, ``E_0 >= t sum(E)``, tested
    with the sign flipped as ``L_0 <= t sum(L)``, and the accepted
    ``sum(L)``, which is ``<= 0``: ratios ``L_i / sum(L)`` are ``E_i / sum(E)``."""
    norm = e.sum(axis=0)
    hit = e[0] <= t * norm
    return hit, np.compress(hit, norm)


def _accumulate_moments(d, t, e):
    """Sums of the aligned-weight samples ``d |z_0|^2`` over accepted
    samples, of their squares, and of ``d`` per accepted sample, with
    ``|z_0|^2 = E_0 / sum(E)`` taken from the moduli."""
    hit, norm = _accepted(t, e)
    xa = d * np.compress(hit, e[0]) / norm
    return float(xa.sum()), float((xa**2).sum()), float(xa.size) * d


def mc_response_moments(
    d: int,
    t: float,
    n: int,
    seed: int = 0,
    workers: int | None = None,
) -> MomentEstimate:
    """Monte Carlo estimate of the aligned-weight and trace moments.

    Deterministic for a fixed seed, whatever the worker count: see
    :func:`_run_shards`.
    """
    _check_dt(d, t)
    sampler = HaarSampler(d=d, seed=seed)
    s_a, s_a2, s_t = _run_shards(sampler, n, workers,
                                 lambda e, _: _accumulate_moments(d, t, e))
    # x_t takes values 0 or d, so its square sums to d * s_t
    s_t2 = d * s_t
    mean_a = s_a / n
    mean_t = s_t / n
    var_a = max(s_a2 / n - mean_a**2, 0.0)
    var_t = max(s_t2 / n - mean_t**2, 0.0)
    return MomentEstimate(
        aligned=mean_a,
        aligned_stderr=float(np.sqrt(var_a / n)),
        trace=mean_t,
        trace_stderr=float(np.sqrt(var_t / n)),
        n=n,
    )


def _accepted_states(t, e, phases):
    """(2, d, m) planes x, y of the m samples of the (d, b) block ``e`` of
    log-moduli that the threshold accepts (see :func:`_accepted`), sample
    index last: ``|z_i| = sqrt(L_i / sum(L)) = sqrt(E_i / sum(E))``, z_0
    real, and z_i for i >= 1 with the phase ``theta = pi (2U - 1)``, U read
    from a (d-1, m) draw of ``phases``. cos and sin come from ``tau = tan(theta / 2)`` as
    ``((1 - tau^2), 2 tau) / (1 + tau^2)``: one tangent is cheaper than both."""
    hit, norm = _accepted(t, e)
    zt = np.empty((2, len(e), len(norm)))
    x, y = zt
    np.compress(hit, e, axis=1, out=x)
    x /= norm
    np.sqrt(x, out=x)
    y[0] = 0.0
    tau = y[1:]
    phases.random(out=tau)
    tau -= 0.5
    tau *= np.pi
    np.tan(tau, out=tau)
    h = np.square(tau)
    h += 1.0
    np.divide(2.0, h, out=h)  # 1 + cos(theta)
    tau *= h  # sin(theta)
    h -= 1.0
    tau *= x[1:]
    x[1:] *= h
    return zt


def _accumulate_effect(d, t, rot, e, phases):
    """Sums over accepted samples of d |z><z| and of its entries' squared real
    and imaginary parts, by einsum sums over the planes z = x + iy:
    Re(z_i z_j*) = x_i x_j + y_i y_j and Im(z_i z_j*) = y_i x_j - x_i y_j.

    The samples are those of :func:`_accepted_states`, accepted on their
    first coordinate. With ``rot``, the real (2, 2, d, d) form
    ``[[Re U, -Im U], [Im U, Re U]]`` of a unitary U, they are mapped to U z
    first, so a target ``phi`` with ``U e_0 ∝ phi`` accepts them.
    """
    zt = _accepted_states(t, e, phases)
    if rot is not None:
        zt = np.einsum("klij,ljn->kin", rot, zt)
    x, y = zt
    re = np.einsum("kin,kjn->ij", zt, zt)
    im = np.einsum("in,jn->ij", y, x)
    first = (re + re.T) / 2 + 1j * (im - im.T)
    xy = x * y
    sq = np.square(zt, out=zt)  # zt is spent
    x2, y2 = sq
    cross = 2.0 * np.einsum("in,jn->ij", xy, xy)
    mixed = np.einsum("in,jn->ij", y2, x2)
    sq_im = mixed + mixed.T - cross
    np.fill_diagonal(sq_im, 0.0)  # the diagonal of |z><z| is real
    return d * first, d * d * (np.einsum("kin,kjn->ij", sq, sq) + cross), d * d * sq_im


def mc_effect(
    d: int,
    t: float,
    phi: PureState,
    n: int,
    seed: int = 0,
    workers: int | None = None,
) -> EffectEstimate:
    """Monte Carlo estimate of the simulated effect for one target state.

    Estimates the average of ``d * |z><z|`` over Haar samples accepted by
    the threshold response function. Converges to
    ``aligned_weight * |phi><phi| + orthogonal_weight * (I - |phi><phi|)/(d-1)``.
    Deterministic for a fixed seed, whatever the worker count.
    """
    _check_dt(d, t)
    if phi.dim != d:
        raise ValueError(f"target state has dim {phi.dim}, expected {d}")
    sampler = HaarSampler(d=d, seed=seed)
    target = np.asarray(phi.vec)
    rot = None
    if target[1:].any():
        # the samples are accepted on their first coordinate, so a target
        # other than e_0 needs a unitary U with U e_0 ∝ phi: the first QR
        # factor of [phi, I]
        u = np.linalg.qr(np.column_stack([target, np.eye(d)]))[0]
        rot = np.array([[u.real, -u.imag], [u.imag, u.real]])
    s1, s2_re, s2_im = _run_shards(
        sampler, n, workers, lambda e, phases: _accumulate_effect(d, t, rot, e, phases)
    )
    mean = s1 / n
    var_re = np.maximum(s2_re / n - mean.real**2, 0.0)
    var_im = np.maximum(s2_im / n - mean.imag**2, 0.0)
    return EffectEstimate(
        estimate=mean,
        stderr_real=np.sqrt(var_re / n),
        stderr_imag=np.sqrt(var_im / n),
        n=n,
    )


def _simulated_piece(d: int, t: float, alphas: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """(n, d, d) stack of the simulated effects ``(alpha/d) (aligned P +
    orthogonal (I - P)/(d-1))`` of the pieces ``alpha P``, P = |phi><phi|, one
    per entry of ``alphas`` and row ``phi`` of ``vecs``; the phase of phi cancels."""
    proj = vecs[:, :, None] * vecs[:, None, :].conj()
    return (alphas[:, None, None] / d) * (
        aligned_weight(d, t) * proj
        + orthogonal_weight(d, t) * (np.eye(d, dtype=complex) - proj) / (d - 1)
    )


def analytic_effect(d: int, t: float, phi: PureState) -> np.ndarray:
    """Closed form of the single-target simulated effect."""
    _check_dt(d, t)
    return _simulated_piece(d, t, np.array([d]), phi.vec[None])[0]


# ---------------------------------------------------------------------------
# The joint-measurability model
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ResponseFunctionModel:
    """Joint-measurability model of ``target`` under the noise ``params``:
    a parent POVM and one relabelling table.

    Each effect of the target is refined into rank-one pieces, its
    eigenvalues above 1e-12 with their eigenvectors, all from one batched
    ``eigh`` of the effects' Hermitian parts; the order of an outcome's
    pieces and the phases of their vectors are unspecified. The response
    keeps a proposed piece when the covariant parent's outcome overlaps its
    state by at least ``t = p``. Grouping parent outcomes by the accepted
    piece, plus the never-accepted remainder, gives :meth:`parent_effects`;
    :meth:`relabelling` reports each piece's outcome, turned into no-click
    with probability ``vacuum_mix`` (the extra noise needed below the exact
    transmission ``(1-p)^(d-1)``). Refuses a target with a no-click outcome
    or of another dimension, and exactly the points where
    :func:`~steerlab.analysis.certified_unsteerable` fails.
    """

    target: Povm
    params: NoiseParams

    def __post_init__(self):
        m, params = self.target, self.params
        if m.has_no_click:
            raise ValueError("the target POVM must not already have a no-click outcome")
        if m.dim != params.d:
            raise ValueError(f"POVM dim {m.dim} does not match params d={params.d}")
        if not certified_unsteerable(params.d, params.eta, params.p):
            raise ValueError(f"transmission eta={params.eta} exceeds the compatibility bound "
                             f"(1-p)^(d-1)={eta_unsteerable_bound(params.d, params.p)}; "
                             "no covariant model is available")
        evals, evecs = np.linalg.eigh((m.effects + dagger(m.effects)) / 2.0)
        owners, k = np.nonzero(evals > 1e-12)
        object.__setattr__(self, "_alphas", evals[owners, k])
        object.__setattr__(self, "_vecs", evecs[owners, :, k])
        object.__setattr__(self, "_owners", owners)

    @property
    def d(self) -> int:
        return self.params.d

    @property
    def t(self) -> float:
        return self.params.p

    @property
    def vacuum_mix(self) -> float:
        """Probability of turning a kept piece into no-click: ``1 - eta / (1-p)^(d-1)``."""
        exact_eta = eta_unsteerable_bound(self.d, self.t)
        return 0.0 if exact_eta == 0.0 else min(max(1.0 - self.params.eta / exact_eta, 0.0), 1.0)

    def parent_effects(self) -> np.ndarray:
        """The parent POVM: the simulated effect of each rank-one piece, then
        the never-accepted remainder ``I - sum``, as an (n_pieces + 1, d, d) array."""
        pieces = _simulated_piece(self.d, self.t, self._alphas, self._vecs)
        return np.concatenate([pieces, [np.eye(self.d, dtype=complex) - pieces.sum(axis=0)]])

    def relabelling(self) -> np.ndarray:
        """The post-processing p(outcome | parent outcome) of the parent.

        Rows are the target's outcomes then no-click; columns are the pieces
        then the remainder. A piece reports its outcome with probability
        ``1 - vacuum_mix`` and no-click otherwise; the remainder reports no-click.
        """
        n = len(self._owners)
        table = np.zeros((self.target.n_outcomes + 1, n + 1))
        table[self._owners, np.arange(n)] = 1.0 - self.vacuum_mix
        table[-1, :n] = self.vacuum_mix
        table[-1, n] = 1.0
        return table

    def reconstruct_povm(self) -> Povm:
        """The relabelled parent: one effect per target outcome, then no-click."""
        effects = np.einsum("an,nij->aij", self.relabelling(), self.parent_effects())
        return Povm(effects, self.target.labels + (NO_CLICK,))
