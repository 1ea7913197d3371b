"""Covariant simulation of noisy-lossy measurements.

A continuous parent measurement with density ``d |z><z|`` over Haar-random
pure states, together with threshold response functions
``accept iff |<phi|z>|^2 >= t``, reproduces every noisy-lossy POVM whose
transmission does not exceed ``(1-t)^(d-1)`` at visibility ``t``. The
closed-form moments of the construction, a Monte Carlo estimator for them,
and the explicit joint-measurability model built from them all live here.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .analysis import certified_unsteerable, eta_unsteerable_bound
from .linalg import eig_hermitian
from .lossy import NoiseParams
from .objects import NO_CLICK, Label, Povm, PureState

#: Per-chunk sample count for memory-bounded accumulation.
_CHUNK = 1 << 16


def default_workers() -> int:
    """Worker count: STEERLAB_THREADS if set, else available parallelism."""
    env = os.environ.get("STEERLAB_THREADS")
    if env is not None:
        try:
            n = int(env)
        except ValueError:
            n = 0  # rejected below with the other invalid values
        if n < 1:
            raise ValueError(f"STEERLAB_THREADS must be an integer >= 1, got {env!r}")
        return n
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class HaarSampler:
    """Reproducible sampler of Haar-distributed pure states: draws 2d
    standard normals per state and normalizes."""

    d: int
    seed: int = 0

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")

    def _normals(self, n: int, shard: int) -> np.ndarray:
        """The (2, n, d) standard normals of stream ``shard``, in one draw:
        the real plane, then the imaginary plane."""
        return np.random.default_rng([self.seed, shard]).standard_normal((2, n, self.d))

    def sample_array(self, n: int, shard: int = 0) -> np.ndarray:
        """(n, d) array of unit vectors; ``shard`` selects an independent stream."""
        if n < 1:
            raise ValueError(f"sample count must be >= 1, got {n}")
        if self.d == 1:
            return np.ones((n, 1), dtype=complex)
        return _unit_rows(*self._normals(n, shard))

    def states(self, n: int) -> list[PureState]:
        return [PureState(row, (self.d,)) for row in self.sample_array(n)]


def _unit_rows(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The rows of ``re + i im``, each divided by its norm."""
    z = np.empty(re.shape, dtype=complex)
    z.real, z.imag = re, im
    return z / np.linalg.norm(z, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# Closed-form moments of the threshold response construction
# ---------------------------------------------------------------------------


def _check_dt(d: int, t: float) -> None:
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"threshold t must lie in [0, 1], got {t}")


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
    """Sums of ``accumulate(g)`` over the Gaussian planes ``g`` of ``n`` Haar
    samples, drawn in shards.

    The samples are split into ceil(n / _CHUNK) shards whose sizes differ
    by at most one; shard k passes ``accumulate`` the (2, m, d) normals of
    ``sampler.sample_array(m, shard=k)``, unnormalized. Threads only
    schedule shards and the results are summed in shard order, so the sums
    depend on the seed and n but not on the worker count. The accumulators
    call no BLAS routine, whose own threads would compete with the workers.
    """
    workers = default_workers() if workers is None else workers
    shards = -(-n // _CHUNK)
    base, extra = divmod(n, shards)

    def run(k: int):
        return accumulate(sampler._normals(base + (k < extra), k))

    with ThreadPoolExecutor(max_workers=min(workers, shards)) as pool:
        results = list(pool.map(run, range(shards)))
    return [sum(parts) for parts in zip(*results)]


def _accumulate_moments(d, t, g):
    """Sums of the aligned-weight samples ``d |z_0|^2`` over accepted
    samples, of their squares, and of ``d`` per accepted sample, with
    ``|z_0|^2 = |g_0|^2 / |g|^2`` taken from the planes."""
    g0 = g[:, :, 0]
    overlap = (g0[0] ** 2 + g0[1] ** 2) / np.einsum("kni,kni->n", g, g)
    xa = d * overlap[overlap >= t]
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
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    sampler = HaarSampler(d=d, seed=seed)
    s_a, s_a2, s_t = _run_shards(sampler, n, workers, lambda g: _accumulate_moments(d, t, g))
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


def _accumulate_effect(d, t, phi, g):
    """Sums over accepted samples of d |z><z| and of its entries' squared real
    and imaginary parts, by einsum sums over the planes z = x + iy:
    Re(z_i z_j*) = x_i x_j + y_i y_j and Im(z_i z_j*) = y_i x_j - x_i y_j.

    A sample is accepted when |<phi|g>|^2 >= t |g|^2, so only the accepted
    rows of the planes ``g`` are normalized.
    """
    a, b = phi.real, phi.imag
    # <phi|g> = (x.a + y.b) + i (y.a - x.b)
    ov_re = np.einsum("kni,ki->n", g, np.stack([a, b]))
    ov_im = np.einsum("kni,ki->n", g, np.stack([-b, a]))
    norm2 = np.einsum("kni,kni->n", g, g)
    hit = ov_re**2 + ov_im**2 >= t * norm2
    # (2, d, k) with the sample index last, where einsum sums fastest
    zt = np.compress(hit, g, axis=1).transpose(0, 2, 1).copy()
    zt /= np.sqrt(norm2[hit])
    x, y = zt
    sq, xy = zt * zt, x * y
    x2, y2 = sq
    re = np.einsum("kin,kjn->ij", zt, zt)
    im = np.einsum("in,jn->ij", y, x)
    first = (re + re.T) / 2 + 1j * (im - im.T)
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
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    sampler = HaarSampler(d=d, seed=seed)
    target = np.asarray(phi.vec)
    s1, s2_re, s2_im = _run_shards(
        sampler, n, workers, lambda g: _accumulate_effect(d, t, target, g)
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


def _simulated_piece(d: int, t: float, alpha: float, vec: np.ndarray) -> np.ndarray:
    """Simulated effect of one rank-one piece ``alpha |phi><phi|``:
    ``(alpha/d) (aligned P + orthogonal (I - P)/(d-1))`` with P = |phi><phi|."""
    proj = np.outer(vec, vec.conj())
    return (alpha / d) * (
        aligned_weight(d, t) * proj
        + orthogonal_weight(d, t) * (np.eye(d, dtype=complex) - proj) / (d - 1)
    )


def analytic_effect(d: int, t: float, phi: PureState) -> np.ndarray:
    """Closed form of the single-target simulated effect."""
    _check_dt(d, t)
    return _simulated_piece(d, t, d, phi.vec)


# ---------------------------------------------------------------------------
# Analytic simulation of rank-one POVMs and the joint-measurability model
# ---------------------------------------------------------------------------


def simulate_rank1_povm(targets: list[tuple[float, np.ndarray]], t: float) -> Povm:
    """Analytic POVM produced by simulating a rank-one target POVM.

    ``targets`` lists (weight, vector) pairs whose effects ``weight |v><v|``
    resolve the identity. This is :func:`build_jm_model` at the exact
    transmission ``(1-t)^(d-1)``: effect a comes out as ``(alpha_a/d) *
    (aligned |phi_a><phi_a| + orthogonal (I-|phi_a><phi_a|)/(d-1))`` and the
    leftover probability becomes a no-click effect.
    """
    povm = Povm([alpha * np.outer(vec, np.conj(vec)) for alpha, vec in targets])
    return build_jm_model(povm, noise_params_from_threshold(povm.dim, t)).reconstruct_povm()


@dataclass(frozen=True, eq=False)
class ResponseFunctionModel:
    """Joint-measurability model for one noisy-lossy POVM: a parent POVM and
    one relabelling table.

    The response keeps a proposed rank-one piece when the covariant parent's
    outcome overlaps its target state by at least ``t``. Grouping parent
    outcomes by the accepted piece, plus the never-accepted remainder, gives
    :meth:`parent_effects`; :meth:`relabelling` reports each piece's outcome
    label, turned into no-click with probability ``vacuum_mix`` (the extra
    noise needed below the exact-transmission point). The reconstructed
    POVM, the responses at parent outcomes and the exact certificate are all
    derived from this pair.
    """

    d: int
    t: float
    targets: tuple[tuple[float, np.ndarray], ...]
    piece_labels: tuple[Label, ...]
    target_labels: tuple[Label, ...]
    vacuum_mix: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.t <= 1.0:
            raise ValueError(f"threshold t must lie in [0, 1], got {self.t}")
        if not 0.0 <= self.vacuum_mix <= 1.0:
            raise ValueError(f"vacuum_mix must lie in [0, 1], got {self.vacuum_mix}")
        targets = []
        alphas = []
        for alpha, vec in self.targets:
            alpha = float(alpha)
            vec = np.asarray(vec, dtype=complex).ravel()
            if alpha < 0:
                raise ValueError("target weights must be nonnegative")
            if abs(np.linalg.norm(vec) - 1.0) > 1e-10:
                raise ValueError("target vectors must be unit norm")
            targets.append((alpha, vec))
            alphas.append(alpha)
        if abs(sum(alphas) - self.d) > 1e-10:
            raise ValueError("target weights must sum to the dimension")
        if len(self.piece_labels) != len(targets):
            raise ValueError("one outcome label per rank-one piece is required")
        object.__setattr__(self, "targets", tuple(targets))

    @property
    def sampling_dist(self) -> np.ndarray:
        """Distribution from which the output proposal is drawn."""
        return np.array([alpha for alpha, _ in self.targets]) / self.d

    def parent_effects(self) -> np.ndarray:
        """The parent POVM: the simulated effect of each rank-one piece, then
        the never-accepted remainder ``I - sum``, as an (n_pieces + 1, d, d) array."""
        pieces = [_simulated_piece(self.d, self.t, alpha, vec) for alpha, vec in self.targets]
        return np.stack(pieces + [np.eye(self.d, dtype=complex) - sum(pieces)])

    def relabelling(self) -> np.ndarray:
        """The post-processing p(outcome | parent outcome) of the parent.

        Rows are ``target_labels`` then no-click; columns are the pieces then
        the remainder. A piece reports its label with probability
        ``1 - vacuum_mix`` and no-click otherwise; the remainder reports no-click.
        """
        n = len(self.targets)
        table = np.zeros((len(self.target_labels) + 1, n + 1))
        rows = [self.target_labels.index(label) for label in self.piece_labels]
        table[rows, np.arange(n)] = 1.0 - self.vacuum_mix
        table[-1, :n] = self.vacuum_mix
        table[-1, n] = 1.0
        return table

    def reconstruct_povm(self) -> Povm:
        """The relabelled parent: one effect per target label, then no-click."""
        effects = np.einsum("an,nij->aij", self.relabelling(), self.parent_effects())
        return Povm(effects, self.target_labels + (NO_CLICK,))

    def response_probabilities(self, states: np.ndarray) -> np.ndarray:
        """Outcome probabilities of the model at given parent outcomes.

        ``states`` is an (n, d) array of unit vectors; returns an array of
        shape (len(target_labels) + 1, n) whose final row is the no-click
        outcome.
        """
        states = np.asarray(states, dtype=complex)
        vecs = np.array([vec for _, vec in self.targets])
        hits = self.sampling_dist[:, None] * (np.abs(vecs.conj() @ states.T) ** 2 >= self.t)
        return self.relabelling() @ np.vstack([hits, 1.0 - hits.sum(axis=0)])


def build_jm_model(m: Povm, params: NoiseParams) -> ResponseFunctionModel:
    """Explicit simulation model for a noisy-lossy POVM.

    Refines each effect into rank-one pieces, runs the covariant
    construction at threshold t = p, and mixes extra no-click noise when
    the requested transmission sits strictly below the exact point
    ``(1-p)^(d-1)``. Refuses exactly the points where
    :func:`~steerlab.analysis.certified_unsteerable` fails, where no such
    model exists in this construction.
    """
    if m.has_no_click:
        raise ValueError("the target POVM must not already have a no-click outcome")
    if m.dim != params.d:
        raise ValueError(f"POVM dim {m.dim} does not match params d={params.d}")
    exact_eta = eta_unsteerable_bound(params.d, params.p)
    if not certified_unsteerable(params.d, params.eta, params.p):
        raise ValueError(
            f"transmission eta={params.eta} exceeds the compatibility bound "
            f"(1-p)^(d-1)={exact_eta}; no covariant model is available"
        )
    pieces = []
    piece_labels = []
    for label, mat in zip(m.labels, m.effects):
        evals, evecs = eig_hermitian(mat)
        for i, lam in enumerate(evals):
            if lam > 1e-12:
                pieces.append((float(lam), evecs[:, i]))
                piece_labels.append(label)
    mix = 0.0 if exact_eta == 0.0 else min(max(1.0 - params.eta / exact_eta, 0.0), 1.0)
    return ResponseFunctionModel(
        d=params.d,
        t=params.p,
        targets=tuple(pieces),
        piece_labels=tuple(piece_labels),
        target_labels=m.labels,
        vacuum_mix=mix,
    )
