"""States, channels, POVMs, and the lossy-noisy entangled state family.

The no-click outcome of a measurement and the vacuum level added by the
loss channel are both written ``ø``. By convention the vacuum level is
the *last* basis index of the enlarged space, so the original
d-dimensional block always sits at indices 0..d-1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    as_complex_matrix,
    check_int,
    check_unit,
    entries_to_matrix,
    first_false,
    freeze_array,
    locate,
    matrix_to_entries,
    partial_trace,
    psd_stack,
    tensor,
)

#: Reserved outcome label for the no-click / vacuum outcome.
NO_CLICK = "ø"

Label = int | str


def _subsystem_dims(dims) -> tuple[int, ...]:
    """``dims`` as a tuple of ints: at least one subsystem, each of dimension
    >= 1 (:func:`~steerlab.linalg.check_int`)."""
    dims = tuple(check_int("subsystem dimension", d, 1) for d in dims)
    if not dims:
        raise ValueError("a state needs at least one subsystem dimension")
    return dims


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit vector on a tensor product of finite-dimensional factors."""

    vec: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        vec = np.asarray(self.vec, dtype=complex).ravel()
        dims = _subsystem_dims(self.dims)
        if vec.size != int(np.prod(dims)):
            raise ValueError(
                f"vector length {vec.size} does not match dims {dims}"
            )
        if abs(np.linalg.norm(vec) - 1.0) > 1e-12:
            raise ValueError("state vector is not normalized within 1e-12")
        object.__setattr__(self, "vec", freeze_array(vec))
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return self.vec.size

    def projector(self) -> np.ndarray:
        """Rank-one density matrix |psi><psi|."""
        return np.outer(self.vec, self.vec.conj())

    def to_density(self) -> "DensityOperator":
        return DensityOperator(self.projector(), self.dims)


def density_stack(mats) -> np.ndarray:
    """Read-only copy of one validated density matrix or (..., d, d) stack of them.

    Each matrix must be Hermitian and PSD within 1e-10 (one
    :func:`~steerlab.linalg.psd_stack` call) and have unit trace within
    1e-10; errors locate a matrix of a stack as
    :func:`~steerlab.linalg.locate` does.
    """
    stack = psd_stack(np.asarray(mats)[..., None, :, :], None, "density matrix",
                      sums_to_identity=False)[..., 0, :, :]
    trace = np.trace(stack, axis1=-2, axis2=-1).real
    bad = first_false(np.abs(trace - 1.0) <= 1e-10)
    if bad is not None:
        raise ValueError(f"density matrix{locate(bad)} trace differs from 1 by more than 1e-10")
    return stack


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Positive unit-trace operator carrying its subsystem dimensions."""

    mat: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        mat = as_complex_matrix(self.mat)
        dims = _subsystem_dims(self.dims)
        side = int(np.prod(dims))
        if mat.shape != (side, side):
            raise ValueError(
                f"matrix shape {mat.shape} does not match dims {dims}"
            )
        object.__setattr__(self, "mat", density_stack(mat))
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def reduced(self, keep: int) -> np.ndarray:
        """Reduced state on one factor of a bipartite operator."""
        if len(self.dims) != 2:
            raise ValueError("reduced() requires exactly two subsystems")
        return partial_trace(self.mat, (self.dims[0], self.dims[1]), keep)

    def to_document(self) -> dict:
        """JSON-compatible document: dims plus row-major [re, im] entries."""
        return {"dims": list(self.dims), "entries": matrix_to_entries(self.mat)}

    @classmethod
    def from_document(cls, doc: dict) -> "DensityOperator":
        try:
            dims = tuple(check_int("density-operator document dims entry", d, 1)
                         for d in doc["dims"])
            side = int(np.prod(dims))
            mat = entries_to_matrix(doc["entries"], side, side)
        except TypeError as exc:
            raise ValueError(f"malformed density-operator document: {exc}") from exc
        return cls(mat, dims)


@dataclass(frozen=True, eq=False)
class Povm:
    """Labelled positive effects summing to the identity.

    ``effects`` is one read-only complex (n, d, d) array and ``labels`` the
    outcome labels in the same order, 0..n-1 unless given. The label ``ø``
    is reserved for the no-click outcome.
    """

    effects: np.ndarray
    labels: tuple[Label, ...] | None = None

    def __post_init__(self):
        if np.ndim(self.effects) != 3:
            raise ValueError(
                f"effects must form one (n, d, d) stack, got shape {np.shape(self.effects)}"
            )
        n = len(self.effects)
        labels = tuple(range(n)) if self.labels is None else tuple(self.labels)
        if len(labels) != n:
            raise ValueError(f"{len(labels)} labels given for {n} effects")
        if len(set(labels)) != n:
            raise ValueError(f"duplicate outcome labels: {list(labels)}")
        object.__setattr__(self, "effects", psd_stack(self.effects, labels, "effect"))
        object.__setattr__(self, "labels", labels)

    @classmethod
    def _from_checked(cls, effects: np.ndarray, labels: tuple) -> "Povm":
        """The POVM of a (n, d, d) stack that :func:`~steerlab.linalg.psd_stack`
        returned for the distinct ``labels``, without running its checks again."""
        povm = object.__new__(cls)
        object.__setattr__(povm, "effects", effects)
        object.__setattr__(povm, "labels", labels)
        return povm

    @property
    def dim(self) -> int:
        return self.effects.shape[1]

    @property
    def n_outcomes(self) -> int:
        return len(self.labels)

    def effect(self, label: Label) -> np.ndarray:
        if label not in self.labels:
            raise KeyError(f"no outcome labelled {label!r}")
        return self.effects[self.labels.index(label)]

    @property
    def has_no_click(self) -> bool:
        return NO_CLICK in self.labels

    def to_document(self) -> dict:
        return {
            "dim": self.dim,
            "effects": [
                {"label": label, "entries": matrix_to_entries(mat)}
                for label, mat in zip(self.labels, self.effects)
            ],
        }

    @classmethod
    def from_document(cls, doc: dict) -> "Povm":
        effects = doc.get("effects") if isinstance(doc, dict) else None
        if not isinstance(effects, list) or not all(isinstance(e, dict) for e in effects):
            raise ValueError("a POVM document must be an object with a list of effect objects")
        for label in (e.get("label") for e in effects):
            if isinstance(label, bool) or not isinstance(label, (int, str)):
                raise ValueError(f"effect labels must be integers or strings, got {label!r}")
        dim = check_int("POVM document dim", doc.get("dim"), 1)
        try:
            mats = [entries_to_matrix(e["entries"], dim, dim) for e in effects]
        except TypeError as exc:
            raise ValueError(f"malformed POVM document: {exc}") from exc
        return cls(mats, [e["label"] for e in effects])


# ---------------------------------------------------------------------------
# Channels
# ---------------------------------------------------------------------------


def _operand(m, side: int) -> np.ndarray:
    """``m`` as a complex (side, side) matrix or (..., side, side) stack."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim < 2 or arr.shape[-2:] != (side, side):
        raise ValueError(
            f"expected a ({side}, {side}) matrix or a stack of them, got shape {arr.shape}"
        )
    return arr


def _noisify(m: np.ndarray, eta: float, p: float) -> np.ndarray:
    """``eta*p*M + eta*(1-p)*tr(M)*I/d`` for each matrix M of a (..., d, d) stack:
    white noise of visibility ``p``, then transmission ``eta`` onto the signal
    block. The trace is kept complex, so non-Hermitian blocks map linearly."""
    d = m.shape[-1]
    traces = np.trace(m, axis1=-2, axis2=-1)[..., None, None]
    return eta * p * m + eta * (1.0 - p) * traces * np.eye(d) / d


class Channel:
    """Completely positive trace-preserving map from ``in_dim`` to ``out_dim``.

    An interface: every channel computes :meth:`apply_to_matrix` and
    :meth:`dual` in closed form, each taking one matrix or a (..., n, n)
    stack and mapping each matrix of it. There is no Kraus-sum fallback.
    :meth:`kraus_operators` lists Kraus operators only for independent
    checks and for the benchmark, which counts them.
    """

    in_dim: int
    out_dim: int

    def kraus_operators(self) -> list[np.ndarray]:
        """Kept for the tests' Kraus-sum oracle and steerbench's objects.kraus_ops count."""
        raise NotImplementedError

    def apply_to_matrix(self, m: np.ndarray) -> np.ndarray:
        """Schroedinger picture: the image of ``m`` under the channel."""
        raise NotImplementedError

    def dual(self, effect: np.ndarray) -> np.ndarray:
        """Heisenberg picture: the effect pulled back through the channel."""
        raise NotImplementedError


class WhiteNoise(Channel):
    """Depolarizing channel: keeps the state with probability p, else
    replaces it with the maximally mixed state."""

    def __init__(self, p: float, d: int):
        check_unit("visibility p", p)
        self.p = float(p)
        self.d = check_int("dimension d", d, 1)
        self.in_dim = self.out_dim = self.d

    def kraus_operators(self) -> list[np.ndarray]:
        d, p = self.d, self.p
        # sqrt(p) I, then sqrt((1-p)/d) |i><j| for each matrix unit in row-major order
        units = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
        return [np.sqrt(p) * np.eye(d, dtype=complex), *(np.sqrt((1.0 - p) / d) * units)]

    def apply_to_matrix(self, m: np.ndarray) -> np.ndarray:
        return _noisify(_operand(m, self.d), 1.0, self.p)

    # the channel is self-dual
    dual = apply_to_matrix

    def __repr__(self):
        return f"WhiteNoise(p={self.p}, d={self.d})"


class Loss(Channel):
    """Transmission channel: delivers the state with probability eta, else
    outputs the vacuum level appended as the last index of a (d+1)-dimensional
    space."""

    def __init__(self, eta: float, d: int):
        check_unit("transmission eta", eta)
        self.eta = float(eta)
        self.d = check_int("dimension d", d, 1)
        self.in_dim = self.d
        self.out_dim = self.d + 1

    def kraus_operators(self) -> list[np.ndarray]:
        d, eta = self.d, self.eta
        # sqrt(eta) times the embedding, then sqrt(1-eta) |ø><k| for each k
        to_vacuum = np.zeros((d, d + 1, d), dtype=complex)
        to_vacuum[:, d, :] = np.sqrt(1.0 - eta) * np.eye(d)
        return [np.sqrt(eta) * np.eye(d + 1, d, dtype=complex), *to_vacuum]

    def apply_to_matrix(self, m: np.ndarray) -> np.ndarray:
        m = _operand(m, self.d)
        d = self.d
        out = np.zeros(m.shape[:-2] + (d + 1, d + 1), dtype=complex)
        out[..., :d, :d] = self.eta * m
        out[..., d, d] = (1.0 - self.eta) * np.trace(m, axis1=-2, axis2=-1)
        return out

    def dual(self, effect: np.ndarray) -> np.ndarray:
        effect = _operand(effect, self.d + 1)
        d = self.d
        vacuum = effect[..., d, d, None, None]
        return self.eta * effect[..., :d, :d] + (1.0 - self.eta) * vacuum * np.eye(d)

    def __repr__(self):
        return f"Loss(eta={self.eta}, d={self.d})"


class Composition(Channel):
    """Sequential composition; ``steps`` are applied first-to-last.

    Factors are stored rather than multiplied out, so the dual is computed
    exactly by running the factor duals in reverse.
    """

    def __init__(self, steps: list[Channel]):
        if not steps:
            raise ValueError("composition needs at least one channel")
        for a, b in zip(steps, steps[1:]):
            if a.out_dim != b.in_dim:
                raise ValueError(
                    f"cannot chain output dim {a.out_dim} into input dim {b.in_dim}"
                )
        self.steps = list(steps)
        self.in_dim = steps[0].in_dim
        self.out_dim = steps[-1].out_dim

    def kraus_operators(self) -> list[np.ndarray]:
        ops = [np.eye(self.in_dim, dtype=complex)]
        for step in self.steps:
            ops = [k @ op for op in ops for k in step.kraus_operators()]
        return ops

    def apply_to_matrix(self, m: np.ndarray) -> np.ndarray:
        for step in self.steps:
            m = step.apply_to_matrix(m)
        return m

    def dual(self, effect: np.ndarray) -> np.ndarray:
        for step in reversed(self.steps):
            effect = step.dual(effect)
        return effect

    def __repr__(self):
        return f"Composition({self.steps!r})"


def lossy_noisy_channel(d: int, eta: float, p: float) -> Composition:
    """White noise followed by loss, mapping dimension d to d+1."""
    return Composition([WhiteNoise(p, d), Loss(eta, d)])


def apply_channel(c: Channel, rho: DensityOperator, on_subsystem: int) -> DensityOperator:
    """Apply a channel to one subsystem of a (possibly multipartite) state.

    Maps every block in one call to the channel's closed-form
    :meth:`Channel.apply_to_matrix`.
    """
    dims = rho.dims
    if not 0 <= on_subsystem < len(dims):
        raise ValueError(f"subsystem index {on_subsystem} out of range for dims {dims}")
    if dims[on_subsystem] != c.in_dim:
        raise ValueError(
            f"subsystem dimension {dims[on_subsystem]} does not match channel input {c.in_dim}"
        )
    before = int(np.prod(dims[:on_subsystem], dtype=int))
    after = int(np.prod(dims[on_subsystem + 1:], dtype=int))
    n, m = c.in_dim, c.out_dim
    # one (n x n) block per pair of basis states of the other factors; the
    # channel is linear, so it maps each block on its own
    blocks = rho.mat.reshape(before, n, after, before, n, after).transpose(0, 2, 3, 5, 1, 4)
    mapped = c.apply_to_matrix(blocks.reshape(-1, n, n))
    out = mapped.reshape(before, after, before, after, m, m).transpose(0, 4, 1, 2, 5, 3)
    new_dims = dims[:on_subsystem] + (m,) + dims[on_subsystem + 1:]
    side_out = before * m * after
    return DensityOperator(out.reshape(side_out, side_out), new_dims)


# ---------------------------------------------------------------------------
# State constructions
# ---------------------------------------------------------------------------


def phi_plus(d: int) -> PureState:
    """Maximally entangled two-qudit state (1/sqrt(d)) sum_k |k,k>."""
    d = check_int("dimension d", d, 2)
    vec = np.zeros(d * d, dtype=complex)
    for k in range(d):
        vec[k * d + k] = 1.0
    return PureState(vec / np.sqrt(d), (d, d))


def one_way_state(d: int, eta: float, p: float) -> DensityOperator:
    """The noisy-lossy entangled family on dimensions (d, d+1).

    Equals ``eta*p * Phi+ + eta*(1-p) * (I (x) I)/d^2 + (1-eta) * (I/d) (x) |ø><ø|``
    with the d-dimensional second factor embedded as the first d levels of
    the enlarged (d+1)-dimensional space.
    """
    d = check_int("dimension d", d, 2)
    check_unit("eta", eta)
    check_unit("p", p)
    db = d + 1
    mat = np.zeros((d * db, d * db), dtype=complex)
    # maximally entangled block
    for k in range(d):
        for l in range(d):
            mat[k * db + k, l * db + l] += eta * p / d
    # white noise on the signal block
    block = np.zeros((db, db), dtype=complex)
    block[:d, :d] = np.eye(d)
    mat += eta * (1.0 - p) / d**2 * tensor(np.eye(d), block)
    # vacuum component
    vac = np.zeros((db, db), dtype=complex)
    vac[d, d] = 1.0
    mat += (1.0 - eta) / d * tensor(np.eye(d), vac)
    return DensityOperator(mat, (d, db))


def mub_pair(d: int) -> tuple[Povm, Povm]:
    """Computational and Fourier bases as rank-one projective POVMs.

    The two bases are mutually unbiased in every dimension d >= 2: every
    cross overlap |<e_i|f_j>|^2 equals 1/d.
    """
    d = check_int("dimension d", d, 2)
    comp = np.zeros((d, d, d), dtype=complex)
    comp[np.arange(d), np.arange(d), np.arange(d)] = 1.0
    omega = np.exp(2j * np.pi / d)
    fourier = omega ** np.outer(np.arange(d), np.arange(d)) / np.sqrt(d)
    return Povm(comp), Povm(fourier[:, :, None] * fourier.conj()[:, None, :])
