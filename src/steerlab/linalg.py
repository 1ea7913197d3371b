"""Dense complex matrix kernels shared by every other module.

Matrices and vectors are plain ``numpy.ndarray`` objects with dtype
``complex128``; everything here is a pure function of its inputs.
All matrices in this package are small and dense (the largest routine
one is the (d(d+1))x(d(d+1)) lossy state, 272x272 at d=16), so no sparse
or accelerated paths are provided.

Positivity is decided in one place, :func:`_min_eigenvalues`: one batched
Cholesky factorization of the shifted Hermitian parts accepts a stack, and
eigenvalues are computed only when it fails, to judge and name the failure.
"""

from __future__ import annotations

import numpy as np

#: Absolute tolerance for Hermiticity checks; downstream PSD checks inherit it.
HERMITICITY_TOL = 1e-10


def as_complex_matrix(m) -> np.ndarray:
    """Return ``m`` as a 2-d complex128 array, rejecting other shapes."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {arr.ndim}")
    return arr


def freeze_array(arr: np.ndarray) -> np.ndarray:
    """Owned, read-only complex copy; used by the immutable value types."""
    out = np.array(arr, dtype=complex)
    out.setflags(write=False)
    return out


def matrix_to_entries(m: np.ndarray) -> list[list[float]]:
    """Row-major [re, im] pairs, the wire format for matrices."""
    flat = np.asarray(m, dtype=complex).ravel()
    return np.stack([flat.real, flat.imag], axis=-1).tolist()


def entries_to_matrix(entries, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`matrix_to_entries`; refuses an entry that is not a
    [re, im] pair, and boolean and non-finite parts."""
    try:
        flat = np.array([complex(re, im) for re, im in entries])
    except (TypeError, ValueError):
        bad = next((i for i, e in enumerate(entries)
                    if not isinstance(e, (list, tuple)) or len(e) != 2), None)
        if bad is None:
            raise
        raise ValueError(f"matrix entry {bad} is not a [re, im] pair: {entries[bad]!r}") from None
    bad = next((i for i, e in enumerate(entries) if bool in map(type, e)), None)
    if bad is not None:
        raise ValueError(f"matrix entry {bad} has a boolean part: {list(entries[bad])}")
    if flat.size != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, got {flat.size}")
    bad = first_false(np.isfinite(flat))
    if bad is not None:
        raise ValueError(f"matrix entry {bad[0]} is not finite: {list(entries[bad[0]])}")
    return flat.reshape(rows, cols)


def check_int(name: str, value, minimum: int) -> int:
    """``value`` as a Python int if it is a Python or numpy integer >= ``minimum``,
    else a ValueError naming ``name``: ``int()`` would read 2.9 and "2" as 2,
    and a bool is an int, so floats, strings and bools are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def check_unit(name: str, x) -> None:
    """Refuse a probability ``x``, a scalar or an array, that is boolean or
    has a value outside [0, 1], NaN included, by a ValueError naming ``name``."""
    x = np.asarray(x)
    if x.dtype == bool:
        raise ValueError(f"{name} must be a number, got {x}")
    if not np.all((x >= 0.0) & (x <= 1.0)):
        raise ValueError(f"{name} must lie in [0, 1], got {x}")


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a (..., d, d) stack."""
    return np.swapaxes(np.asarray(m).conj(), -1, -2)


def frobenius(m: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(np.asarray(m)))


def frobenius_each(m: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a (..., r, c) stack.

    The same two dot products as ``np.linalg.norm`` of one complex matrix,
    so each norm equals :func:`frobenius` of its matrix bit for bit.
    """
    m = np.asarray(m, dtype=complex)
    flat = m.reshape(m.shape[:-2] + (m.shape[-2] * m.shape[-1],))
    return np.sqrt(np.vecdot(flat.real, flat.real) + np.vecdot(flat.imag, flat.imag))


def partial_trace(m: np.ndarray, dims: tuple[int, int], keep: int) -> np.ndarray:
    """Trace out one factor of a bipartite operator.

    Parameters
    ----------
    m:
        Square matrix of side ``dims[0] * dims[1]``.
    dims:
        Pair ``(d_first, d_second)`` of subsystem dimensions.
    keep:
        Index (0 or 1) of the subsystem to keep.

    Returns
    -------
    The reduced operator on the kept subsystem. The trace is preserved.
    """
    m = as_complex_matrix(m)
    if len(dims) != 2:
        raise ValueError(f"dims must be a pair of subsystem dimensions, got {dims}")
    da, db = (check_int("subsystem dimension", d, 1) for d in dims)
    if m.shape != (da * db, da * db):
        raise ValueError(
            f"matrix side {m.shape} does not match dims {da}x{db} = {da * db}"
        )
    if keep not in (0, 1):
        raise ValueError(f"keep must be 0 or 1, got {keep}")
    t = m.reshape(da, db, da, db)
    if keep == 0:
        return np.einsum("ijkj->ik", t)
    return np.einsum("ijil->jl", t)


def _min_eigenvalues(stack: np.ndarray, tol: float) -> np.ndarray | None:
    """None when the Hermitian part of every matrix of a (..., d, d) stack
    has no eigenvalue below ``-tol``; otherwise the smallest eigenvalue of each.

    The Hermitian parts H are accepted by one batched Cholesky factorization
    of H + tol*I, which exists iff every eigenvalue of H is above -tol; its
    backward error, of order d * 2**-53 * ||H||, is far below ``tol`` for the
    matrices of this package. Only when the factorization fails are the
    eigenvalues computed, so ``eigvalsh`` judges every rejection. LAPACK
    returns a NaN factor of a non-finite matrix instead of failing, so only
    a finite factor accepts.
    """
    herm = (stack + dagger(stack)) / 2.0
    try:
        if np.isfinite(np.linalg.cholesky(herm + tol * np.eye(herm.shape[-1]))).all():
            return None
    except np.linalg.LinAlgError:
        pass
    min_eig = np.linalg.eigvalsh(herm)[..., 0]
    return None if np.all(min_eig >= -tol) else min_eig


def is_psd(m: np.ndarray, tol: float = HERMITICITY_TOL) -> bool:
    """True iff ``m`` is Hermitian within ``tol`` and its minimal eigenvalue
    is >= -tol, decided as :func:`psd_stack` decides it."""
    m = as_complex_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError("is_psd requires a square matrix")
    return bool(np.max(np.abs(m - dagger(m))) <= tol) and _min_eigenvalues(m, tol) is None


def locate(index: tuple) -> str:
    """Error-message phrase locating a matrix of a stack by its index along
    the leading batch axes: empty for an unbatched stack (``index == ()``)."""
    return f" in stack entry {index}" if index else ""


def first_false(ok) -> tuple | None:
    """Index tuple of the first False entry of a boolean array (C order), or None."""
    ok = np.asarray(ok, dtype=bool)
    if ok.all():
        return None
    return tuple(int(i) for i in np.argwhere(~ok)[0])


def psd_stack(mats, labels, what: str, sums_to_identity: bool = True) -> np.ndarray:
    """Read-only complex copy of validated stacks of PSD matrices.

    ``mats`` has shape (..., n, d, d): a stack of n matrices along axis -3,
    under any number of leading batch axes that index independent stacks.
    Each matrix must be Hermitian within ``HERMITICITY_TOL`` and have no
    eigenvalue of its Hermitian part below ``-HERMITICITY_TOL`` (one
    Cholesky factorization over the whole array accepts it; ``eigvalsh``
    runs only when that fails). With ``sums_to_identity`` every
    stack must also sum to the identity within 1e-10 in Frobenius norm.
    Errors name the offending matrix as ``what`` followed by its entry of
    ``labels`` along the stack axis (``what`` alone if ``labels`` is None),
    and its batch index as :func:`locate` does; comparisons are written so
    that NaN entries fail them.
    """
    stack = np.array(mats, dtype=complex)
    if stack.ndim < 3 or stack.shape[-1] != stack.shape[-2] or 0 in stack.shape[-3:-1]:
        raise ValueError(f"{what}s must form a nonempty (n, d, d) stack, got shape {stack.shape}")

    def name(i):
        return (what if labels is None else f"{what} {labels[i[-1]]!r}") + locate(i[:-1])

    herm_dev = np.max(np.abs(stack - dagger(stack)), axis=(-2, -1))
    bad = first_false(herm_dev <= HERMITICITY_TOL)
    if bad is not None:
        raise ValueError(f"{name(bad)} is not Hermitian within 1e-10")
    min_eig = _min_eigenvalues(stack, HERMITICITY_TOL)
    if min_eig is not None:
        bad = first_false(min_eig >= -HERMITICITY_TOL)
        raise ValueError(f"{name(bad)} is not PSD within 1e-10 (eigenvalue {min_eig[bad]:.2e})")
    if sums_to_identity:
        bad = first_false(frobenius_each(stack.sum(axis=-3) - np.eye(stack.shape[-1])) <= 1e-10)
        if bad is not None:
            raise ValueError(f"{what}s{locate(bad)} do not sum to the identity within 1e-10")
    stack.setflags(write=False)
    return stack


def distributions(q, sum_tol: float, axis: int = 0) -> np.ndarray:
    """Per-distribution verdicts on ``q`` read along ``axis``: True where no
    entry is below -1e-12 and the sum is within ``sum_tol`` of 1; NaN fails."""
    q = np.asarray(q, dtype=float)
    return np.all(q >= -1e-12, axis=axis) & (np.abs(q.sum(axis=axis) - 1.0) <= sum_tol)


def inv_sqrt(m: np.ndarray) -> np.ndarray:
    """Inverse square root of a Hermitian positive-definite matrix, or of
    each matrix of a (..., d, d) stack.

    Computed from one eigendecomposition of the Hermitian part of each
    matrix; errors locate a singular one as :func:`locate` does.

    Raises
    ------
    ValueError
        If a smallest eigenvalue is at most 1e-12 (singular input).
    """
    evals, evecs = np.linalg.eigh((m + dagger(m)) / 2.0)
    bad = first_false(evals[..., 0] > 1e-12)
    if bad is not None:
        raise ValueError(
            f"matrix{locate(bad)} is singular (smallest eigenvalue "
            f"{evals[bad][0]:.2e}); no inverse square root"
        )
    return (evecs / np.sqrt(evals)[..., None, :]) @ dagger(evecs)
