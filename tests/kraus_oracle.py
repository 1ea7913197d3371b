"""Kraus-sum oracle for the closed-form channels of ``steerlab.objects``.

The library maps every channel in closed form. The sums over Kraus
operators here are the independent check of those forms: a channel built
from a plain Kraus list, its closure residual and the Choi matrix.
"""

import numpy as np

from steerlab.linalg import as_complex_matrix, dagger, frobenius
from steerlab.objects import Channel, _operand


def kraus_closure_residual(chan: Channel) -> float:
    """Frobenius distance of sum_k K^dag K from the identity."""
    total = sum(dagger(k) @ k for k in chan.kraus_operators())
    return frobenius(total - np.eye(chan.in_dim))


def choi_matrix(chan: Channel) -> np.ndarray:
    """Choi matrix sum_ij |i><j| (x) C(|i><j|); PSD iff the map is CP."""
    d, m = chan.in_dim, chan.out_dim
    # entry (i, j) of the identity reshaped to (d, d, d, d) is |i><j|
    images = chan.apply_to_matrix(np.eye(d * d).reshape(d, d, d, d))
    return images.transpose(0, 2, 1, 3).reshape(d * m, d * m)


class KrausChannel(Channel):
    """Channel defined directly by a list of Kraus operators and mapped by
    explicit sums over them."""

    def __init__(self, kraus: list[np.ndarray]):
        kraus = [as_complex_matrix(k) for k in kraus]
        if not kraus:
            raise ValueError("at least one Kraus operator is required")
        out_dim, in_dim = kraus[0].shape
        for k in kraus:
            if k.shape != (out_dim, in_dim):
                raise ValueError("Kraus operators must share one shape")
        self._kraus = kraus
        self.in_dim = in_dim
        self.out_dim = out_dim
        if kraus_closure_residual(self) > 1e-10:
            raise ValueError("Kraus operators are not trace preserving within 1e-10")

    def kraus_operators(self) -> list[np.ndarray]:
        return list(self._kraus)

    def apply_to_matrix(self, m: np.ndarray) -> np.ndarray:
        """Schroedinger picture: sum_k K m K^dag."""
        m = _operand(m, self.in_dim)
        out = np.zeros(m.shape[:-2] + (self.out_dim, self.out_dim), dtype=complex)
        for k in self._kraus:
            out += k @ m @ dagger(k)
        return out

    def dual(self, effect: np.ndarray) -> np.ndarray:
        """Heisenberg picture: sum_k K^dag E K."""
        effect = _operand(effect, self.out_dim)
        out = np.zeros(effect.shape[:-2] + (self.in_dim, self.in_dim), dtype=complex)
        for k in self._kraus:
            out += dagger(k) @ effect @ k
        return out
