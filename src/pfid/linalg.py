"""Dense matrix kernels and the exact rank-k truncated SVD.

Matrices are 2-D float64 numpy arrays throughout. Hidden states are n x d
(positions x features) everywhere in the process; the SVD here works on the
d x n transpose the packet codec ships, so in `TruncatedFactors` u spans
features and v positions. Public entry points validate shape and
finiteness; everything downstream assumes clean inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Matrix",
    "TruncatedFactors",
    "truncated_svd",
    "reconstruct",
    "ratio_to_rank",
]

Matrix = np.ndarray

# The Gram route squares the condition number: the derived factor loses
# orthogonality like eps * lambda_1 / lambda_k. Past this eigenvalue ratio
# (sigma_1 / sigma_k >= 1e4) that loss would exceed binary32's resolution,
# so the full LAPACK SVD is used instead.
GRAM_MIN_EIG_RATIO = 1e-8


def check_matrix(m: Matrix, name: str = "matrix") -> Matrix:
    """Validate a hidden-state carrier: 2-D, nonempty, finite float64."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"{name} must be nonempty, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


@dataclass(frozen=True)
class TruncatedFactors:
    """Rank-k factor triple (U, s, V) of a d x n matrix.

    u is d x k with orthonormal columns, s the k singular values sorted
    non-increasing, v is n x k with orthonormal columns; d, n and k are
    read off these shapes. Construction checks shapes, signs and order;
    `pfid.protocol.decode_packet` checks orthonormality, where factors
    arrive from outside.
    """

    u: Matrix
    s: np.ndarray
    v: Matrix

    def __post_init__(self) -> None:
        u, s, v = np.asarray(self.u), np.asarray(self.s), np.asarray(self.v)
        if not (u.ndim == v.ndim == 2 and s.ndim == 1 and u.shape[1] == v.shape[1] == s.size
                and 1 <= s.size <= min(u.shape[0], v.shape[0])):
            raise ValueError(
                f"factor shapes u {u.shape}, s {s.shape}, v {v.shape} are not"
                " d x k, (k,), n x k with 1 <= k <= min(d, n)"
            )
        # NaN fails both comparisons, so it is rejected wherever it sits.
        if not (s[-1] >= 0 and (s[:-1] >= s[1:]).all()):
            raise ValueError("singular values must be nonnegative and non-increasing")


def truncated_svd(h: Matrix, k: int, seed: int | None = None) -> TruncatedFactors:
    """Exact rank-k truncated SVD of h: the Eckart-Young optimum.

    The top-k eigenpairs of the small Gram matrix (h h^T when d <= n, else
    h^T h) give one factor and s = sqrt(lambda); the other factor is
    h^T u / s (or h v / s). When lambda_k <= GRAM_MIN_EIG_RATIO * lambda_1,
    as for zero or rank-deficient input, LAPACK's SVD of h is used instead.
    Each column's sign is the one the eigensolver (or LAPACK) returned. No
    reader depends on it: negating a column of u with the same column of v
    leaves every bit of U diag(s) V^T unchanged. There are no random draws,
    so equal inputs give equal bits; seed is accepted for existing callers
    and unused.
    """
    h = check_matrix(h, "h")
    d, n = h.shape
    if not (1 <= k <= min(d, n)):
        raise ValueError(f"rank k={k} out of range for {d}x{n} (valid: 1..{min(d, n)})")

    factors = _gram_factors(h, k)
    if factors is None:
        u, s, vt = np.linalg.svd(h, full_matrices=False)
        factors = u[:, :k], s[:k], vt[:k].T
    return TruncatedFactors(*factors)


def _gram_factors(h: Matrix, k: int) -> tuple[Matrix, np.ndarray, Matrix] | None:
    """(u, s, v) from the small Gram matrix's top-k eigenpairs, or None
    when that route would lose accuracy."""
    d, n = h.shape
    with np.errstate(over="ignore"):
        gram = h @ h.T if d <= n else h.T @ h
    if not np.isfinite(gram).all():  # entries beyond about 1e154 overflow
        return None
    lam, w = np.linalg.eigh(gram)  # ascending
    lam, w = lam[:-k - 1:-1], w[:, :-k - 1:-1]
    if lam[-1] <= GRAM_MIN_EIG_RATIO * lam[0]:
        return None
    s = np.sqrt(lam)
    return (w, s, h.T @ (w / s)) if d <= n else (h @ (w / s), s, w)


def reconstruct(f: TruncatedFactors) -> Matrix:
    """Rank-k approximation U diag(s) V^T with the original d x n shape.

    It is the transpose of the n x d product V (U diag(s))^T, so the n x d
    hidden state transposed back from it is C-ordered without a copy. Both
    products multiply the same pairs, and OpenBLAS sums them in the same
    order: the bits equal (U diag(s)) V^T's (tests/test_linalg.py).
    """
    return (f.v @ (f.u * f.s).T).T


def ratio_to_rank(p: float, d: int, n: int) -> int:
    """Map a truncation ratio to a kept rank.

    p is the fraction of singular components discarded; the kept rank is
    selected by index, k = max(1, round((1 - p) * min(d, n))), never by
    cumulative energy. Rounding is half-away-from-zero.
    """
    if not (0.0 <= p < 1.0):
        raise ValueError(f"truncation ratio must be in [0, 1), got {p}")
    if d < 1 or n < 1:
        raise ValueError(f"dimensions must be positive, got d={d}, n={n}")
    kept = (1.0 - p) * min(d, n)
    return max(1, int(np.floor(kept + 0.5)))
