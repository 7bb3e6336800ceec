"""Small dense/sparse matrix helpers shared across the package.

Problem matrices are stored as dense ``numpy`` arrays up to dimension 256
and as ``scipy.sparse`` COO matrices above that.  Everything here accepts
both; ``nonzero_entries`` is where either storage becomes the flat
coordinate triples that ``grid.MatrixStack`` computes with.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

DENSE_LIMIT = 256


def is_sparse(matrix) -> bool:
    return sparse.issparse(matrix)


def as_dense(matrix) -> np.ndarray:
    """Materialize a matrix as a dense complex array."""
    if is_sparse(matrix):
        return np.asarray(matrix.todense(), dtype=complex)
    return np.asarray(matrix, dtype=complex)


def nonzero_entries(matrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, values) of the nonzero entries in row-major order, with
    duplicate sparse entries summed and explicit zeros dropped."""
    if is_sparse(matrix):
        csr = matrix.tocsr(copy=True)
        csr.sum_duplicates()
        csr.eliminate_zeros()
        coo = csr.tocoo()
        return (coo.row.astype(np.intp), coo.col.astype(np.intp),
                coo.data.astype(complex))
    m = np.asarray(matrix)
    rows, cols = np.nonzero(m)
    return rows, cols, m[rows, cols].astype(complex)


def coo_entries(matrix):
    """Yield (row, col, value) triples of the nonzero entries."""
    rows, cols, values = nonzero_entries(matrix)
    return zip(rows.tolist(), cols.tolist(), values.tolist())


def hermitian_residual(matrix) -> float:
    """Max absolute deviation of a matrix from its conjugate transpose."""
    if is_sparse(matrix):
        diff = (matrix - matrix.getH()).tocoo()
        return float(np.max(np.abs(diff.data))) if diff.nnz else 0.0
    m = np.asarray(matrix)
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


def is_hermitian(matrix, tol: float = 1e-12) -> bool:
    return hermitian_residual(matrix) <= tol


def embed(matrix, dim: int):
    """Zero-pad a square matrix into the top-left block of a dim x dim one."""
    if is_sparse(matrix):
        coo = matrix.tocoo()
        return sparse.coo_matrix(
            (coo.data, (coo.row, coo.col)), shape=(dim, dim)
        )
    out = np.zeros((dim, dim), dtype=complex)
    n = matrix.shape[0]
    out[:n, :n] = matrix
    return out


def conjugate_by_permutation(matrix, inverse: np.ndarray):
    """Return P M P^T given the inverse permutation (old index per new index)."""
    if is_sparse(matrix):
        coo = matrix.tocoo()
        forward = np.empty_like(inverse)
        forward[inverse] = np.arange(len(inverse))
        return sparse.coo_matrix(
            (coo.data, (forward[coo.row], forward[coo.col])),
            shape=matrix.shape,
        )
    return np.asarray(matrix)[np.ix_(inverse, inverse)]


def spectral_norm(matrix, tol: float = 1e-8, max_iters: int = 10_000) -> float:
    """Largest singular value by power iteration on M^dag M.

    Hermitian inputs only need M^2, but the generic form keeps the helper
    usable for the (rare) non-Hermitian intermediate.  Relative tolerance
    ``tol`` on successive estimates.
    """
    m = matrix if is_sparse(matrix) else np.asarray(matrix, dtype=complex)
    n = m.shape[0]
    if n == 0:
        return 0.0
    if is_sparse(m):
        if m.nnz == 0:
            return 0.0
        mh = m.getH().tocsr()
        m = m.tocsr()
    else:
        if not np.any(m):
            return 0.0
        mh = m.conj().T
    rng = np.random.default_rng(0)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    estimate = 0.0
    for _ in range(max_iters):
        w = mh @ (m @ v)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        new_estimate = np.sqrt(norm)
        v = w / norm
        if abs(new_estimate - estimate) <= tol * max(new_estimate, 1e-300):
            return float(new_estimate)
        estimate = new_estimate
    return float(estimate)
