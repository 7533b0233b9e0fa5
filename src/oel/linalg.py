"""Dense real symmetric matrix kernel.

The eigensolver is LAPACK's divide-and-conquer ``syevd`` through
``numpy.linalg.eigh``; Loewner comparisons need only the smallest eigenvalue
and call ``numpy.linalg.eigvalsh``.

Validation happens once, at the input boundary: public functions pass every
matrix they receive through ``as_symmetric``, while the ``_``-prefixed
helpers they share trust their arguments to be finite, square and exactly
symmetric. Internal arrays keep that promise by being built through
``symmetrize`` or as sums and scalar multiples of exactly symmetric matrices.

Matrices are plain float64 numpy arrays. The JSON file format shared with
the CLI is ``{"n": <int>, "data": [[row], ...]}``; symmetry is validated on
load.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

SYMMETRY_TOL = 1e-12
EIG_FLOOR = 1e-12  # reject inverse roots when min eigenvalue <= floor * max


def as_symmetric(A, tol: float = SYMMETRY_TOL) -> np.ndarray:
    """Validate and return a float64 copy of a symmetric matrix."""
    M = np.array(A, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix entries must be finite")
    gap = np.abs(M - M.T)
    bound = tol * (1.0 + np.abs(M))
    if np.any(gap > bound):
        i, j = np.unravel_index(np.argmax(gap - bound), M.shape)
        raise ValueError(f"matrix is not symmetric at ({i}, {j}): {M[i, j]!r} vs {M[j, i]!r}")
    return (M + M.T) / 2.0


def symmetrize(M: np.ndarray) -> np.ndarray:
    return (M + M.T) / 2.0


@dataclass
class EigenDecomposition:
    """Orthogonal factor and ascending eigenvalues with A = Q diag(l) Q^T."""

    vectors: np.ndarray
    values: np.ndarray

    @property
    def n(self) -> int:
        return self.values.shape[0]


def _eig(M: np.ndarray) -> EigenDecomposition:
    values, vectors = np.linalg.eigh(M)
    return EigenDecomposition(vectors, values)


def eigendecomposition(A) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix, eigenvalues ascending."""
    return _eig(as_symmetric(A))


def eig_apply(eig: EigenDecomposition, fn, domain=None) -> np.ndarray:
    """Assemble Q fn(lambda) Q^T from a precomputed decomposition."""
    lam = eig.values
    if domain is not None:
        lo, hi = domain
        bad = (lam < lo) | (lam > hi)
        if np.any(bad):
            raise DomainError(
                f"eigenvalue {lam[bad][0]!r} escapes function domain [{lo!r}, {hi!r}]"
            )
    vals = np.asarray(fn(lam), dtype=float)
    return symmetrize((eig.vectors * vals) @ eig.vectors.T)


def apply_matrix_function(A, fn, domain=None) -> np.ndarray:
    """Matrix function through the spectral decomposition: f(A) = Q f(L) Q^T."""
    return eig_apply(eigendecomposition(A), fn, domain)


def _pd_eig(M: np.ndarray, name: str) -> EigenDecomposition:
    eig = _eig(M)
    lam = eig.values
    if lam[0] <= EIG_FLOOR * max(lam[-1], 0.0) or lam[0] <= 0.0:
        raise ValueError(
            f"{name} must be positive-definite: min eigenvalue {lam[0]!r}, max {lam[-1]!r}"
        )
    return eig


def _normalize_pair(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A**(1/2), A**(-1/2) B A**(-1/2)) for positive-definite A."""
    eig_a = _pd_eig(A, "A")
    root = eig_apply(eig_a, np.sqrt)
    inv_root = eig_apply(eig_a, lambda lam: 1.0 / np.sqrt(lam))
    return root, symmetrize(inv_root @ B @ inv_root)


def sqrtm_pd(A) -> np.ndarray:
    return eig_apply(_pd_eig(as_symmetric(A), "matrix"), np.sqrt)


def invsqrtm_pd(A) -> np.ndarray:
    return eig_apply(_pd_eig(as_symmetric(A), "matrix"), lambda lam: 1.0 / np.sqrt(lam))


def congruence_sandwich(A, B, fn, domain=None) -> np.ndarray:
    """A**(1/2) fn(A**(-1/2) B A**(-1/2)) A**(1/2) for positive-definite A."""
    root, inner = _normalize_pair(as_symmetric(A), as_symmetric(B))
    return symmetrize(root @ eig_apply(_eig(inner), fn, domain) @ root)


@dataclass
class LoewnerVerdict:
    """Semidefinite-order comparison X <= Y up to a relative tolerance."""

    holds: bool
    min_slack_eigenvalue: float
    tol: float
    scale: float

    def to_dict(self) -> dict:
        return {
            "holds": self.holds,
            "min_slack_eigenvalue": self.min_slack_eigenvalue,
            "tol": self.tol,
            "scale": self.scale,
        }


def _loewner(X: np.ndarray, Y: np.ndarray, tol: float) -> LoewnerVerdict:
    # Y - X of two exactly symmetric matrices is exactly symmetric
    min_eig = float(np.linalg.eigvalsh(Y - X)[0])
    scale = max(1.0, float(np.abs(X).max()), float(np.abs(Y).max()))
    return LoewnerVerdict(min_eig >= -tol * scale, min_eig, tol, scale)


def loewner_compare(X, Y, tol: float = 1e-9) -> LoewnerVerdict:
    """Check X <= Y: the difference Y - X must have no eigenvalue below
    -tol * scale with scale = max(1, max|X|, max|Y|)."""
    Xs = as_symmetric(X)
    Ys = as_symmetric(Y)
    if Xs.shape != Ys.shape:
        raise ValueError(f"dimension mismatch: {Xs.shape} vs {Ys.shape}")
    return _loewner(Xs, Ys, tol)


def relative_spectrum_bounds(A, B) -> tuple[float, float]:
    """Tightest constants (m, M) with m*A <= B <= M*A for positive-definite
    A, B: the extreme eigenvalues of A**(-1/2) B A**(-1/2)."""
    _, inner = _normalize_pair(as_symmetric(A), as_symmetric(B))
    lam = _pd_eig(inner, "B relative to A").values
    return float(lam[0]), float(lam[-1])


# --- matrix file format ----------------------------------------------------

def matrix_to_obj(A) -> dict:
    M = as_symmetric(A)
    return {"n": int(M.shape[0]), "data": [[float(v) for v in row] for row in M]}


def matrix_from_obj(obj) -> np.ndarray:
    if not isinstance(obj, dict) or "n" not in obj or "data" not in obj:
        raise ValueError('matrix object must have keys "n" and "data"')
    n = obj["n"]
    data = obj["data"]
    if not isinstance(n, int) or n < 1:
        raise ValueError(f'"n" must be a positive integer, got {n!r}')
    M = np.array(data, dtype=float)
    if M.shape != (n, n):
        raise ValueError(f'"data" must be {n}x{n}, got shape {M.shape}')
    return as_symmetric(M)


def load_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed matrix file {path}: {exc}") from exc
    return matrix_from_obj(obj)


def dump_matrix(A, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_obj(A), fh)
        fh.write("\n")
