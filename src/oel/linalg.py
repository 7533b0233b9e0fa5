"""Dense real symmetric matrix kernel, on single matrices and on stacks.

The eigensolver is LAPACK's divide-and-conquer ``syevd`` through
``numpy.linalg.eigh``; Loewner comparisons and the relative spectrum of a
pair (the eigenvalues of A**(-1/2) B A**(-1/2)) need only eigenvalues and
call ``numpy.linalg.eigvalsh``.

Validation happens once, at the input boundary: public functions pass every
matrix they receive through ``as_symmetric``, while the ``_``-prefixed
helpers they share trust their arguments to be finite, square and exactly
symmetric. Internal arrays keep that promise by being built through
``symmetrize`` or as sums and scalar multiples of exactly symmetric matrices.

The helpers work on stacks of shape ``(k, n, n)``, so that one LAPACK or
BLAS call serves k matrices; numpy runs the same routine on every matrix of
a stack, so a stacked result is bitwise equal to the one-matrix result.
Helpers that can refuse a matrix (``_symmetric_stack``, ``_pd_eig``,
``_relative_spectrum``) return one ``ValueError`` or ``None`` per matrix
instead of raising, so that a refused matrix does not affect the others;
the public functions are their k = 1 case and raise the refusal.

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


def _symmetric_stack(M, tol: float = SYMMETRY_TOL) -> tuple[np.ndarray, list]:
    """Validate a stack of square matrices: the float64 stack, symmetrized,
    and one ValueError (entries not finite, or not symmetric) or None per
    matrix. A non-square stack raises. Refused matrices come back as zeros."""
    M = np.array(M, dtype=float)
    if M.ndim != 3 or M.shape[1] != M.shape[2]:
        raise ValueError(f"expected a square matrix, got shape {M.shape[1:]}")
    errors = [None] * M.shape[0]
    finite = np.isfinite(M).all(axis=(1, 2))
    if not finite.all():
        for i in np.flatnonzero(~finite):
            errors[i] = ValueError("matrix entries must be finite")
        M[~finite] = 0.0
    gap = np.abs(M - M.swapaxes(1, 2))
    bound = tol * (1.0 + np.abs(M))
    asymmetric = (gap > bound).any(axis=(1, 2))
    if asymmetric.any():
        for i in np.flatnonzero(asymmetric):
            r, c = np.unravel_index(np.argmax(gap[i] - bound[i]), M.shape[1:])
            errors[i] = ValueError(f"matrix is not symmetric at ({r}, {c}): {float(M[i, r, c])!r} vs {float(M[i, c, r])!r}")
            M[i] = 0.0
    return symmetrize(M), errors


def _only(errors: list) -> None:
    """Raise the refusal of a one-matrix stack, if it has one."""
    (error,) = errors
    if error is not None:
        raise error


def as_symmetric(A, tol: float = SYMMETRY_TOL) -> np.ndarray:
    """Validate and return a float64 copy of a symmetric matrix."""
    M, errors = _symmetric_stack([A], tol)
    _only(errors)
    return M[0]


def symmetrize(M: np.ndarray) -> np.ndarray:
    return (M + M.swapaxes(-1, -2)) / 2.0


@dataclass
class EigenDecomposition:
    """Orthogonal factor and ascending eigenvalues with A = Q diag(l) Q^T,
    for one matrix or, with a leading axis, for a stack."""

    vectors: np.ndarray
    values: np.ndarray

    @property
    def n(self) -> int:
        return self.values.shape[-1]

    def take(self, rows) -> EigenDecomposition:
        """The decompositions at ``rows`` of a stack."""
        return EigenDecomposition(self.vectors[rows], self.values[rows])


def _eig(M: np.ndarray) -> EigenDecomposition:
    values, vectors = np.linalg.eigh(M)
    return EigenDecomposition(vectors, values)


def eigendecomposition(A) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix, eigenvalues ascending."""
    return _eig(as_symmetric(A))


def eig_apply(eig: EigenDecomposition, fn, domain=None) -> np.ndarray:
    """Assemble Q fn(lambda) Q^T from a precomputed decomposition; ``fn``
    maps the eigenvalue array elementwise."""
    lam = eig.values
    if domain is not None:
        lo, hi = domain
        bad = (lam < lo) | (lam > hi)
        if np.any(bad):
            raise DomainError(
                f"eigenvalue {float(lam[bad][0])!r} escapes function domain [{float(lo)!r}, {float(hi)!r}]"
            )
    vals = np.asarray(fn(lam), dtype=float)
    return symmetrize((eig.vectors * vals[..., None, :]) @ eig.vectors.swapaxes(-1, -2))


def apply_matrix_function(A, fn, domain=None) -> np.ndarray:
    """Matrix function through the spectral decomposition: f(A) = Q f(L) Q^T."""
    return eig_apply(eigendecomposition(A), fn, domain)


def _pd_refusals(values: np.ndarray, name: str) -> list:
    """One ValueError or None per row of a stack of ascending eigenvalues, as
    its matrix is positive-definite or not. A refused row is set to ones, so
    that stacked work downstream stays finite."""
    lo, hi = values[:, 0], values[:, -1]
    refused = (lo <= EIG_FLOOR * np.maximum(hi, 0.0)) | (lo <= 0.0)
    errors = [None] * len(lo)
    for i in np.flatnonzero(refused):
        errors[i] = ValueError(
            f"{name} must be positive-definite: min eigenvalue {float(lo[i])!r}, max {float(hi[i])!r}"
        )
        values[i] = 1.0
    return errors


def _pd_eig(M: np.ndarray, name: str) -> tuple[EigenDecomposition, list]:
    """Decomposition of a stack, and one ValueError or None per matrix as it
    is positive-definite or not. A refused matrix gets the identity's
    decomposition, so that stacked work downstream stays finite."""
    eig = _eig(M)
    errors = _pd_refusals(eig.values, name)
    for i, error in enumerate(errors):
        if error is not None:
            eig.vectors[i] = np.eye(eig.n)
    return eig, errors


def _pd_eig_one(M: np.ndarray, name: str) -> EigenDecomposition:
    eig, errors = _pd_eig(M[None], name)
    _only(errors)
    return EigenDecomposition(eig.vectors[0], eig.values[0])


def _normalized(eig_a: EigenDecomposition, B: np.ndarray) -> np.ndarray:
    """X = A**(-1/2) B A**(-1/2) for a stack of pairs, from the
    decompositions of the A."""
    inv_root = eig_apply(eig_a, lambda lam: 1.0 / np.sqrt(lam))
    return symmetrize(inv_root @ B @ inv_root)


def _relative_spectrum(eig_a: EigenDecomposition, B: np.ndarray) -> tuple[np.ndarray, list]:
    """The ascending eigenvalues of X = A**(-1/2) B A**(-1/2) for a stack of
    pairs, values only (one ``eigvalsh`` call), from the decompositions of
    the A; and the refusal of each pair whose X is not positive-definite."""
    values = np.linalg.eigvalsh(_normalized(eig_a, B))
    return values, _pd_refusals(values, "B relative to A")


def sqrtm_pd(A) -> np.ndarray:
    return eig_apply(_pd_eig_one(as_symmetric(A), "matrix"), np.sqrt)


def invsqrtm_pd(A) -> np.ndarray:
    return eig_apply(_pd_eig_one(as_symmetric(A), "matrix"), lambda lam: 1.0 / np.sqrt(lam))


def congruence_sandwich(A, B, fn, domain=None) -> np.ndarray:
    """A**(1/2) fn(A**(-1/2) B A**(-1/2)) A**(1/2) for positive-definite A."""
    A, B = as_symmetric(A)[None], as_symmetric(B)[None]
    eig_a, errors = _pd_eig(A, "A")
    _only(errors)
    root = eig_apply(eig_a, np.sqrt)
    return symmetrize(root @ eig_apply(_eig(_normalized(eig_a, B)), fn, domain) @ root)[0]


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


def _loewner(X: np.ndarray, Y: np.ndarray, tol: float) -> list:
    """One verdict X[i] <= Y[i] per pair of two stacks; one eigvalsh call."""
    # Y - X of two exactly symmetric matrices is exactly symmetric
    min_eig = np.linalg.eigvalsh(Y - X)[:, 0].tolist()
    max_x = np.abs(X).max(axis=(1, 2)).tolist()
    max_y = np.abs(Y).max(axis=(1, 2)).tolist()
    verdicts = []
    for lam, x, y in zip(min_eig, max_x, max_y):
        scale = max(1.0, x, y)
        verdicts.append(LoewnerVerdict(lam >= -tol * scale, lam, tol, scale))
    return verdicts


def loewner_compare(X, Y, tol: float = 1e-9) -> LoewnerVerdict:
    """Check X <= Y: the difference Y - X must have no eigenvalue below
    -tol * scale with scale = max(1, max|X|, max|Y|)."""
    Xs = as_symmetric(X)
    Ys = as_symmetric(Y)
    if Xs.shape != Ys.shape:
        raise ValueError(f"dimension mismatch: {Xs.shape} vs {Ys.shape}")
    return _loewner(Xs[None], Ys[None], tol)[0]


def relative_spectrum_bounds(A, B) -> tuple[float, float]:
    """Tightest constants (m, M) with m*A <= B <= M*A for positive-definite
    A, B: the extreme eigenvalues of A**(-1/2) B A**(-1/2)."""
    A, B = as_symmetric(A)[None], as_symmetric(B)[None]
    eig_a, errors = _pd_eig(A, "A")
    _only(errors)
    lam, errors = _relative_spectrum(eig_a, B)
    _only(errors)
    return float(lam[0, 0]), float(lam[0, -1])


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
