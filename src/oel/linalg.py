"""Dense real symmetric matrix kernel, on single matrices and on stacks.

It validates, factors and lifts matrices and reads and writes their file
format; it compares none (``entropy._compare`` decides every Loewner
order). The eigensolver is LAPACK's divide-and-conquer ``syevd`` through
``numpy.linalg.eigh``, which ``_eig`` alone calls; the relative spectrum of
a pair (the eigenvalues of A**(-1/2) B A**(-1/2)) needs only eigenvalues
and calls ``numpy.linalg.eigvalsh``.

Validation happens once, at the input boundary: public functions pass every
matrix they receive through ``as_symmetric``, while the ``_``-prefixed
helpers they share trust their arguments to be finite, square and exactly
symmetric. Internal arrays keep that promise by being built through
``symmetrize`` or as sums and scalar multiples of exactly symmetric matrices.

The helpers work on stacks of shape ``(k, n, n)``, so that one LAPACK or
BLAS call serves k matrices; numpy runs the same routine on every matrix of
a stack, so a stacked result is bitwise equal to the one-matrix result.
Helpers that can refuse a matrix (``_symmetric_stack``, ``_pd_stack``,
``_Pairs``) keep one ``ValueError`` or ``None`` per matrix instead of
raising, so that a refused matrix does not affect the others; the public
functions are their k = 1 case and raise the refusal. A matrix's entries
are refused before its definiteness, and a pair's A is refused for both
before its B is.

Matrices are plain float64 numpy arrays. The JSON file format shared with
the CLI is ``{"n": <int>, "data": [[row], ...]}``; symmetry is validated on
load.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

SYMMETRY_TOL = 1e-12
EIG_FLOOR = 1e-12  # reject inverse roots when min eigenvalue <= floor * max


def _symmetric_stack(M) -> tuple[np.ndarray, list]:
    """Validate a stack of square matrices: the float64 stack, symmetrized,
    and one ValueError (entries not finite, or not symmetric) or None per
    matrix. A non-square or empty stack raises. Refused matrices come back
    as zeros."""
    M = np.array(M, dtype=float)
    if M.ndim != 3 or M.shape[1] != M.shape[2]:
        raise ValueError(f"expected a square matrix, got shape {M.shape[1:]}")
    if M.shape[1] == 0:
        raise ValueError(f"expected a non-empty matrix, got shape {M.shape[1:]}")
    errors = [None] * M.shape[0]
    finite = np.isfinite(M).all(axis=(1, 2))
    if not finite.all():
        for i in np.flatnonzero(~finite):
            errors[i] = ValueError("matrix entries must be finite")
        M[~finite] = 0.0
    gap = np.abs(M - M.swapaxes(1, 2))
    bound = SYMMETRY_TOL * (1.0 + np.abs(M))
    asymmetric = (gap > bound).any(axis=(1, 2))
    if asymmetric.any():
        for i in np.flatnonzero(asymmetric):
            r, c = np.unravel_index(np.argmax(gap[i] - bound[i]), M.shape[1:])
            errors[i] = ValueError(f"matrix is not symmetric at ({r}, {c}): {float(M[i, r, c])!r} vs {float(M[i, c, r])!r}")
            M[i] = 0.0
    return symmetrize(M), errors


def _first(*errors) -> list:
    """Per row, the first refusal in the per-row lists ``errors``, or None."""
    return [next(filter(None, found), None) for found in zip(*errors)]


def _only(outcomes: list):
    """The outcome of a one-row stack; raises it if it is a refusal."""
    (outcome,) = outcomes
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def as_symmetric(A) -> np.ndarray:
    """Validate and return a float64 copy of a symmetric matrix."""
    M, errors = _symmetric_stack([A])
    _only(errors)
    return M[0]


def symmetrize(M: np.ndarray) -> np.ndarray:
    return (M + M.swapaxes(-1, -2)) / 2.0


@dataclass
class EigenDecomposition:
    """Orthogonal factor and eigenvalues with A = Q diag(l) Q^T, for one
    matrix or, with a leading axis, for a stack; ascending from ``_eig``."""

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


def eig_apply(eig: EigenDecomposition, fn) -> np.ndarray:
    """Assemble Q fn(lambda) Q^T from a precomputed decomposition; ``fn``
    maps the eigenvalue array elementwise."""
    vals = np.asarray(fn(eig.values), dtype=float)
    return symmetrize((eig.vectors * vals[..., None, :]) @ eig.vectors.swapaxes(-1, -2))


def _not_pd(name: str, lo: float, hi: float) -> ValueError:
    return ValueError(f"{name} must be positive-definite: min eigenvalue {float(lo)!r}, max {float(hi)!r}")


def _pd_refusals(values: np.ndarray, name: str) -> list:
    """One ValueError or None per row of a stack of ascending eigenvalues, as
    its matrix is positive-definite or not. A refused row is set to ones, so
    that stacked work downstream stays finite."""
    lo, hi = values[:, 0], values[:, -1]
    # "not positive-definite" rather than "<= floor", so that NaN is refused
    refused = ~((lo > EIG_FLOOR * hi) & (lo > 0.0))
    errors = [None] * len(lo)
    for i in np.flatnonzero(refused):
        errors[i] = _not_pd(name, lo[i], hi[i])
        values[i] = 1.0
    return errors


def _pd_stack(M, name: str) -> tuple[np.ndarray, EigenDecomposition, list]:
    """Validate and decompose a stack of matrices: the float64 stack,
    symmetrized, its decomposition, and one ValueError or None per matrix,
    its entries' refusal coming before its definiteness refusal. A
    non-square or empty stack raises. A refused matrix gets the identity's
    decomposition, so that stacked work downstream stays finite."""
    M, errors = _symmetric_stack(M)
    eig = _eig(M)
    errors_pd = _pd_refusals(eig.values, name)
    for i, error in enumerate(errors_pd):
        if error is not None:
            eig.vectors[i] = np.eye(eig.n)
    return M, eig, _first(errors, errors_pd)


def _normalized(eig_a: EigenDecomposition, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """X = A**(-1/2) B A**(-1/2) for a stack of pairs, from the
    decompositions of the A, and which X are finite; an X that overflows is
    set to zeros, so that no eigensolver sees it."""
    inv_root = eig_apply(eig_a, lambda lam: 1.0 / np.sqrt(lam))
    with np.errstate(over="ignore", invalid="ignore"):  # _Pairs refuses what overflows
        X = symmetrize(inv_root @ B @ inv_root)
    finite = np.isfinite(X).all(axis=(1, 2))
    X[~finite] = 0.0
    return X, finite


class _Pairs:
    """A stack of k (A, B) pairs of one shape, validated and factored once.

    ``eig_a`` holds the decompositions of the A, ``X`` each X = A**(-1/2) B
    A**(-1/2), ``lam`` its ascending eigenvalues (values only), and ``m``
    and ``M`` their extremes. ``errors[i]`` is the exception refusing pair
    i, or None; the first one found is kept: ``errors``, then A's own
    refusals (entries, then definiteness), then B's entries, then X's
    definiteness. An X that overflows is refused, not decomposed. A refused
    pair stays in the stack, with zeros standing in for a refused matrix and
    ones for the eigenvalues of a refused factorization, so that stacked
    work stays finite.
    """

    def __init__(self, A, B, errors=None):
        A, self.eig_a, errors_a = _pd_stack(A, "A")
        B, errors_b = _symmetric_stack(B)
        if A.shape != B.shape:
            raise ValueError(f"dimension mismatch: {A.shape[1:]} vs {B.shape[1:]}")
        self.X, finite = _normalized(self.eig_a, B)
        self.lam = np.linalg.eigvalsh(self.X)
        self.lam[~finite] = np.nan
        self.errors = _first(errors or [None] * len(A), errors_a, errors_b, _pd_refusals(self.lam, "B relative to A"))
        self.m = self.lam[:, 0].tolist()
        self.M = self.lam[:, -1].tolist()
        self._factors = {}  # pair -> (A**(1/2), decomposition of X), made by the first lift

    def live(self) -> list:
        """Indices of the pairs not refused."""
        return [i for i, e in enumerate(self.errors) if e is None]

    def lift(self, i: int, fn) -> np.ndarray:
        """A**(1/2) fn(X) A**(1/2) of pair i, not refused; ``fn`` maps the
        (1, n) eigenvalues of X. Every lift of a pair reads one ``eigh`` of
        its X."""
        factors = self._factors.get(i)
        if factors is None:
            factors = self._factors[i] = (eig_apply(self.eig_a.take([i]), np.sqrt), _eig(self.X[i:i + 1]))
        root, eig_x = factors
        return symmetrize(root @ eig_apply(eig_x, fn) @ root)[0]


def relative_spectrum_bounds(A, B) -> tuple[float, float]:
    """Tightest constants (m, M) with m*A <= B <= M*A for positive-definite
    A, B: the extreme eigenvalues of A**(-1/2) B A**(-1/2)."""
    pairs = _Pairs([A], [B])
    _only(pairs.errors)
    return pairs.m[0], pairs.M[0]


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
