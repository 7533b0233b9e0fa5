"""Dense real symmetric matrix kernel, on single matrices and on stacks.

It validates, factors and lifts matrices and reads and writes their file
format; it compares none (``entropy._compare`` decides every Loewner
order). The eigensolver is LAPACK's divide-and-conquer ``syevd`` through
``numpy.linalg.eigh``, which ``_eig`` alone calls; the relative spectrum of
a pair (the eigenvalues of A**(-1/2) B A**(-1/2)) needs only eigenvalues
and calls ``numpy.linalg.eigvalsh``.

Every matrix is read once, at the input boundary, and passes down three
layers with one job each. ``_square`` reads: it is the package's only cast,
and raises for a matrix that is complex, has an entry that does not cast to
float, or is not square and non-empty; ``entropy.chain_stacks`` calls it on
each matrix of a trial, so that such a matrix refuses only its trial.
``_symmetric_stack`` validates a stack of matrices so read: one exactly
symmetric with every |entry| below ENTRY_BOUND (8e307), as generated stacks
are, is returned as it is; of the others, a matrix with an entry not below
the bound is refused before any arithmetic, and the rest take the tolerance
pass and the averaging. ``_pd_stack`` and ``_Pairs`` factor, trusting what
they get to be finite and exactly symmetric. Internal arrays keep that
promise by being built through ``symmetrize`` or as sums and scalar
multiples of exactly symmetric matrices.

The helpers work on stacks of shape ``(k, n, n)``, so that one LAPACK or
BLAS call serves k matrices; numpy runs the same routine on every matrix of
a stack, so a stacked result is bitwise equal to the one-matrix result.
The stacked helpers that can refuse a matrix (``_symmetric_stack``,
``_pd_stack``, ``_Pairs``) keep one ``ValueError`` or ``None`` per matrix
instead of raising, so that a refused matrix does not affect the others;
the public functions are their k = 1 case and raise the refusal. A matrix's
entries are refused before its definiteness, and a pair's A is refused for
both before its B is.

The JSON matrix file format shared with the CLI is ``{"n": <int>, "data":
[[row], ...]}``; ``matrix_from_obj`` reads its data through ``as_symmetric``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

SYMMETRY_TOL = 1e-12
ENTRY_BOUND = 8e307  # a larger entry is refused: averaging two of them could overflow
EIG_FLOOR = 1e-12  # reject inverse roots when min eigenvalue <= floor * max


def _square(M, shape=None) -> np.ndarray:
    """One matrix as a float64 array. Raises ValueError when it is complex,
    has an entry that does not cast to float, or is not square and
    non-empty, and, given ``shape``, when its shape is another ("dimension
    mismatch")."""
    given = np.asarray(M)
    if given.dtype.kind == "c":  # a cast to float would drop the imaginary parts
        raise ValueError(f"matrix entries must be real, got {given.dtype}")
    try:
        M = given if given.dtype == np.float64 else np.array(M, dtype=float)  # numpy refuses what does not cast
    except TypeError:  # an entry such as a dict; numpy's message varies with the Python version
        raise ValueError("matrix entries must be real numbers") from None
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if M.shape[0] == 0:
        raise ValueError(f"expected a non-empty matrix, got shape {M.shape}")
    if shape is not None and M.shape != shape:
        raise ValueError(f"dimension mismatch: {shape} vs {M.shape}")
    return M


def _symmetric_stack(M) -> tuple[np.ndarray, list]:
    """Validate a stack of float64 matrices of one shape, each read by
    ``_square``: a copy of the stack, symmetrized, and one ValueError (an
    entry not finite or not below ENTRY_BOUND in magnitude, or not
    symmetric) or None per matrix. Refused matrices come back as zeros."""
    M = np.array(M)
    errors = [None] * M.shape[0]
    # bitwise, so that a -0.0 facing a 0.0 is averaged to 0.0; below
    # ENTRY_BOUND, x + y does not overflow, and (x + x) / 2 == x
    bits = M.view(np.uint64)
    if (bits == bits.swapaxes(1, 2)).all() and (np.abs(M) < ENTRY_BOUND).all():
        return M, errors
    bounded = (np.abs(M) < ENTRY_BOUND).all(axis=(1, 2))  # NaN is not below the bound either
    for i in np.flatnonzero(~bounded):
        peak = float(np.abs(M[i]).max())
        errors[i] = ValueError("matrix entries must be finite" if not np.isfinite(M[i]).all() else
                               f"matrix entries must be below {ENTRY_BOUND!r} in magnitude, got {peak!r}")
    M[~bounded] = 0.0
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
    """Read, validate and return a float64 copy of a symmetric matrix."""
    M, errors = _symmetric_stack([_square(A)])
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
    lo, hi = float(lo), float(hi)
    if lo > 0.0:  # positive-definite, but too ill-conditioned for the floor
        return ValueError(f"{name} is too ill-conditioned: min eigenvalue {lo!r} is not above "
                          f"EIG_FLOOR = {EIG_FLOOR!r} times max {hi!r}")
    return ValueError(f"{name} must be positive-definite: min eigenvalue {lo!r}, max {hi!r}")


def _pd_refusals(values: np.ndarray, names: list) -> list:
    """One ValueError or None per row of a stack of ascending eigenvalues, as
    its min eigenvalue is above EIG_FLOOR times its max or not (the refusal
    tells a matrix that is not positive-definite from one that is only too
    ill-conditioned); ``names`` holds the name of each row's matrix in a
    refusal. A refused row is set to ones, so that stacked work downstream
    stays finite."""
    lo, hi = values[:, 0], values[:, -1]
    # "not positive-definite" rather than "<= floor", so that NaN is refused
    refused = ~((lo > EIG_FLOOR * hi) & (lo > 0.0))
    errors = [None] * len(lo)
    for i in np.flatnonzero(refused):
        errors[i] = _not_pd(names[i], lo[i], hi[i])
        values[i] = 1.0
    return errors


def _pd_stack(M, names: list) -> tuple[np.ndarray, EigenDecomposition, list]:
    """Validate and decompose a stack of matrices read by ``_square`` in one
    ``eigh`` call: the float64 stack, symmetrized, its decomposition, and
    one ValueError or None per matrix, its entries' refusal before its
    definiteness refusal, named as in ``_pd_refusals``. A refused matrix gets
    the identity's decomposition, so that stacked work downstream stays finite."""
    M, errors = _symmetric_stack(M)
    eig = _eig(M)
    errors_pd = _pd_refusals(eig.values, names)
    for i, error in enumerate(errors_pd):
        if error is not None:
            eig.vectors[i] = np.eye(eig.n)
    return M, eig, _first(errors, errors_pd)


class _Pairs:
    """A stack of k (A, B) pairs of one shape, factored once.

    ``eig_a`` and ``errors_a`` are the A's rows of a ``_pd_stack`` call, and
    each B, which ``_square`` has read with its A's shape, is validated here.
    ``X`` holds each X = A**(-1/2) B A**(-1/2), ``lam`` its ascending
    eigenvalues (values only), and ``m`` and ``M`` their extremes.
    ``errors[i]`` is the exception refusing pair i, or None; the first one
    found is kept: A's own refusals (entries, then definiteness), then B's
    entries, then X's definiteness. An X that overflows is refused, not
    decomposed. A refused pair stays in the stack, with zeros standing in
    for a refused matrix and ones for the eigenvalues of a refused
    factorization, so that stacked work stays finite. ``take`` gives a
    slice of the stack as a stack of its own.
    """

    def __init__(self, eig_a, errors_a, B):
        B, errors_b = _symmetric_stack(B)
        inv_root = eig_apply(eig_a, lambda lam: 1.0 / np.sqrt(lam))
        with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned about
            X = symmetrize(inv_root @ B @ inv_root)
        finite = np.isfinite(X).all(axis=(1, 2))
        X[~finite] = 0.0  # so that no eigensolver sees an X that overflowed
        lam = np.linalg.eigvalsh(X)
        lam[~finite] = np.nan
        self._hold(eig_a, X, lam, _first(errors_a, errors_b, _pd_refusals(lam, ["B relative to A"] * len(lam))))

    def _hold(self, eig_a, X, lam, errors) -> _Pairs:
        self.eig_a, self.X, self.lam, self.errors = eig_a, X, lam, errors
        self.m = lam[:, 0].tolist()
        self.M = lam[:, -1].tolist()
        self._factors = {}  # pair -> (A**(1/2), decomposition of X), made by the first lift
        return self

    def take(self, rows: slice) -> _Pairs:
        """The pairs at ``rows``, factored as they are here."""
        return object.__new__(_Pairs)._hold(self.eig_a.take(rows), self.X[rows], self.lam[rows], self.errors[rows])

    def lift(self, i: int, fn) -> np.ndarray:
        """A**(1/2) fn(X) A**(1/2) of pair i, not refused; ``fn`` maps the
        (1, n) eigenvalues of X. Every lift of a pair reads one ``eigh`` of
        its X."""
        factors = self._factors.get(i)
        if factors is None:
            factors = self._factors[i] = (eig_apply(self.eig_a.take([i]), np.sqrt), _eig(self.X[i:i + 1]))
        root, eig_x = factors
        return symmetrize(root @ eig_apply(eig_x, fn) @ root)[0]


# --- matrix file format ----------------------------------------------------

def matrix_to_obj(A) -> dict:
    M = as_symmetric(A)
    return {"n": int(M.shape[0]), "data": [[float(v) for v in row] for row in M]}


def matrix_from_obj(obj) -> np.ndarray:
    if not isinstance(obj, dict) or "n" not in obj or "data" not in obj:
        raise ValueError('matrix object must have keys "n" and "data"')
    n, data = obj["n"], obj["data"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f'"n" must be a positive integer, got {n!r}')
    # numpy casts "1e0" and true to floats; a matrix file holds numbers
    if any(isinstance(v, (str, bool)) for row in (data if isinstance(data, list) else [data])
           for v in (row if isinstance(row, list) else [row])):
        raise ValueError("matrix entries must be real numbers")
    M = as_symmetric(data)
    if M.shape != (n, n):
        raise ValueError(f'"data" must be {n}x{n}, got shape {M.shape}')
    return M


def load_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed matrix file {path}: {exc}") from exc
    return matrix_from_obj(obj)
