"""Independent check of ``oel.entropy.relative_entropy`` against 50-digit
mpmath arithmetic on small positive-definite pairs."""

from __future__ import annotations

import mpmath
import numpy as np

DIGITS = 50
TOLERANCE = 1e-12  # on max |S_oel - S_oracle| / max(1, max |S_oracle|)
SPECTRUM = (0.5, 4.0)  # condition number at most 8, so float64 keeps ~14 digits


def pairs(seed: int) -> list:
    """One pair (A, B) for each n = 1..4, drawn from ``seed``."""
    rng = np.random.default_rng([seed, 4])
    out = []
    for n in range(1, 5):
        mats = []
        for _ in range(2):
            q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            M = (q * rng.uniform(*SPECTRUM, n)) @ q.T
            mats.append((M + M.T) / 2.0)
        out.append(tuple(mats))
    return out


def _spectral(eigvals, vecs, fn):
    return vecs * mpmath.diag([fn(v) for v in eigvals]) * vecs.T


def relative_entropy_mp(A, B) -> np.ndarray:
    """A^(1/2) log(A^(-1/2) B A^(-1/2)) A^(1/2), computed with mpmath eigsy."""
    with mpmath.workdps(DIGITS):
        lam, Q = mpmath.eigsy(mpmath.matrix(A.tolist()))
        root = _spectral(lam, Q, mpmath.sqrt)
        inv_root = _spectral(lam, Q, lambda v: 1 / mpmath.sqrt(v))
        X = inv_root * mpmath.matrix(B.tolist()) * inv_root
        mu, P = mpmath.eigsy((X + X.T) / 2)
        S = root * _spectral(mu, P, mpmath.log) * root
        return np.array(S.tolist(), dtype=float)


def check_relative_entropy(seed: int) -> tuple:
    """(passed, worst relative error) over the pairs drawn from ``seed``."""
    from oel.entropy import relative_entropy

    worst = 0.0
    for A, B in pairs(seed):
        want = relative_entropy_mp(A, B)
        got = relative_entropy(A, B)
        worst = max(worst, float(np.abs(got - want).max()) / max(1.0, float(np.abs(want).max())))
    return worst <= TOLERANCE, worst
