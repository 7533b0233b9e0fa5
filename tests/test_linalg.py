import collections
import json
import math

import numpy as np
import pytest

from oel import entropy, linalg


def random_symmetric(rng, n, scale=1.0):
    M = rng.normal(size=(n, n)) * scale
    return (M + M.T) / 2.0


def decompose(M) -> linalg.EigenDecomposition:
    """The eigendecomposition of a validated symmetric matrix."""
    return linalg._eig(linalg.as_symmetric(M))


def loewner_compare(X, Y, tol: float = 1e-9) -> entropy.LoewnerVerdict:
    """Reference check of X <= Y, independent of ``entropy._compare``: Y - X
    must have no eigenvalue below -tol * scale, with scale = max(1, max |X|,
    max |Y|)."""
    X, Y = linalg.as_symmetric(X), linalg.as_symmetric(Y)
    if X.shape != Y.shape:
        raise ValueError(f"dimension mismatch: {X.shape} vs {Y.shape}")
    lam = float(np.linalg.eigvalsh(Y - X)[0])
    scale = max(1.0, float(np.abs(X).max()), float(np.abs(Y).max()))
    return entropy.LoewnerVerdict(lam >= -tol * scale, lam, tol, scale)


def matrix_function(A, fn) -> np.ndarray:
    """f(A) = Q f(L) Q^T through the spectral decomposition."""
    return linalg.eig_apply(decompose(A), fn)


def test_symmetry_validation():
    with pytest.raises(ValueError):
        linalg.as_symmetric([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValueError, match=r"^expected a square matrix, got shape \(1, 3\)$"):
        linalg.as_symmetric([[1.0, 2.0, 3.0]])
    M = linalg.as_symmetric([[1.0, 2.0], [2.0 + 1e-13, 4.0]])
    assert M[0, 1] == M[1, 0]


def test_eigendecomposition_diagonal_fixture():
    eig = decompose(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(eig.values, [1.0, 2.0, 3.0], atol=0)
    # eigenvectors form a signed permutation
    assert np.allclose(np.abs(eig.vectors), np.eye(3)[:, [1, 2, 0]], atol=0)


def test_eigendecomposition_2x2_analytic():
    eig = decompose([[2.0, 1.0], [1.0, 2.0]])
    assert abs(eig.values[0] - 1.0) <= 1e-12
    assert abs(eig.values[1] - 3.0) <= 1e-12


def test_eigendecomposition_reconstruction_and_orthogonality():
    rng = np.random.default_rng(61)
    for _ in range(300):
        n = int(rng.integers(2, 9))
        M = random_symmetric(rng, n)
        eig = decompose(M)
        recon = (eig.vectors * eig.values) @ eig.vectors.T
        assert np.abs(recon - M).max() <= 1e-10 * (1.0 + np.abs(M).max())
        assert np.abs(eig.vectors.T @ eig.vectors - np.eye(n)).max() <= 1e-10
        # the values-only LAPACK routine agrees with the full decomposition
        assert np.abs(eig.values - np.linalg.eigvalsh(M)).max() <= 1e-10 * (1.0 + np.abs(M).max())
        assert np.all(np.diff(eig.values) >= 0.0)


def test_eigendecomposition_matches_mpmath_oracle():
    import mpmath

    rng = np.random.default_rng(59)
    with mpmath.workdps(50):
        for n in range(1, 5):
            for _ in range(25):
                M = random_symmetric(rng, n, scale=float(np.exp(rng.uniform(-3.0, 3.0))))
                oracle, _ = mpmath.eigsy(mpmath.matrix(M.tolist()))
                oracle = sorted(float(v) for v in oracle)
                got = decompose(M).values
                assert np.abs(got - oracle).max() <= 1e-12 * (1.0 + np.abs(M).max())


def test_apply_matrix_function_examples():
    rng = np.random.default_rng(67)
    A = random_symmetric(rng, 4)
    assert np.allclose(matrix_function(A, lambda x: x), A, atol=1e-12)
    L = matrix_function(np.diag([1.0, math.e]), np.log)
    assert np.allclose(L, np.diag([0.0, 1.0]), atol=1e-14)
    sq = matrix_function(A, lambda x: x * x)
    assert np.abs(sq - A @ A).max() <= 1e-10 * (1.0 + np.abs(A @ A).max())


def test_matrix_function_morphism_on_common_argument():
    rng = np.random.default_rng(71)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        A = random_symmetric(rng, n) + np.eye(n) * 4.0
        f = lambda x: np.log(x)
        g = lambda x: x**2
        fA = matrix_function(A, f)
        gA = matrix_function(A, g)
        both = matrix_function(A, lambda x: f(x) + g(x))
        prod = matrix_function(A, lambda x: f(x) * g(x))
        assert np.abs(fA + gA - both).max() <= 1e-9 * (1.0 + np.abs(both).max())
        assert np.abs(fA @ gA - prod).max() <= 1e-9 * (1.0 + np.abs(prod).max())


def test_monotone_function_maps_spectral_extremes():
    rng = np.random.default_rng(73)
    for _ in range(50):
        n = int(rng.integers(2, 8))
        A = random_symmetric(rng, n) + np.eye(n) * 5.0
        eig = decompose(A)
        fA = matrix_function(A, np.log)
        feig = decompose(fA)
        assert feig.values[0] == pytest.approx(np.log(eig.values[0]), abs=1e-10)
        assert feig.values[-1] == pytest.approx(np.log(eig.values[-1]), abs=1e-10)


def test_concave_expectation_inequality():
    # for concave f and unit vectors h: <f(A)h, h> <= f(<Ah, h>)
    rng = np.random.default_rng(79)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        A = random_symmetric(rng, n) + np.eye(n) * 5.0
        fA = matrix_function(A, np.log)
        for _ in range(20):
            h = rng.normal(size=n)
            h /= np.linalg.norm(h)
            lhs = float(h @ fA @ h)
            rhs = math.log(float(h @ A @ h))
            assert lhs <= rhs + 1e-9


def test_congruence_sandwich_examples():
    A = np.diag([4.0, 4.0])
    B = np.diag([4.0 * math.e, 4.0 * math.e**2])
    out = entropy.relative_entropy(A, B)
    assert np.allclose(out, np.diag([4.0, 8.0]), atol=1e-10)
    with pytest.raises(ValueError):
        entropy.relative_entropy(np.diag([1.0, -1.0]), B)


def test_loewner_compare():
    X = np.diag([1.0, 2.0])
    v = loewner_compare(X, X)
    assert v.holds and v.min_slack_eigenvalue == pytest.approx(0.0, abs=1e-15)
    v = loewner_compare(np.diag([1.0, 2.0]), np.diag([2.0, 3.0]))
    assert v.holds and v.min_slack_eigenvalue == pytest.approx(1.0)
    v = loewner_compare(np.diag([0.0, 2.0]), np.diag([1.0, 1.0]))
    assert not v.holds and v.min_slack_eigenvalue == pytest.approx(-1.0)
    with pytest.raises(ValueError):
        loewner_compare(np.eye(2), np.eye(3))


def test_pd_stack_refuses_a_matrix_for_its_entries_before_its_definiteness():
    # a refused matrix gets the identity's decomposition
    bad = np.array([[1.0, 2.0], [0.0, 1.0]])
    M, eig, errors = linalg._pd_stack([np.full((2, 2), np.nan), bad, -np.eye(2), np.diag([2.0, 3.0])], "A")
    assert [str(e).split(":")[0] for e in errors[:3]] == [
        "matrix entries must be finite", "matrix is not symmetric at (1, 0)", "A must be positive-definite",
    ]
    assert errors[3] is None and np.array_equal(M[3], np.diag([2.0, 3.0]))
    assert np.array_equal(eig.vectors[:3], np.broadcast_to(np.eye(2), (3, 2, 2)))
    assert np.array_equal(eig.values, [[1.0, 1.0]] * 3 + [[2.0, 3.0]])


def test_relative_spectrum_bounds():
    A = np.diag([2.0, 3.0])
    m, M = linalg.relative_spectrum_bounds(A, A)
    assert m == pytest.approx(1.0) and M == pytest.approx(1.0)
    m, M = linalg.relative_spectrum_bounds(np.eye(2), np.diag([2.0, 5.0]))
    assert (m, M) == (pytest.approx(2.0), pytest.approx(5.0))
    with pytest.raises(ValueError):  # A positive but under the floor
        linalg.relative_spectrum_bounds(np.diag([1.0, 1e-14]), np.eye(2))
    with pytest.raises(ValueError, match=r"dimension mismatch: \(2, 2\) vs \(3, 3\)"):
        linalg.relative_spectrum_bounds(np.eye(2), np.eye(3))
    rng = np.random.default_rng(89)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        A = random_symmetric(rng, n) + np.eye(n) * 4.0
        B = random_symmetric(rng, n) + np.eye(n) * 4.0
        m, M = linalg.relative_spectrum_bounds(A, B)
        assert loewner_compare(m * A, B, 1e-9).holds
        assert loewner_compare(B, M * A, 1e-9).holds


def count_eig_calls(monkeypatch) -> collections.Counter:
    """Counts of the calls of numpy.linalg.eigh and eigvalsh from now on."""
    calls = collections.Counter()
    for name in ("eigh", "eigvalsh"):

        def counted(*args, _name=name, _solver=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _solver(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_relative_spectrum_bounds_factors_the_pair_once(monkeypatch):
    calls = count_eig_calls(monkeypatch)
    linalg.relative_spectrum_bounds(np.diag([2.0, 3.0]), np.array([[1.0, -0.3], [-0.3, 3.0]]))
    assert calls == {"eigh": 1, "eigvalsh": 1}


def test_matrix_io_roundtrip(tmp_path):
    rng = np.random.default_rng(97)
    M = random_symmetric(rng, 3)
    path = tmp_path / "m.json"
    linalg.dump_matrix(M, path)
    back = linalg.load_matrix(path)
    assert np.array_equal(back, linalg.as_symmetric(M))
    obj = json.loads(path.read_text())
    assert obj["n"] == 3 and len(obj["data"]) == 3


def test_matrix_io_rejects_bad_files(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("not json {")
    with pytest.raises(ValueError):
        linalg.load_matrix(p)
    p.write_text(json.dumps({"n": 2, "data": [[1.0, 2.0], [3.0, 4.0]]}))
    with pytest.raises(ValueError):
        linalg.load_matrix(p)
    p.write_text(json.dumps({"n": 3, "data": [[1.0]]}))
    with pytest.raises(ValueError):
        linalg.load_matrix(p)
