import collections
import json
import math
import re
import warnings

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


def relative_spectrum_bounds(A, B) -> tuple[float, float]:
    """Tightest constants (m, M) with m*A <= B <= M*A for positive-definite
    A, B: the extreme eigenvalues of A**(-1/2) B A**(-1/2), read from the
    one-pair stack of ``linalg._Pairs``, which refuses the pair as the
    chains do."""
    A = linalg._square(A)
    pairs = linalg._Pairs(*linalg._pd_stack([A], ["A"])[1:], [linalg._square(B, A.shape)])
    linalg._only(pairs.errors)
    return pairs.m[0], pairs.M[0]


def dump_matrix(A, path) -> None:
    """Write a matrix file, as ``linalg.load_matrix`` reads it."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(linalg.matrix_to_obj(A), fh)
        fh.write("\n")


def matrix_function(A, fn) -> np.ndarray:
    """f(A) = Q f(L) Q^T through the spectral decomposition."""
    return linalg.eig_apply(decompose(A), fn)


def test_symmetry_validation():
    with pytest.raises(ValueError):
        linalg.as_symmetric([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValueError, match=r"^expected a square matrix, got shape \(1, 3\)$"):
        linalg.as_symmetric([[1.0, 2.0, 3.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused, not cast to real with a ComplexWarning
        with pytest.raises(ValueError, match="^matrix entries must be real, got complex128$"):
            entropy.check_zou_chain(np.eye(2), np.eye(2, dtype=complex), 0.5)
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


def symmetric_stack(M) -> tuple[np.ndarray, list]:
    """Reference ``linalg._symmetric_stack``: every stack takes the entry
    check (finite, then below 8e307 in magnitude), the gap/bound refusal
    and the average (M + M^T) / 2."""
    M = np.array(M, dtype=float)
    errors = [None] * M.shape[0]
    for i, row in enumerate(M):
        peak = float(np.abs(row).max())
        if not np.isfinite(row).all():
            errors[i] = ValueError("matrix entries must be finite")
        elif peak >= 8e307:
            errors[i] = ValueError(f"matrix entries must be below 8e+307 in magnitude, got {peak!r}")
        else:
            continue
        M[i] = 0.0
    gap = np.abs(M - M.swapaxes(1, 2))
    bound = linalg.SYMMETRY_TOL * (1.0 + np.abs(M))
    for i in np.flatnonzero((gap > bound).any(axis=(1, 2))):
        r, c = np.unravel_index(np.argmax(gap[i] - bound[i]), M.shape[1:])
        errors[i] = ValueError(f"matrix is not symmetric at ({r}, {c}): {float(M[i, r, c])!r} vs {float(M[i, c, r])!r}")
        M[i] = 0.0
    return (M + M.swapaxes(1, 2)) / 2.0, errors


def test_symmetric_stack_equals_the_reference_bitwise():
    # the exactly symmetric stacks skip the refusal pass and the average;
    # every stack, and each matrix alone, comes back as the reference has it
    sym = np.array([[2.0, -0.0, 1.5], [-0.0, -0.0, 3e-300], [1.5, 3e-300, 7e307]])
    near = sym + np.array([[0.0, 1e-13, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])  # within SYMMETRY_TOL
    far = sym + np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1e-3, 0.0, 0.0]])
    stack = [sym, near, far]
    for i, bad in enumerate([np.nan, np.inf, -np.inf, 9e307]):
        M = sym.copy()
        M[i % 3, i % 3] = bad
        stack.append(M)
    signed = sym.copy()
    signed[0, 1] = 0.0  # facing -0.0: the average is 0.0 at both
    stack.append(signed)
    for M in [stack] + [[M] for M in stack]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a 9e307 entry is refused, not averaged to inf
            got, errors = linalg._symmetric_stack(M)
            want, expected = symmetric_stack(M)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert [None if e is None else str(e) for e in errors] == [None if e is None else str(e) for e in expected]
    _, errors = linalg._symmetric_stack(stack)
    assert [e is None for e in errors] == [True, True, False, False, False, False, False, True]
    assert str(errors[6]) == "matrix entries must be below 8e+307 in magnitude, got 9e+307"


def test_pd_stack_refuses_a_matrix_for_its_entries_before_its_definiteness():
    # a refused matrix gets the identity's decomposition
    bad = np.array([[1.0, 2.0], [0.0, 1.0]])
    M, eig, errors = linalg._pd_stack([np.full((2, 2), np.nan), bad, -np.eye(2), np.diag([2.0, 3.0])], ["A"] * 4)
    assert [str(e).split(":")[0] for e in errors[:3]] == [
        "matrix entries must be finite", "matrix is not symmetric at (1, 0)", "A must be positive-definite",
    ]
    assert errors[3] is None and np.array_equal(M[3], np.diag([2.0, 3.0]))
    assert np.array_equal(eig.vectors[:3], np.broadcast_to(np.eye(2), (3, 2, 2)))
    assert np.array_equal(eig.values, [[1.0, 1.0]] * 3 + [[2.0, 3.0]])


def test_relative_spectrum_bounds():
    A = np.diag([2.0, 3.0])
    m, M = relative_spectrum_bounds(A, A)
    assert m == pytest.approx(1.0) and M == pytest.approx(1.0)
    m, M = relative_spectrum_bounds(np.eye(2), np.diag([2.0, 5.0]))
    assert (m, M) == (pytest.approx(2.0), pytest.approx(5.0))
    with pytest.raises(ValueError):  # A positive but under the floor
        relative_spectrum_bounds(np.diag([1.0, 1e-14]), np.eye(2))
    with pytest.raises(ValueError, match=r"dimension mismatch: \(2, 2\) vs \(3, 3\)"):
        relative_spectrum_bounds(np.eye(2), np.eye(3))
    rng = np.random.default_rng(89)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        A = random_symmetric(rng, n) + np.eye(n) * 4.0
        B = random_symmetric(rng, n) + np.eye(n) * 4.0
        m, M = relative_spectrum_bounds(A, B)
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
    relative_spectrum_bounds(np.diag([2.0, 3.0]), np.array([[1.0, -0.3], [-0.3, 3.0]]))
    assert calls == {"eigh": 1, "eigvalsh": 1}


def test_matrix_io_roundtrip(tmp_path):
    rng = np.random.default_rng(97)
    M = random_symmetric(rng, 3)
    path = tmp_path / "m.json"
    dump_matrix(M, path)
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


@pytest.mark.parametrize("obj, message", [
    ({"n": 2, "data": [["2", "0.5"], ["0.5", "1e0"]]}, "matrix entries must be real numbers"),
    ({"n": 2, "data": [[2, True], [True, 1]]}, "matrix entries must be real numbers"),
    ({"n": True, "data": [[1.0]]}, '"n" must be a positive integer, got True'),
])
def test_matrix_file_holds_numbers(obj, message):
    # numpy casts a numeric string or a boolean to a float, and True == 1
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        linalg.matrix_from_obj(obj)


def test_pd_refusal_names_the_floor_for_an_ill_conditioned_matrix():
    # positive-definite, but min <= EIG_FLOOR * max: refused by the floor;
    # a min eigenvalue <= 0 or NaN keeps the positive-definite wording
    with pytest.raises(ValueError) as refused:
        entropy.check_zou_chain(np.eye(2), np.diag([1e-6, 1e6]), 0.5)
    floor = "is too ill-conditioned: min eigenvalue {} is not above EIG_FLOOR = 1e-12 times max {}"
    assert str(refused.value) == "B relative to A " + floor.format("1e-06", "1000000.0")
    values = np.array([[1e-13, 1.0], [-1.0, 1.0], [0.0, 1.0], [np.nan, np.nan], [1e-11, 1.0]])
    assert [str(e) if e else None for e in linalg._pd_refusals(values, ["A"] * 5)] == [
        "A " + floor.format("1e-13", "1.0"),
        "A must be positive-definite: min eigenvalue -1.0, max 1.0",
        "A must be positive-definite: min eigenvalue 0.0, max 1.0",
        "A must be positive-definite: min eigenvalue nan, max nan",
        None,
    ]
