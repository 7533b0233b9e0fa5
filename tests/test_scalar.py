import math
import sys
import warnings

import numpy as np
import pytest

from oel import scalar
from oel.errors import DomainError


def deformed_exp(t: float, x):
    """Deformed exponential (1 + t*x)**(1/t), the inverse of
    ``scalar.deformed_log``, with a third-order series in t below
    ``scalar.T_SWITCH``; requires 1 + t*x > 0."""
    xa = np.asarray(x, dtype=float)
    if np.any(1.0 + t * xa <= 0.0):
        raise DomainError("deformed_exp requires 1 + t*x > 0")
    if abs(t) <= scalar.T_SWITCH:
        out = np.exp(xa - (t / 2.0) * xa**2 + (t * t / 3.0) * xa**3)
    else:
        out = np.exp(np.log1p(t * xa) / t)
    return float(out) if np.ndim(x) == 0 else out


def geom_log_derivative(g, a: float, b: float, t: float) -> float:
    """``scalar._geom_log_derivative`` at t, from g at a, b and the
    interpolant."""
    return scalar._geom_log_derivative(g, a, b, t, g.eval(a), g.eval(b), g.eval(a ** (1.0 - t) * b**t))


def test_deformed_log_fixed_points():
    assert scalar.deformed_log(0.7, 1.0) == 0.0
    assert scalar.deformed_log(0.5, 4.0) == pytest.approx(2.0, rel=1e-15)
    # mpmath oracle for the t -> 0 limit: (e**t - 1)/t at t = 1e-12
    assert scalar.deformed_log(1e-12, math.e) == pytest.approx(1.0, abs=1e-9)
    assert scalar.deformed_log(1e-12, math.e) == pytest.approx(1.0000000000005, rel=1e-12)
    assert scalar.deformed_log(0.0, 5.0) == pytest.approx(math.log(5.0), rel=1e-15)


def test_deformed_log_rejects_nonpositive():
    with pytest.raises(DomainError):
        scalar.deformed_log(0.5, 0.0)
    with pytest.raises(DomainError):
        scalar.deformed_log(0.5, -1.0)
    for bad in (math.nan, math.inf, np.float64(0.0)):
        with pytest.raises(DomainError):
            scalar.deformed_log(0.5, bad)


def test_deformed_log_broadcasts_deformation_indices():
    # a column of indices evaluates one row of eigenvalues per index, with
    # the same bits as one call per row, on both sides of the series switch
    lam = np.array([[0.5, 2.0, 7.0], [1.5, 3.0, 0.25], [9.0, 0.1, 1.0]])
    t = np.array([[0.3], [1e-9], [-2.0]])
    out = scalar.deformed_log(t, lam)
    for row, ti, vals in zip(out, t[:, 0], lam):
        assert np.array_equal(row, scalar.deformed_log(float(ti), vals))
    assert np.array_equal(scalar.deformed_log_gap(t, lam)[1], scalar.deformed_log_gap(1e-9, lam[1]))


def test_phi2_and_kernels_give_the_same_bits_on_floats_and_arrays():
    # both sides of phi2's series switch at |u| = 1/2, and u = 0, in one array
    u = np.array([-700.0, -3.0, -0.5000001, -0.5, -1e-300, 0.0, 0.25, 0.5, 0.5000001, 2.0, 700.0])
    assert np.array_equal(scalar._phi2(u), [scalar._phi2(float(v)) for v in u])
    assert scalar._phi2(0.0) == 0.5
    x = np.array([np.exp(-5.0), 0.3, 0.999, 1.0, 1.001, 2.0, 40.0, np.exp(5.0)])
    for t in (-2.0, -0.5, -1e-3, -2e-8, 0.0, 1e-9, 2e-8, 1e-3, 0.7, 3.0):
        assert np.array_equal(scalar.deformed_log_gap(t, x), [scalar.deformed_log_gap(t, float(v)) for v in x])
        assert np.array_equal(scalar.deformed_log_t_derivative(t, x), [scalar.deformed_log_t_derivative(t, float(v)) for v in x])
        if t >= 0.0:
            assert np.array_equal(scalar.eta(x, t), [scalar.eta(float(v), t) for v in x])
    ts = np.array([[-2.0], [-1e-3], [0.0], [2e-8], [0.7]])
    for i, t in enumerate(ts[:, 0]):
        assert np.array_equal(scalar.deformed_log_gap(ts, x)[i], scalar.deformed_log_gap(float(t), x))
        assert np.array_equal(scalar.deformed_log_t_derivative(ts, x)[i], scalar.deformed_log_t_derivative(float(t), x))


def test_deformed_log_series_serves_only_an_underflowing_t_log_x():
    # what the series below T_SWITCH is for: at a subnormal t, t log 0.7
    # underflows, and the quotient gives -0.0 where the series gives log 0.7
    L = math.log(0.7)
    assert np.expm1(5e-324 * L) / 5e-324 == 0.0
    assert scalar.deformed_log(5e-324, 0.7) == L
    assert scalar.deformed_log(-5e-324, 0.7) == L
    assert scalar.deformed_log_gap(5e-324, 0.7) == 0.0


def _kernel_grid():
    """(x, t) on 40 log-uniform x in [e**-5, e**5] and t = +-10**(k/4) from
    1e-12 to 1, with rows at the old switch points of the gap (t = +-2e-8),
    the t-derivative (t log x = +-1e-3) and eta (d = x**t - 1 = +-1e-4)."""
    xs = [float(v) for v in np.exp(np.linspace(-5.0, 5.0, 40))]
    ts = [s * 10.0 ** (k / 4) for k in range(-48, 1) for s in (1.0, -1.0)] + [2e-8, -2e-8]
    for x in xs:
        L = math.log(x)
        yield from ((x, t) for t in ts + [1e-3 / L, -1e-3 / L, math.log1p(1e-4) / L, math.log1p(-1e-4) / L])


def _eta(mp, x, a):
    """eta's definition (x**a log x - ln_a x)/(a ln_a x), in mpmath."""
    L = mp.log(mp.mpf(x))
    lna = mp.expm1(a * L) / a
    return (mp.exp(a * L) * L - lna) / (a * lna)


def _rel(got, ref):
    return abs((got - ref) / ref) if ref else abs(got)


def test_kernels_match_mpmath_within_a_few_ulps():
    mp = pytest.importorskip("mpmath")
    errors = {"gap": [], "theta": [], "t-derivative": [], "eta": []}
    with mp.workdps(60):
        for x, t in _kernel_grid():
            L, tm = mp.log(mp.mpf(x)), mp.mpf(t)
            u = tm * L
            gap = mp.expm1(u) / tm - L
            errors["gap"].append(_rel(scalar.deformed_log_gap(t, x), gap))
            derivative = L * L * (mp.exp(u) * (u - 1) + 1) / (u * u)
            errors["t-derivative"].append(_rel(scalar.deformed_log_t_derivative(t, x), derivative))
            if 0.0 < t <= 1.0:
                errors["theta"].append(_rel(scalar.theta(t, x), min(gap * gap, tm * tm)))
                errors["eta"].append(_rel(scalar.eta(x, t), _eta(mp, x, tm)))
        # eta at a = 0, and left of x = 1 down to a log x = -700, where
        # x**a - 1 rounds to -1
        for x in (math.exp(-5.0), 5e-4, 0.3, 0.999, 1.001, 2.0, math.exp(5.0)):
            errors["eta"].append(_rel(scalar.eta(x, 0.0), mp.log(mp.mpf(x)) / 2))
        for x in (math.exp(-5.0), 5e-4, 0.3, 0.999):
            for u in -np.geomspace(1e-3, 700.0, 25):
                a = float(u / math.log(x))
                errors["eta"].append(_rel(scalar.eta(x, a), _eta(mp, x, mp.mpf(a))))
    # a NaN fails here too, as it compares false
    assert all(e <= 1e-14 for errs in errors.values() for e in errs), {k: max(v) for k, v in errors.items()}


def test_kernels_match_mpmath_past_phi2_overflow():
    # |u| = |a log x| beyond log(max float) = 709.78, out to 800: eta and
    # the t-derivative once went NaN or inf there. Right of 0 the
    # t-derivative, about L**2 e**u / u, leaves float range itself. Left of
    # 0 and short of 709.78 it keeps its bits, and so the precision that
    # (L L) e**u loses once it is subnormal, at |log x| < 1: it is read
    # there only while that product is normal
    mp = pytest.importorskip("mpmath")
    errors = {"t-derivative": [], "eta": []}
    with mp.workdps(60):
        for x in (math.exp(-5.0), 0.3, 0.999, 1.001, 2.0, math.exp(5.0)):
            L = mp.log(mp.mpf(x))
            for u in np.concatenate([np.linspace(700.0, 800.0, 41), [scalar.PHI2_MAX, np.nextafter(scalar.PHI2_MAX, 1e3)]]):
                for sign in (1.0, -1.0):
                    a = float(sign * u / math.log(x))
                    um = mp.mpf(a) * L
                    derivative = L * L * (mp.exp(um) * (um - 1) + 1) / (um * um)
                    uf = a * float(np.log(x))  # u as the kernel has it
                    if -uf > scalar.PHI2_MAX or (uf < 0.0 and L * L * mp.exp(um) >= sys.float_info.min):
                        errors["t-derivative"].append(_rel(scalar.deformed_log_t_derivative(a, x), derivative))
                    if a > 0.0:
                        errors["eta"].append(_rel(scalar.eta(x, a), _eta(mp, x, mp.mpf(a))))
    assert all(e <= 1e-14 for errs in errors.values() for e in errs), {k: max(v) for k, v in errors.items()}
    assert scalar.eta(2.0, 710.0 / math.log(2.0)) == pytest.approx(0.69217, abs=1e-5)


def _old_t_derivative(t, x):
    """``deformed_log_t_derivative`` before its branch past phi2's overflow."""
    L = scalar._log(x)
    u = t * L
    with np.errstate(over="ignore", invalid="ignore"):
        out = L * L * np.exp(u) * scalar._phi2(-u)
    return out if isinstance(out, np.ndarray) else float(out)


def _old_eta(x, a):
    """``eta`` before its branch past phi2's overflow."""
    L = scalar._log(x)
    u = a * L
    with np.errstate(over="ignore", invalid="ignore"):
        p = scalar._phi2(abs(u))
        h = p / (1.0 + abs(u) * p)
        out = L * scalar._series_or_quotient(u < 0.0, lambda: h, lambda: 1.0 - h)
    return out if isinstance(out, np.ndarray) else float(out)


def _old_deformed_log(t, x):
    """``deformed_log`` before its float path: numpy's L, read by ``np.ndim``."""
    out = scalar._deformed_log(t, np.log(scalar._as_positive(x)))
    return float(out) if np.ndim(out) == 0 else out


def test_kernels_keep_every_finite_bit_and_warn_nowhere_past_phi2_overflow():
    rng = np.random.default_rng(17)
    xs = np.exp(rng.uniform(-6.0, 6.0, 40))
    # |u| up to 760 on either side of phi2's overflow at 709.78; right of 0
    # the t-derivative overflows itself past about 716, so it is read left of 700
    us = np.concatenate([rng.uniform(-760.0, 760.0, 60), np.linspace(709.0, 710.0, 21), [scalar.PHI2_MAX, 745.2]])
    us = np.concatenate([us, -us])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in xs.tolist():
            ts = (us[us < 700.0 * np.sign(math.log(x))] / math.log(x)).tolist()  # u = t log x < 700
            new = [scalar.deformed_log_t_derivative(t, x) for t in ts]
            assert np.array_equal(scalar.deformed_log_t_derivative(np.array(ts), x), new)
            assert all(map(math.isfinite, new))
            old = [_old_t_derivative(t, x) for t in ts]
            assert [o for o in old if math.isfinite(o)] == [n for n, o in zip(new, old) if math.isfinite(o)]
            for a in (u / abs(math.log(x)) for u in us.tolist() if u >= 0.0):
                new_eta = scalar.eta(x, a)
                assert math.isfinite(new_eta)
                if math.isfinite(old_eta := _old_eta(x, a)):
                    assert new_eta == old_eta, (x, a)
            # an array that holds u = 0 beside u past -709.78
            mixed = np.array([0.0, -800.0, -1.0, -scalar.PHI2_MAX]) / math.log(x)
            assert np.array_equal(scalar.deformed_log_t_derivative(mixed, x), [scalar.deformed_log_t_derivative(t, x) for t in mixed.tolist()])
            # eta takes one a and an array of x: a row of x at each a
            for ai in (np.abs(us[:10]) / abs(math.log(x))).tolist():
                row = np.full(3, x) ** np.array([1.0, -1.0, 0.5])
                assert np.array_equal(scalar.eta(row, ai), [scalar.eta(float(v), ai) for v in row])


def test_deformed_log_on_floats_is_the_old_numpy_form_bitwise():
    rng = np.random.default_rng(19)
    ts = np.concatenate([rng.uniform(-4.0, 4.0, 2000), rng.uniform(-1e-7, 1e-7, 200), [5e-324, -5e-324, 0.0, 1e-8, -1e-8, 1.0000000000000002e-8]])
    xs = np.exp(rng.uniform(-8.0, 8.0, 2000))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t, x in zip(ts.tolist(), np.resize(xs, ts.size).tolist()):
            for tv, xv in ((t, x), (np.float64(t), x), (t, np.float64(x)), (t, 2.0)):
                new = scalar.deformed_log(tv, xv)
                assert type(new) is float and repr(new) == repr(_old_deformed_log(tv, xv)), (tv, xv)
    assert np.array_equal(scalar.deformed_log(ts, 3.0), _old_deformed_log(ts, 3.0))
    assert np.array_equal(scalar.deformed_log(0.7, xs), _old_deformed_log(0.7, xs))


def test_eta_is_finite_far_left_of_one():
    # x**a - 1 rounds to -1 once a log x < -37.45, where a quotient in
    # log1p(x**a - 1) gives NaN with a RuntimeWarning; eta tends to -1/a
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert scalar.eta(5e-4, 5.0) == pytest.approx(-0.2, rel=1e-14)
        assert scalar.eta(math.exp(-5.0), 140.0) == pytest.approx(-1.0 / 140.0, rel=1e-14)


def test_deformed_exp_fixed_points():
    assert deformed_exp(0.5, 2.0) == pytest.approx(4.0, rel=1e-15)
    assert deformed_exp(1e-12, 1.0) == pytest.approx(math.e, abs=1e-9)
    with pytest.raises(DomainError):
        deformed_exp(-1.0, 2.0)


def test_inverse_pair_identity():
    # 1e-12 relative holds where the composition is well conditioned; the
    # conditioning of log1p near its pole grows like exp(|t log y|), so the
    # draw keeps |t log y| <= 8.5 (over seven orders of magnitude of y**t)
    rng = np.random.default_rng(2)
    done = 0
    while done < 2000:
        t = rng.uniform(-3, 3)
        u = rng.uniform(-6, 6)
        if abs(t * u) > 8.5:
            continue
        done += 1
        y = math.exp(u)
        back = deformed_exp(t, scalar.deformed_log(t, y))
        assert back == pytest.approx(y, rel=1e-12)
    assert deformed_exp(0.3, scalar.deformed_log(0.3, 7.0)) == pytest.approx(7.0, rel=1e-12)


def test_inverse_pair_identity_ill_conditioned_region():
    # outside the well-conditioned window the error scales with the
    # conditioning of log1p at 1 + t*x = y**t
    rng = np.random.default_rng(12)
    for _ in range(500):
        t = rng.uniform(-3, 3)
        u = rng.uniform(-6, 6)
        y = math.exp(u)
        cond = math.exp(abs(t * u)) / max(abs(t * u), 1.0)
        back = deformed_exp(t, scalar.deformed_log(t, y))
        assert back == pytest.approx(y, rel=max(1e-12, 1e-15 * cond))


def test_branch_agreement_at_switch():
    # series and quotient branches must agree at the crossover
    for x in (1e-3, 0.5, 2.0, 37.0, 1e3):
        for sign in (1.0, -1.0):
            t = sign * scalar.T_SWITCH
            L = math.log(x)
            series = L + (t / 2) * L**2 + (t * t / 6) * L**3
            direct = math.expm1(t * L) / t
            assert series == pytest.approx(direct, rel=1e-12)
            assert scalar.deformed_log(t, x) == pytest.approx(direct, rel=1e-12)


def test_deformed_log_monotone_in_t():
    rng = np.random.default_rng(3)
    for _ in range(500):
        x = math.exp(rng.uniform(-5, 5))
        t = rng.uniform(-2, 2)
        h = 1e-5
        fd = (scalar.deformed_log(t + h, x) - scalar.deformed_log(t - h, x)) / (2 * h)
        assert fd >= -1e-9
        assert scalar.deformed_log_t_derivative(t, x) >= -1e-15
        assert scalar.deformed_log_t_derivative(t, x) == pytest.approx(fd, rel=1e-4, abs=1e-7)


def test_log_bracket_inequality():
    rng = np.random.default_rng(4)
    x = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 10_000))
    assert np.all(1.0 - 1.0 / x <= np.log(x) + 1e-12)
    assert np.all(np.log(x) <= x - 1.0 + 1e-12)


def test_ratio_sequences_values_and_bracket():
    assert scalar.ratio_sequences(1.0, 7) == (0.0, 0.0)
    a1, b1 = scalar.ratio_sequences(4.0, 1)
    assert (a1, b1) == (pytest.approx(3.0), pytest.approx(0.75))
    a2, b2 = scalar.ratio_sequences(4.0, 2)
    assert (a2, b2) == (pytest.approx(2.0), pytest.approx(1.0))
    assert a2 <= a1 and b2 >= b1
    rng = np.random.default_rng(5)
    for _ in range(500):
        x = math.exp(rng.uniform(-6, 6))
        n = int(rng.integers(1, 65))
        a_n, b_n = scalar.ratio_sequences(x, n)
        assert b_n <= math.log(x) + 1e-12
        assert math.log(x) <= a_n + 1e-12


def test_ratio_sequences_monotone_for_x_above_one():
    rng = np.random.default_rng(6)
    for _ in range(500):
        x = math.exp(rng.uniform(0, 7))
        n = int(rng.integers(1, 64))
        a_n, b_n = scalar.ratio_sequences(x, n)
        a_next, b_next = scalar.ratio_sequences(x, n + 1)
        assert a_next <= a_n + 1e-12
        assert b_next >= b_n - 1e-12


def test_weighted_means():
    assert scalar.weighted_means(5.0, 5.0, 0.3) == (5.0, pytest.approx(5.0))
    assert scalar.weighted_means(1.0, 9.0, 0.5) == (pytest.approx(5.0), pytest.approx(3.0))
    arith, geom = scalar.weighted_means(1.0, 4.0, 0.25)
    assert arith == pytest.approx(1.75)
    assert geom == pytest.approx(math.sqrt(2.0), rel=1e-15)
    with pytest.raises(DomainError):
        scalar.weighted_means(1.0, 2.0, 1.5)


def test_young_ratio_bounds():
    lo, ratio, hi = scalar.young_ratio_bounds(3.0, 3.0, 0.4, 5)
    assert (lo, ratio, hi) == (pytest.approx(1.0), pytest.approx(1.0), pytest.approx(1.0))
    lo, ratio, hi = scalar.young_ratio_bounds(1.0, 4.0, 0.5, 1)
    assert lo == pytest.approx(math.exp(0.2), rel=1e-15)
    assert ratio == pytest.approx(1.25, rel=1e-15)
    assert hi == pytest.approx(math.exp(0.25), rel=1e-15)
    # convergence of the two bounds for large n
    lo, ratio, hi = scalar.young_ratio_bounds(1.0, 4.0, 0.5, 10**6)
    assert abs(hi - lo) <= 1e-6 * ratio
    assert lo <= ratio <= hi


def test_theta():
    assert scalar.theta(0.5, 1.0) == 0.0
    assert scalar.theta(0.0, 2.0) == 0.0
    assert scalar.theta(1.0, 2.0) == pytest.approx((1.0 - math.log(2.0)) ** 2, rel=1e-14)
    # mpmath oracle: theta(1e-6, 2)/1e-6 = 5.7709e-8
    ratio = scalar.theta(1e-6, 2.0) / 1e-6
    assert ratio == pytest.approx(5.77088013128949e-8, rel=1e-9)
    assert ratio <= 1e-6


def test_eta_values_and_limits():
    assert scalar.eta(1.0, 2.0) == 0.0
    assert scalar.eta(math.e, 1.0) == pytest.approx(1.0 / (math.e - 1.0), rel=1e-14)
    assert scalar.eta(0.5, 1.0) == pytest.approx(-0.3068528194400547, rel=1e-14)
    # mpmath oracles for the removable singularities
    assert scalar.eta(1.0 + 1e-6, 2.0) == pytest.approx(4.99999916666666667e-7, rel=1e-12)
    assert scalar.eta(2.0, 1e-12) == pytest.approx(math.log(2.0) / 2.0, abs=1e-12)
    assert scalar.eta(2.0, 0.0) == pytest.approx(math.log(2.0) / 2.0, rel=1e-15)


def test_eta_monotone_and_signed():
    rng = np.random.default_rng(7)
    for _ in range(500):
        a = rng.uniform(0.0, 4.0)
        x1, x2 = np.sort(np.exp(rng.uniform(-4, 4, 2)))
        assert scalar.eta(x1, a) <= scalar.eta(x2, a) + 1e-10
        if x1 <= 1.0:
            assert scalar.eta(x1, a) <= 1e-12
        if x2 >= 1.0:
            assert scalar.eta(x2, a) >= -1e-12


def test_phi_reference_values():
    assert scalar.phi(0.25, 4.0) == pytest.approx(0.327991, abs=1e-6)
    assert scalar.phi(0.5, 4.0) == pytest.approx(-0.186294, abs=1e-6)
    assert scalar.phi(0.7, 1.0) == 0.0


def test_phi_monotone_decreasing_and_sign_regime():
    rng = np.random.default_rng(8)
    for _ in range(500):
        x = math.exp(rng.uniform(-4, 4))
        t1, t2 = np.sort(rng.uniform(0, 1, 2))
        assert scalar.phi(t2, x) <= scalar.phi(t1, x) + 1e-12
        t = rng.uniform(0, 0.5)
        x_low = math.exp(rng.uniform(-4, 0))
        assert scalar.phi(t, x_low) >= -1e-12


def test_geom_log_derivative():
    from oel.funcs import REGISTRY, power

    exp_spec = REGISTRY["exp"]
    val = geom_log_derivative(exp_spec, 1.0, 2.0, 0.0)
    assert val == pytest.approx(-1.0 + math.log(2.0), rel=1e-14)
    # any power function makes the interpolation ratio constant
    assert geom_log_derivative(power(2.0), 2.0, 3.0, 0.5) == pytest.approx(0.0, abs=1e-13)
    assert geom_log_derivative(exp_spec, 1.5, 1.5, 0.3) == pytest.approx(0.0, abs=1e-13)
