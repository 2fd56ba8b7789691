import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qthermo import qfun
from qthermo.errors import QExpDomainError, QLogDomainError
from qthermo.qfun import (
    QParam,
    _cutoff_root,
    dexp_q,
    dlog_q,
    even_power_order,
    exp_q,
    exp_q_extended,
    identity_suite,
    log_q,
)


def test_exp_at_zero_is_one():
    for q in (0.2, 0.5, 1.0, 1.5, 2.3):
        assert exp_q(0.0, q) == 1.0


def test_log_at_one_is_zero():
    for q in (0.2, 0.5, 1.0, 1.5, 2.3):
        assert log_q(1.0, q) == 0.0


def test_nonpositive_q_rejected():
    with pytest.raises(ValueError):
        QParam(-0.5)
    with pytest.raises(ValueError):
        log_q(2.0, 0.0)


# q ranges over (0, 2); beyond that the roundtrip's condition number
# exceeds 1e-12/eps (the intermediate base x^(1-q) underflows in precision)
@given(
    q=st.floats(0.05, 2.0).filter(lambda v: abs(v - 1.0) > 1e-6),
    x=st.floats(1e-3, 1e3),
)
@settings(max_examples=300, deadline=None)
def test_exp_log_roundtrip(q, x):
    u = log_q(x, q)
    assert math.isclose(exp_q(u, q), x, rel_tol=1e-12)


@given(
    q=st.floats(0.05, 2.0).filter(lambda v: abs(v - 1.0) > 1e-6),
    u=st.floats(-0.4, 3.0),
)
@settings(max_examples=300, deadline=None)
def test_log_exp_roundtrip(q, u):
    if 1.0 + (1.0 - q) * u <= 1e-9:
        return
    x = exp_q(u, q)
    assert math.isclose(log_q(x, q), u, rel_tol=1e-12, abs_tol=1e-12)


def test_log_monotone():
    rng = np.random.default_rng(0)
    for q in (0.3, 0.7, 1.4, 2.0):
        x = np.sort(rng.uniform(0.01, 50.0, 500))
        vals = log_q(x, q)
        assert np.all(np.diff(vals) > 0)


def test_exp_monotone():
    rng = np.random.default_rng(1)
    for q in (0.3, 0.7, 1.4):
        u = np.sort(rng.uniform(-0.9, 2.0, 500))
        u = u[1.0 + (1.0 - q) * u > 1e-6]
        vals = exp_q(u, q)
        assert np.all(np.diff(vals) > 0)


@pytest.mark.xfail(
    strict=True,
    reason="the exact deviation of log_q from ln at |q-1| = 1e-6 is "
    "|1-q| ln^2(x)/2 ~ 2.7e-6 on [0.1, 10]; a 1e-9 bound there is only "
    "reachable by silently replacing log_q with ln, which would change "
    "function values by 2.7e-6",
)
def test_classical_limit_continuity_tight():
    x = np.linspace(0.1, 10.0, 200)
    for q in (1.0 - 1e-6, 1.0 + 1e-6):
        assert np.max(np.abs(log_q(x, q) - np.log(x))) <= 1e-9


def test_classical_limit_continuity():
    # true first-order bound |1-q| ln^2(x) / 2, plus exactness inside the
    # 1e-8 crossover where the classical branch takes over
    x = np.linspace(0.1, 10.0, 200)
    for dq in (1e-6, 1e-7):
        for q in (1.0 - dq, 1.0 + dq):
            bound = dq * np.log(10.0) ** 2 / 2 * 1.01
            assert np.max(np.abs(log_q(x, q) - np.log(x))) <= bound
    assert np.max(np.abs(log_q(x, 1.0 - 1e-9) - np.log(x))) <= 1e-12


def test_pseudo_additivity():
    # log_q(ab) = log_q a + log_q b + (1-q) log_q a log_q b
    rng = np.random.default_rng(2)
    a = rng.uniform(0.01, 100.0, 2000)
    b = rng.uniform(0.01, 100.0, 2000)
    for q in (0.25, 0.5, 0.75, 1.5):
        la, lb = log_q(a, q), log_q(b, q)
        lhs = log_q(a * b, q)
        rhs = la + lb + (1.0 - q) * la * lb
        assert np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(lhs))) <= 1e-10


def test_exp_convex_for_positive_q():
    rng = np.random.default_rng(3)
    for q in (0.3, 0.6, 1.5, 2.2):
        u = rng.uniform(-0.5, 1.5, (1000, 2))
        mid = u.mean(axis=1)
        ok = (1.0 + (1.0 - q) * u.min(axis=1) > 1e-6) & (
            1.0 + (1.0 - q) * u.max(axis=1) > 1e-6
        )
        u, mid = u[ok], mid[ok]
        gap = 0.5 * (exp_q(u[:, 0], q) + exp_q(u[:, 1], q)) - exp_q(mid, q)
        assert gap.min() >= -1e-12


def test_exp_domain_error_carries_argument():
    with pytest.raises(QExpDomainError) as err:
        exp_q(-5.0, 0.5)
    assert err.value.argument == pytest.approx(-5.0)


def test_log_domain_error():
    # dlog_q refuses exactly what log_q refuses: u <= 0, NaN and +-inf
    for f in (log_q, dlog_q):
        for u, q in ((-1.0, 0.5), (0.0, 1.3), (math.nan, 0.5), (math.inf, 0.5), (-math.inf, 0.5)):
            with pytest.raises(QLogDomainError):
                f(u, q)
        with pytest.raises(QLogDomainError):
            f(np.array([2.0, math.nan]), 1.0)


def test_dlog_values():
    for q in (0.2, 0.5, 1.0, 1.7):
        assert dlog_q(1.0, q) == pytest.approx(1.0, abs=1e-14)
    assert dlog_q(4.0, 0.5) == pytest.approx(0.5, abs=1e-14)


def test_dlog_matches_finite_difference():
    rng = np.random.default_rng(4)
    for _ in range(300):
        q = float(rng.uniform(0.2, 1.8))
        u = float(rng.uniform(0.3, 5.0))
        h = 1e-6 * max(1.0, u)
        fd = (log_q(u + h, q) - log_q(u - h, q)) / (2.0 * h)
        assert dlog_q(u, q) == pytest.approx(fd, rel=1e-8)


def test_dexp_matches_finite_difference():
    rng = np.random.default_rng(5)
    for _ in range(300):
        q = float(rng.uniform(0.2, 1.8))
        u = float(rng.uniform(-0.4, 0.8))
        if 1.0 + (1.0 - q) * u < 0.3:
            continue
        h = 1e-6
        fd = (exp_q(u + h, q) - exp_q(u - h, q)) / (2.0 * h)
        assert dexp_q(u, q) == pytest.approx(fd, rel=1e-7)


def test_even_power_order():
    assert even_power_order(0.5) == 2
    assert even_power_order(0.75) == 4
    assert even_power_order(QParam(0.5)) == 2
    assert even_power_order(2.0 / 3.0) is None  # exponent 3 is odd
    assert even_power_order(1.5) is None
    assert even_power_order(1.0 + 1e-12) is None


def test_extended_exp_even_order():
    # for q-tilde = 1/2 the extension squares the base, so negative bases
    # are admissible and the value agrees with base**2
    base = 1.0 + 0.5 * (-6.0)
    assert exp_q_extended(-6.0, 0.5) == pytest.approx(base**2, rel=1e-14)
    assert exp_q_extended(1.0, 0.5) == pytest.approx(exp_q(1.0, 0.5), rel=1e-14)


def test_duality_at_zero_exact():
    for q in (0.3, 0.5, 1.6):
        assert exp_q(0.0, q) * exp_q(0.0, 2.0 - q) == 1.0


def test_neglog_inverse_bound_reverses_for_large_q():
    # exp_q(-log_q(1/x)) <= x holds on q < 1; at q > 1 the direction flips,
    # which is why the identity suite samples only q < 1
    x = 0.05
    q = 1.8
    val = exp_q(-log_q(1.0 / x, q), q)
    assert val > x


def test_identity_suite_passes():
    report = identity_suite(samples=10_000, seed=1)
    assert report.passed(1e-9)
    assert report.worst <= 1e-9


def test_identity_suite_gates_every_row():
    for seed in (0, 1, 2):
        report = identity_suite(samples=10_000, seed=seed)
        rows = {s.name: s for s in report.stats}
        for name in ("mixed-dual-product", "dual-shift-split"):
            assert rows[name].points >= 10_000
            assert rows[name].max_violation <= 1e-9
        assert report.worst == max(s.max_violation for s in report.stats)
        assert report.passed(1e-9)
        report.stats[-1].max_violation = 1.0  # the last row fails the gate too
        assert report.worst == 1.0 and not report.passed(1e-9)


def test_qparam_of_passes_qparam_through_and_validates_numbers():
    qp = QParam(0.5)
    assert QParam.of(qp) is qp
    assert QParam.of(np.float64(0.5)) == qp
    assert QParam.of(2).q == 2.0 and isinstance(QParam.of(2).q, float)
    with pytest.raises(ValueError):
        QParam.of(-0.5)


@pytest.mark.parametrize("qt", [-2.0, -0.5, 0.0, 0.3, 1.0 - 1e-6, 1.0, 1.5])
def test_cutoff_root_solves_its_equation(qt):
    # qt <= 0 bisects the bracket [max v, max v - log_qt(1/d)]: the sum is not convex in t
    v = np.random.default_rng(0).normal(0.0, 2.0, (50, 3))
    t = _cutoff_root(v, qt)
    if qt == 1.0:
        E = np.exp(v - t[:, None])
    else:
        E = np.maximum(1.0 + (1.0 - qt) * (v - t[:, None]), 0.0) ** (1.0 / (1.0 - qt))
    tol = 1e-9 if qt == 1.0 - 1e-6 else 1e-13  # the power 1e6 amplifies the base's rounding
    assert np.max(np.abs(E.sum(axis=1) - 1.0)) <= tol
    assert np.all(t >= v.max(axis=1))


@pytest.mark.parametrize("qt", [-2.0, -0.5, 0.3, 0.5, 0.995, 1.5, 2.5])
def test_cutoff_root_stops_each_slice_of_a_stack_as_alone(qt):
    # slices of very different spreads stop after different Newton steps or bisections
    rng = np.random.default_rng(4)
    v = np.stack([rng.normal(0.0, s, (9, 3)) for s in (0.01, 0.3, 3.0, 30.0)])
    t = _cutoff_root(v, qt)
    assert t.tobytes() == np.stack([_cutoff_root(slice_, qt) for slice_ in v]).tobytes()


# -- the one exp_q/log_q core -------------------------------------------------
#
# The public evaluators as they were written before they shared the core, kept
# here as the bit-for-bit reference.  A power that overflows is inf in both.


def _reference_exp_q(u, q):
    qp = QParam.of(q)
    arr = np.asarray(u, dtype=float)
    with np.errstate(over="ignore"):
        log_e = arr
        if not qp.classical:
            x = (1.0 - qp.q) * arr
            ok = (1.0 + x > 0.0) & np.isfinite(x)
            if not ok.all():
                raise QExpDomainError("reference", argument=float(arr[~ok][0]))
            log_e = np.log1p(x) / (1.0 - qp.q)
        out = np.exp(log_e)
    return out if isinstance(u, np.ndarray) else float(out)


def _reference_dexp_q(u, q):
    with np.errstate(over="ignore"):
        out = np.asarray(_reference_exp_q(u, q), dtype=float) ** QParam.of(q).q
    return out if isinstance(u, np.ndarray) else float(out)


def _reference_log_domain(u):
    arr = np.asarray(u, dtype=float)
    if not (arr.min(initial=np.inf) > 0.0 and np.all(np.isfinite(arr))):
        raise QLogDomainError("reference")
    return arr


def _reference_log_q(u, q):
    qp, arr = QParam.of(q), _reference_log_domain(u)
    with np.errstate(over="ignore"):
        out = np.log(arr) if qp.classical else np.expm1((1.0 - qp.q) * np.log(arr)) / (1.0 - qp.q)
    return out if isinstance(u, np.ndarray) else float(out)


def _reference_dlog_q(u, q):
    qp, arr = QParam.of(q), _reference_log_domain(u)
    with np.errstate(over="ignore"):
        out = arr ** (-qp.q)
    return out if isinstance(u, np.ndarray) else float(out)


def _outcome(f, u, q):
    """(type, bytes) of f(u, q)'s value, or (error type, its argument)."""
    try:
        out = f(u, q)
    except (QExpDomainError, QLogDomainError) as exc:
        return type(exc), getattr(exc, "argument", None)
    return type(out), np.asarray(out).shape, np.asarray(out).tobytes()


_U = st.one_of(st.floats(-20.0, 20.0), st.floats(allow_nan=True, allow_infinity=True),
               st.sampled_from([0.0, 1e-300, 1.0, -2.0, 1e300]))


@given(
    q=st.one_of(st.floats(0.0, 3.0, exclude_min=True),
                st.sampled_from([1.0 - 1e-9, 1.0 + 1e-9, 1.0, 0.5, 1.5, 2.0])),
    u=st.one_of(_U, _U.map(np.array), st.lists(_U, max_size=6).map(lambda v: np.array(v, dtype=float))),
)
@settings(max_examples=600, deadline=None)
def test_public_evaluators_are_bit_identical_to_their_former_formulas(q, u):
    for f, ref in ((exp_q, _reference_exp_q), (dexp_q, _reference_dexp_q),
                   (log_q, _reference_log_q), (dlog_q, _reference_dlog_q)):
        got, want = _outcome(f, u, q), _outcome(ref, u, q)
        assert got[0] is want[0]
        if got[0] is QExpDomainError:
            assert type(got[1]) is float
            assert got[1] == want[1] or (math.isnan(got[1]) and math.isnan(want[1]))
        else:
            assert got == want


def test_complex_core_is_the_real_core_on_the_real_axis():
    rng = np.random.default_rng(0)
    q = np.where(rng.random(2000) < 0.5, rng.uniform(0.05, 0.95, 2000), rng.uniform(1.05, 2.95, 2000))
    u = rng.uniform(0.05, 4.0, 2000)  # log_q's domain
    v = rng.uniform(-0.3, 0.3, 2000)  # exp_q's domain at every q drawn
    for f, x in ((qfun._log_q, u), (qfun._dlog_q, u), (qfun._exp_q, v), (qfun._dexp_q, v)):
        z = f(x + 0j, q)
        assert np.all(z.imag == 0.0)
        np.testing.assert_allclose(z.real, f(x, q), rtol=1e-14, atol=0.0)


def test_complex_domain_test_reads_the_real_part():
    u = np.array([0.5 + 1e-30j, -5.0 + 1e-30j])
    with pytest.raises(QExpDomainError) as err:
        qfun._log_exp_q(u, 0.5)
    assert type(err.value.argument) is float and err.value.argument == -5.0


def test_identity_suite_rows_are_at_rounding_level():
    for seed in (0, 1, 2):
        report = identity_suite(samples=10_000, seed=seed)
        assert report.worst <= 1e-13, [(s.name, s.max_violation) for s in report.stats]


def test_non_finite_violations_fail_their_rows(monkeypatch):
    # a NaN point is a failing point: the rows keep their full counts, and the
    # report's worst is NaN whichever row comes first
    monkeypatch.setattr(qfun, "_dexp_q", lambda u, q: np.full(np.shape(u), np.nan))
    report = identity_suite(samples=2000, seed=0)
    nan_rows = {s.name for s in report.stats if math.isnan(s.max_violation)}
    assert nan_rows == {"dexp-derivative", "shift-derivative"}
    assert all(s.points >= 2000 for s in report.stats if s.name in nan_rows)
    assert math.isnan(report.worst) and not report.passed(1e-9)
    report.stats.reverse()
    assert math.isnan(report.worst)


@pytest.mark.parametrize("name, wrong, rows", [
    ("_dexp_q", lambda u, q: np.asarray(qfun._exp_q(u, q)) ** (q + 1e-6),
     {"dexp-derivative", "shift-derivative", "shift-second-derivative"}),
    ("_dlog_q", lambda u, q: u ** (-q - 1e-6), {"dlog-derivative"}),
])
def test_a_wrong_derivative_formula_fails_the_battery(monkeypatch, name, wrong, rows):
    # the derivative rows check the core's formulas themselves, by complex step
    monkeypatch.setattr(qfun, name, wrong)
    report = identity_suite(samples=10_000, seed=0)
    assert not report.passed(1e-9)
    assert {s.name for s in report.stats if s.max_violation > 1e-9} == rows
