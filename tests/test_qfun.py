import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    with pytest.raises(QLogDomainError):
        log_q(-1.0, 0.5)
    with pytest.raises(QLogDomainError):
        log_q(0.0, 1.3)


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
    assert report.worst_gated <= 1e-9


def test_identity_suite_flags_ambiguous_rows():
    report = identity_suite(samples=500, seed=0)
    flagged = {s.name for s in report.stats if s.flagged}
    assert flagged == {"mixed-dual-product", "dual-shift-split"}
    # flagged rows are reported but never gated
    gated = {s.name for s in report.gated()}
    assert flagged.isdisjoint(gated)


def test_qparam_of_passes_qparam_through_and_validates_numbers():
    qp = QParam(0.5)
    assert QParam.of(qp) is qp
    assert QParam.of(np.float64(0.5)) == qp
    assert QParam.of(2).q == 2.0 and isinstance(QParam.of(2).q, float)
    with pytest.raises(ValueError):
        QParam.of(-0.5)


@pytest.mark.parametrize("qt", [-2.0, -0.5, 0.0, 0.3, 1.0 - 1e-6, 1.0, 1.5])
def test_cutoff_root_solves_its_equation(qt):
    # qt <= 0 runs the bracketed Newton, where the sum is not convex in t
    v = np.random.default_rng(0).normal(0.0, 2.0, (50, 3))
    t = _cutoff_root(v, qt)
    if qt == 1.0:
        E = np.exp(v - t[:, None])
    else:
        E = np.maximum(1.0 + (1.0 - qt) * (v - t[:, None]), 0.0) ** (1.0 / (1.0 - qt))
    tol = 1e-9 if qt == 1.0 - 1e-6 else 1e-13  # the power 1e6 amplifies the base's rounding
    assert np.max(np.abs(E.sum(axis=1) - 1.0)) <= tol
    assert np.all(t >= v.max(axis=1))
