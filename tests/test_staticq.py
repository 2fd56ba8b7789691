import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qthermo.qfun import CLASSICAL_Q_TOL, QParam, log_q
from qthermo.staticq import (
    beta_sweep,
    loloi_closed_form,
    meson_vericat_bernoulli,
    q_entropy_vec,
    renyi_entropy,
    renyi_from_q_entropy,
    static_q_pressure,
    static_q_pressure_scan,
    stationarity_defect,
    true_static_equilibrium,
)


def test_entropy_uniform_is_logq_d():
    for d in (2, 3, 5):
        p = np.full(d, 1.0 / d)
        for q in (0.3, 0.5, 0.9, 1.4):
            assert q_entropy_vec(p, q) == pytest.approx(float(log_q(d, q)), abs=1e-12)


def test_entropy_degenerate_vector_is_zero():
    assert q_entropy_vec(np.array([1.0, 0.0]), 0.5) == 0.0
    assert q_entropy_vec(np.array([0.0, 1.0, 0.0]), 1.5) == 0.0


def test_entropy_maximized_at_uniform():
    rng = np.random.default_rng(0)
    for _ in range(10_000):
        d = int(rng.integers(2, 5))
        p = rng.dirichlet(np.ones(d))
        q = float(rng.uniform(0.2, 1.8))
        if abs(q - 1.0) < 1e-3:
            continue
        assert q_entropy_vec(p, q) <= float(log_q(d, q)) + 1e-12


def test_entropy_concave_midpoint():
    rng = np.random.default_rng(1)
    for _ in range(2000):
        d = int(rng.integers(2, 5))
        p1 = rng.dirichlet(np.ones(d))
        p2 = rng.dirichlet(np.ones(d))
        q = float(rng.uniform(0.2, 1.8))
        mid = q_entropy_vec(0.5 * (p1 + p2), q)
        assert mid >= 0.5 * (q_entropy_vec(p1, q) + q_entropy_vec(p2, q)) - 1e-12


@pytest.mark.xfail(
    strict=True,
    reason="for q in (0,1) the q-entropy dominates Shannon (log_q(1/p) >= "
    "log(1/p) there), e.g. uniform d=2 q=1/2 gives H_q = 0.8284 > h = 0.6931; "
    "so h >= H_q is the reversed direction and cannot hold for q < 1",
)
def test_shannon_dominates_q_entropy():
    rng = np.random.default_rng(0)
    for _ in range(200):
        p = rng.dirichlet(np.ones(3))
        q = float(rng.uniform(0.2, 0.8))
        h = float(-(p * np.log(p)).sum())
        assert h >= q_entropy_vec(p, q) - 1e-12


def test_shannon_ordering_actual_direction():
    # H_q >= h for q < 1 and H_q <= h for q > 1
    rng = np.random.default_rng(0)
    for _ in range(2000):
        d = int(rng.integers(2, 5))
        p = rng.dirichlet(np.ones(d))
        h = float(-(p * np.log(np.maximum(p, 1e-300))).sum())
        q_lo = float(rng.uniform(0.2, 0.95))
        q_hi = float(rng.uniform(1.05, 1.8))
        assert q_entropy_vec(p, q_lo) >= h - 1e-12
        assert q_entropy_vec(p, q_hi) <= h + 1e-12


def test_renyi_bijection():
    rng = np.random.default_rng(2)
    for _ in range(2000):
        d = int(rng.integers(2, 6))
        p = rng.dirichlet(np.ones(d))
        q = float(rng.uniform(0.2, 1.8))
        if abs(q - 1.0) < 1e-3:
            continue
        hq = q_entropy_vec(p, q)
        assert renyi_from_q_entropy(hq, q) == pytest.approx(
            renyi_entropy(p, q), abs=1e-10
        )


@given(
    k=st.integers(2, 6),
    qs=st.lists(
        st.one_of(
            st.sampled_from([0.5, 1.5]),
            st.floats(0.2, 1.8).filter(lambda x: abs(x - 1.0) > CLASSICAL_Q_TOL),
        ),
        min_size=1,
        max_size=30,
    ),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_stacked_rows_are_the_one_row_calls(k, qs, seed):
    # rows with zero entries; q = 0.5 is the exponent numpy's ** takes as sqrt
    rng = np.random.default_rng(seed)
    P = rng.dirichlet(np.ones(k), size=len(qs))
    P[rng.random(P.shape) < 0.25] = 0.0
    P[P.sum(axis=1) == 0.0, 0] = 1.0
    P /= P.sum(axis=1, keepdims=True)
    Q = np.array(qs)
    H, R = q_entropy_vec(P, Q), renyi_entropy(P, Q)
    F = renyi_from_q_entropy(H, Q)
    assert H.shape == R.shape == F.shape == (len(qs),)
    for i, (p, q) in enumerate(zip(P, qs)):
        h = q_entropy_vec(p, q)
        assert type(h) is float and h == H[i]
        assert renyi_entropy(p, q) == R[i]
        assert renyi_from_q_entropy(h, q) == F[i]


def _error(call):
    with pytest.raises(ValueError) as info:
        call()
    return type(info.value), str(info.value)


@pytest.mark.parametrize(
    "row,q",
    [
        ((1.0,), 0.5),  # one entry
        ((-0.1, 1.1), 0.5),  # negative entry
        ((0.3, 0.6), 0.5),  # sums to 0.9
        ((0.3, 0.7), 0.0),
        ((0.3, 0.7), -0.5),
        ((0.3, 0.7), math.inf),
    ],
)
def test_stacked_rows_raise_the_one_row_error(row, q):
    P, Q = np.array([(0.5,) * len(row), row]), np.array([0.5, q])
    for f in (q_entropy_vec, renyi_entropy):
        assert _error(lambda: f(P, Q)) == _error(lambda: f(row, q))
    if not 0.0 < q < math.inf:
        one_row = _error(lambda: renyi_from_q_entropy(0.5, q))
        assert _error(lambda: renyi_from_q_entropy(np.array([0.5, 0.5]), Q)) == one_row


@pytest.mark.parametrize("q", [1.0, 1.0 + CLASSICAL_Q_TOL / 2])
def test_stacked_rows_refuse_the_shannon_q(q):
    # one row at q = 1 is Shannon; a stack at q = 1 is refused, not divided by 1 - q
    P, Q = np.array([[0.2, 0.8], [0.4, 0.6]]), np.array([0.5, q])
    for f in (q_entropy_vec, renyi_entropy):
        assert f(P[1], q) == pytest.approx(-(0.4 * math.log(0.4) + 0.6 * math.log(0.6)))
        with pytest.raises(ValueError, match="q != 1"):
            f(P, Q)
    with pytest.raises(ValueError, match="q != 1"):
        renyi_from_q_entropy(np.array([0.5, 0.5]), Q)


def test_stacked_rows_take_one_q_per_row():
    P = np.array([[0.2, 0.8], [0.4, 0.6]])
    with pytest.raises(ValueError):
        q_entropy_vec(P, np.array([0.5, 0.6, 0.7]))
    with pytest.raises(ValueError):
        meson_vericat_bernoulli(P, 0.5)  # one vector only


def test_meson_vericat_value():
    p = (0.5, 0.5)
    # (1-q) H^R_q at q = 1/2, uniform: log(2 * 2^{-1/2}) = log(sqrt 2)
    assert meson_vericat_bernoulli(p, 0.5) == pytest.approx(
        math.log(2.0 * 2.0**-0.5), abs=1e-12
    )


def test_meson_vericat_is_scaled_renyi():
    rng = np.random.default_rng(3)
    for _ in range(200):
        p1 = float(rng.uniform(0.05, 0.95))
        q = float(rng.uniform(0.2, 0.9))
        p = (p1, 1.0 - p1)
        assert meson_vericat_bernoulli(p, q) == pytest.approx(
            (1.0 - q) * renyi_entropy(p, q), abs=1e-12
        )


def test_static_pressure_target_values():
    eq = static_q_pressure((0.5, 0.8), 1.2, 1.0 / 3.0)
    assert eq.pressure == pytest.approx(1.6895, abs=5e-4)
    assert eq.p_star[0] == pytest.approx(0.3172, abs=5e-4)
    assert eq.p_star[1] == pytest.approx(0.6828, abs=5e-4)
    assert eq.objective_at_p == pytest.approx(eq.pressure, abs=1e-12)


def test_static_pressure_beta_zero_is_max_entropy():
    eq = static_q_pressure((0.5, 0.8), 0.0, 0.5)
    assert eq.pressure == pytest.approx(float(log_q(2.0, 0.5)), abs=1e-12)
    assert np.allclose(eq.p_star, 0.5, atol=1e-12)


@pytest.mark.xfail(
    strict=True,
    reason="the closed-form p* proportional to exp_{2-q}(beta a) is a "
    "critical point of a different functional: the Lagrange expression "
    "beta a_j + (q/(1-q)) p_j^(q-1) varies by 0.070 across j at "
    "q=1/3, beta=1.2, a=(0.5,0.8)",
)
def test_closed_form_satisfies_lagrange_stationarity():
    q, beta = 1.0 / 3.0, 1.2
    a = np.array([0.5, 0.8])
    p = np.asarray(static_q_pressure(a, beta, q).p_star)
    expr = beta * a + (q / (1.0 - q)) * p ** (q - 1.0)
    assert float(expr.max() - expr.min()) <= 1e-8


def test_true_equilibrium_stationarity():
    # the genuine maximizer found by the multiplier solve does satisfy
    # first-order stationarity of H_q(p) + beta <a, p>
    eq = true_static_equilibrium((0.5, 0.8), 1.2, 1.0 / 3.0)
    assert stationarity_defect(eq.p_star, (0.5, 0.8), 1.2, 1.0 / 3.0) <= 1e-6
    assert eq.pressure >= static_q_pressure((0.5, 0.8), 1.2, 1.0 / 3.0).pressure


_Q_ABOVE_ONE = [
    ((0.5, 0.8), 0.4, 1.5),
    ((0.5, 0.8, -0.1), 0.4, 1.5),
    ((0.5, 0.8, 0.0), 0.4, 1.5),
    ((0.05, 0.08, -0.01), 0.4, 1.5),
]


def test_true_equilibrium_above_q_one():
    for a, beta, q in _Q_ABOVE_ONE:
        p = true_static_equilibrium(a, beta, q).p_star
        pressure = q_entropy_vec(p, q) + beta * float(np.dot(a, p))
        scan = static_q_pressure_scan(a, beta, q).pressure
        if len(a) == 2:
            assert pressure == pytest.approx(scan, abs=1e-9)
        else:
            assert stationarity_defect(p, a, beta, q) <= 1e-9
            assert pressure >= scan


def test_true_equilibrium_on_the_simplex_boundary():
    # no interior p is stationary here; the maximizer is the vertex (1, 0),
    # which the interior grid of the scan only approaches
    eq = true_static_equilibrium((2.0, -1.0), 1.2, 1.8)
    assert eq.p_star.tolist() == [1.0, 0.0]
    assert eq.pressure == pytest.approx(2.4, abs=1e-15)
    assert eq.pressure >= static_q_pressure_scan((2.0, -1.0), 1.2, 1.8).pressure


@pytest.mark.xfail(
    strict=True,
    reason="the brute-force maximum of H_q(p) + beta <a,p> at q=1/3, "
    "beta=1.2, a=(0.5,0.8) is 1.69053 at p1=0.34255, which is 1.03e-3 "
    "above the target 1.6895 - the closed-form p* is not the maximizer",
)
def test_static_scan_matches_target_value():
    sc = static_q_pressure_scan((0.5, 0.8), 1.2, 1.0 / 3.0)
    assert sc.pressure == pytest.approx(1.6895, abs=1e-3)


def test_static_scan_frozen_true_value():
    sc = static_q_pressure_scan((0.5, 0.8), 1.2, 1.0 / 3.0)
    assert sc.pressure == pytest.approx(1.6905266438013211, abs=1e-8)
    assert sc.p_star[0] == pytest.approx(0.34255272350773597, abs=1e-6)
    # scan dominates the closed form, never the other way around
    assert sc.pressure >= static_q_pressure((0.5, 0.8), 1.2, 1.0 / 3.0).pressure - 1e-12


def test_beta_sweep_marks_inadmissible_betas():
    rows = beta_sweep((0.5, 0.8), 1.0 / 3.0, [0.0, 1.0, 2.0])
    assert rows[0][1] == pytest.approx(float(log_q(2.0, 1.0 / 3.0)), abs=1e-12)
    assert rows[1][1] is not None
    # beta=2: exp_{5/3}(beta * 0.8) leaves its domain
    assert rows[2][1] is None


def test_beta_sweep_monotone_in_beta():
    rows = beta_sweep((0.5, 0.8), 0.5, np.linspace(0.0, 2.0, 9))
    vals = [p for _, p in rows]
    assert all(v is not None for v in vals)
    assert all(b <= a for a, b in zip(vals[1:], vals))  # nonneg payoff => increasing


def test_loloi_closed_form_matches_general_expression():
    p1, p2 = loloi_closed_form(0.5, 0.8, 1.2)
    eq = static_q_pressure((0.5, 0.8), 1.2, 0.5)
    assert p1 == pytest.approx(eq.p_star[0], abs=1e-12)
    assert p2 == pytest.approx(eq.p_star[1], abs=1e-12)
    assert p1 + p2 == pytest.approx(1.0, abs=1e-12)


def test_loloi_unnormalized_variant_rejected():
    # the variant with (a2 b - b)^2 numerators does not even normalize
    a1, a2, b = 0.5, 0.8, 1.2
    den = 8.0 - 4.0 * a1 * b - 4.0 * a2 * b + a1**2 * b**2 + a2**2 * b**2
    bad = ((a2 * b - b) ** 2 + (a1 * b - b) ** 2) / den
    assert abs(bad - 1.0) > 0.5


@pytest.mark.parametrize("q", [0.0, -0.5])
@pytest.mark.parametrize(
    "call",
    [
        lambda q: q_entropy_vec((0.3, 0.7), q),
        lambda q: renyi_entropy((0.3, 0.7), q),
        lambda q: renyi_from_q_entropy(0.5, q),
        lambda q: static_q_pressure((0.5, 0.8), 1.2, q),
        lambda q: true_static_equilibrium((0.5, 0.8), 1.2, q),
        lambda q: stationarity_defect((0.3, 0.7), (0.5, 0.8), 1.2, q),
        lambda q: static_q_pressure_scan((0.5, 0.8), 1.2, q),
        lambda q: beta_sweep((0.5, 0.8), q, [0.0, 1.0]),
        lambda q: meson_vericat_bernoulli((0.3, 0.7), q),
    ],
    ids=[
        "q_entropy_vec", "renyi_entropy", "renyi_from_q_entropy", "static_q_pressure",
        "true_static_equilibrium", "stationarity_defect", "static_q_pressure_scan",
        "beta_sweep", "meson_vericat_bernoulli",
    ],
)
def test_nonpositive_q_is_a_value_error(call, q):
    with pytest.raises(ValueError, match="> 0"):
        call(q)


def test_qparam_and_float_q_agree_bit_for_bit():
    p, a = (0.2, 0.3, 0.5), (0.5, 0.8, -0.1)
    for q in (1.0 / 3.0, 0.5, 1.0, 1.5):
        qp = QParam(q)
        assert q_entropy_vec(p, qp) == q_entropy_vec(p, q)
        assert renyi_entropy(p, qp) == renyi_entropy(p, q)
        assert renyi_from_q_entropy(0.7, qp) == renyi_from_q_entropy(0.7, q)
        assert static_q_pressure(a, 0.4, qp).pressure == static_q_pressure(a, 0.4, q).pressure
        assert beta_sweep(a, qp, [0.0, 0.4]) == beta_sweep(a, q, [0.0, 0.4])
        assert (true_static_equilibrium(a, 0.4, qp).pressure
                == true_static_equilibrium(a, 0.4, q).pressure)
