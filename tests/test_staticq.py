import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qthermo
from qthermo.errors import QThermoError
from qthermo.qfun import QParam, log_q
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


# a bracket search at q > 1 that walks away from min(beta a) never returns on
# some of these, so they run in a child interpreter with a timeout
_Q_ABOVE_ONE = [
    ((0.5, 0.8), 0.4, 1.5),
    ((0.5, 0.8, -0.1), 0.4, 1.5),
    ((0.5, 0.8, 0.0), 0.4, 1.5),
    ((0.05, 0.08, -0.01), 0.4, 1.5),
]


def test_true_equilibrium_above_q_one():
    code = (
        "import json, sys; from qthermo.staticq import true_static_equilibrium as t; "
        "print(json.dumps([t(*case).p_star.tolist() for case in json.loads(sys.argv[1])]))"
    )
    src = str(Path(qthermo.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code, json.dumps(_Q_ABOVE_ONE)],
        capture_output=True, text=True, timeout=60, env=env, check=True,
    )
    for (a, beta, q), p in zip(_Q_ABOVE_ONE, json.loads(out.stdout)):
        pressure = q_entropy_vec(p, q) + beta * float(np.dot(a, p))
        scan = static_q_pressure_scan(a, beta, q).pressure
        if len(a) == 2:
            assert pressure == pytest.approx(scan, abs=1e-9)
        else:
            assert stationarity_defect(p, a, beta, q) <= 1e-9
            assert pressure >= scan


def test_true_equilibrium_on_the_simplex_boundary_raises():
    # sum p = 1.80 at lam = min(beta a): the scan's maximizer is the vertex (1, 0)
    with pytest.raises(QThermoError, match="boundary of the simplex"):
        true_static_equilibrium((2.0, -1.0), 1.2, 1.8)


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
