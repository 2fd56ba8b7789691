import math

import numpy as np
import pytest

from qthermo.errors import QExpDomainError, QLogDomainError
from qthermo.qfun import QParam
from qthermo.shift import Potential
from qthermo.subadd import (
    SumBuckets,
    asymptotic_pressure,
    frak_L_n,
    frak_L_n_enumerate,
    log_frak_L_sequence,
    phi_n,
    variational_scan_subadd,
)

A_CONST = Potential.constant(2, 1.0)
A_01 = Potential(d=2, memory=1, values=np.array([0.0, 1.0]))


def test_phi_n_single_window():
    A = Potential(d=2, memory=1, values=np.array([0.3, 0.9]))
    # one window: phi_1 = log_q(1 + (1-q) A)
    got = phi_n(A, 0.5, (2,), ())
    assert got == pytest.approx(math.log(1.0 + 0.5 * 0.9) / 0.5, abs=1e-14)


def test_phi_n_zero_length():
    assert phi_n(A_01, 0.5, (), (1,)) == 0.0


def test_phi_n_needs_tail_for_memory2():
    A = Potential(d=2, memory=2, values=np.array([0.1, 0.2, 0.3, 0.4]))
    with pytest.raises(ValueError):
        phi_n(A, 0.5, (1, 2), ())  # memory-2 needs one tail symbol
    val = phi_n(A, 0.5, (1, 2), (1,))
    s = 0.1 * 0 + A.value((1, 2)) + A.value((2, 1))
    assert val == pytest.approx(math.log(1.0 + 0.5 * s) / 0.5, abs=1e-12)


def test_phi_n_classical_is_birkhoff():
    w = (1, 2, 2, 1)
    assert phi_n(A_01, 1.0, w, ()) == pytest.approx(A_01.birkhoff_sum(w), abs=1e-14)


def test_phi_n_domain_error():
    A = Potential(d=2, memory=1, values=np.array([-3.0, 0.0]))
    with pytest.raises(QLogDomainError):
        phi_n(A, 0.5, (1,), ())


def test_constant_closed_form():
    # A = 1: frak_L_n = 2^n (1 + n/2)^2 at q = 1/2
    for n in range(1, 51):
        closed = 2.0**n * (1.0 + n / 2.0) ** 2
        assert frak_L_n(A_CONST, 0.5, (), n) == pytest.approx(closed, rel=1e-12)


def test_two_level_binomial_form():
    # A = (0, 1): level sets are binomial in the count of 2-symbols
    for n in range(1, 16):
        closed = sum(
            math.comb(n, k) * (1.0 + 0.5 * k) ** 2 for k in range(n + 1)
        )
        assert frak_L_n(A_01, 0.5, (), n) == pytest.approx(closed, rel=1e-12)


def test_bucket_dp_equals_enumeration():
    rng = np.random.default_rng(0)
    for _ in range(3):
        m = int(rng.integers(1, 3))
        A = Potential(d=2, memory=m, values=rng.uniform(0.0, 1.2, 2**m))
        for n in (1, 2, 5, 9, 13):
            dp = frak_L_n(A, 0.5, (1,), n)
            brute = frak_L_n_enumerate(A, 0.5, (1,), n)
            # generic sums sit off the 1e-9 bucket lattice, so agreement
            # is limited by quantization (integer-valued A is exact; see
            # test_constant_closed_form)
            assert dp == pytest.approx(brute, rel=5e-8)


def test_bucket_counts_are_exact_integers():
    sb = SumBuckets(A_01, (1,))
    for _ in range(30):
        sb.step()
    assert sb.total_count() == 2**30  # exact arbitrary-precision count


def test_log_sequence_matches_pointwise():
    seq = log_frak_L_sequence(A_01, 0.5, (1,), 12)
    for n in (1, 4, 9, 12):
        assert seq[n - 1] == pytest.approx(
            math.log(frak_L_n(A_01, 0.5, (1,), n)), abs=1e-10
        )


def test_truncated_log_value_drops_out_of_domain_buckets():
    # sign-changing potential: a few deep-negative buckets leave the exp_q
    # domain at n = 40; the full sum refuses, the truncated one reports them
    A = Potential(d=2, memory=1, values=np.array([-0.1, 0.5]))
    sb = SumBuckets(A, ())
    for _ in range(40):
        sb.step()
    with pytest.raises(QExpDomainError):
        sb.log_value(QParam(0.5))
    part, dropped = sb.log_value_truncated(QParam(0.5))
    assert math.isfinite(part)
    assert 0.0 < dropped < 1e-6  # sum_{k<=3} C(40,k) / 2^40


def test_truncated_matches_full_in_domain():
    sb = SumBuckets(A_01, (1,))
    for _ in range(40):
        sb.step()
    part, dropped = sb.log_value_truncated(QParam(0.5))
    assert dropped == 0.0
    assert part == pytest.approx(sb.log_value(QParam(0.5)), abs=1e-12)


def test_asymptotic_pressure_const():
    est, seq = asymptotic_pressure(A_CONST, 0.5, (), 800)
    assert est == pytest.approx(math.log(2.0), abs=0.01)
    assert seq[-1][0] == 800


def test_asymptotic_pressure_two_level():
    est, _ = asymptotic_pressure(A_01, 0.5, (), 800)
    assert est == pytest.approx(math.log(2.0), abs=0.02)


def test_asymptotic_pressure_base_point_free():
    A = Potential(d=2, memory=2, values=np.array([0.25, 1.0, 0.5, 0.75]))
    e1, _ = asymptotic_pressure(A, 0.5, (1,), 600)
    e2, _ = asymptotic_pressure(A, 0.5, (2,), 600)
    assert abs(e1 - e2) <= 1e-3


def test_asymptotic_pressure_rejects_negative():
    A = Potential(d=2, memory=1, values=np.array([-0.1, 0.4]))
    with pytest.raises(ValueError):
        asymptotic_pressure(A, 0.5, (), 100)


def test_weak_subadditivity_of_log_sequence():
    # a_{m+n} <= a_m + a_n + log H; empirical slack stays far under 10
    for A in (A_01, Potential(d=2, memory=2, values=np.array([0.2, 0.9, 0.4, 1.1]))):
        a = log_frak_L_sequence(A, 0.5, (1,), 200)
        worst = -math.inf
        for m in range(1, 100):
            for n in range(1, 200 - m + 1):
                worst = max(worst, a[m + n - 1] - a[m - 1] - a[n - 1])
        assert worst <= 10.0


def test_sequence_oscillation_settles():
    # the quotient a_n/n converges; over the final tenth of the range the
    # spread is far below 0.01 (over [n/10, n] it is provably ~0.035 for
    # A = 1, since a_n/n = log 2 + 2 log(1 + n/2)/n still drifts there)
    for A in (A_CONST, A_01):
        seq = log_frak_L_sequence(A, 0.5, (), 2000)
        quot = seq / np.arange(1, 2001)
        tail = quot[1800 - 1 :]
        assert float(tail.max() - tail.min()) < 0.01


def test_kingman_normalized_deformed_sums_vanish():
    # Monte Carlo over sampled words: mean phi_n / n at n = 1000 is ~ 2
    # log(n) / n, well under 0.05
    rng = np.random.default_rng(0)
    n = 1000
    words = rng.integers(1, 3, size=(10_000, n))
    s = (words == 2).sum(axis=1).astype(float)  # Birkhoff sums of A_01
    phi = np.log1p(0.5 * s) / 0.5
    assert float(np.abs(phi / n).mean()) <= 0.05


def test_shifted_comparison_sequence():
    # phi_n of A and of A + c (c = -2 inf A) differ by at most 4/(1-q)
    # along sampled words
    A = Potential(d=2, memory=1, values=np.array([-0.1, 0.5]))
    c = 0.2
    q = 0.5
    rng = np.random.default_rng(1)
    for n in (10, 100, 1000):
        words = rng.integers(1, 3, size=(200, n))
        s = np.where(words == 2, 0.5, -0.1).sum(axis=1)
        ok = 1.0 + (1.0 - q) * s > 0
        phi = np.log1p((1.0 - q) * s[ok]) / (1.0 - q)
        psi = np.log1p((1.0 - q) * (s[ok] + n * c)) / (1.0 - q)
        assert float(np.max(np.abs(phi - psi))) <= 4.0 / (1.0 - q)
        # cross-check one row against the library evaluation
        if 1.0 + (1.0 - q) * s[0] > 0:
            w = tuple(int(x) for x in words[0])
            assert phi_n(A, q, w, ()) == pytest.approx(
                float(np.log1p((1.0 - q) * s[0]) / (1.0 - q)), abs=1e-10
            )


def test_scan_const_potential():
    res = variational_scan_subadd(A_CONST, 0.5, 60)
    assert res.value == pytest.approx(math.log(2.0), abs=1e-3)
    assert res.excluded_fraction == 0.0


def test_scan_two_level_potential():
    res = variational_scan_subadd(A_01, 0.5, 60)
    assert res.value == pytest.approx(math.log(2.0), abs=1e-3)
    # every interior Markov measure gives symbol 2 positive mass
    assert res.excluded_fraction == 0.0


def test_scan_agrees_with_sequence_limit():
    A = Potential(d=2, memory=1, values=np.array([0.6, 1.3]))
    est, _ = asymptotic_pressure(A, 0.5, (), 800)
    res = variational_scan_subadd(A, 0.5, 80)
    assert est == pytest.approx(res.value, abs=5e-3)


def test_two_level_closed_form_at_large_n():
    # Binomial(n, 1/2) applied to (1 + K/2)^2: 2^n (1 + 9n/16 + n^2/16)
    seq = log_frak_L_sequence(A_01, 0.5, (), 2000)
    n = np.arange(1, 2001, dtype=float)
    closed = n * math.log(2.0) + np.log1p(9.0 * n / 16.0 + n**2 / 16.0)
    np.testing.assert_allclose(seq, closed, rtol=1e-12, atol=0.0)


def test_classical_closed_form_with_tiny_counts():
    # at q = 1 the sum is (1 + e^10)^n; the cells of few 2-symbols have tiny
    # weights next to the dominant ones, which must neither underflow nor
    # drop out of the sum
    A = Potential(d=2, memory=1, values=[0.0, 10.0])
    seq = log_frak_L_sequence(A, 1.0, (), 2000)
    n = np.arange(1, 2001, dtype=float)
    np.testing.assert_allclose(seq, n * math.log1p(math.exp(10.0)), rtol=1e-12, atol=0.0)
