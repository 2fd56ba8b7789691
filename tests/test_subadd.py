import math
import time

import numpy as np
import pytest

from qthermo.errors import QExpDomainError, QThermoError, SizeGuardError
from qthermo.qfun import QParam
from qthermo.ruelle import _context_tables, ks_entropy
from qthermo.shift import Potential, word_index
from qthermo.subadd import (
    _DENSE_WORK,
    SumBuckets,
    _moment_order,
    asymptotic_fit,
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
    with pytest.raises(QExpDomainError):
        phi_n(A, 0.5, (1,), ())
    # rows 1 and 2 leave the domain; the error names row 1's Birkhoff sum
    with pytest.raises(QExpDomainError) as info:
        phi_n(A, 0.5, np.array([[2, 2], [2, 1], [1, 1]]), np.zeros((3, 0), dtype=int))
    assert info.value.argument == -3.0


@pytest.mark.parametrize("q", [0.5, 0.7, 1.0])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_phi_n_array_form_matches_tuple_form(q, m):
    rng = np.random.default_rng(7 + m)
    A = Potential(d=2, memory=m, values=rng.uniform(0.0, 1.5, 2**m))
    for n in (0, 1, 9):
        words = rng.integers(1, 3, size=(200, n + m - 1))
        got = phi_n(A, q, words[:, :n], words[:, n:])
        want = [phi_n(A, q, tuple(w[:n]), tuple(w[n:])) for w in words]
        np.testing.assert_array_max_ulp(got, np.array(want), maxulp=1)


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
            # p = 2.5 is not an integer, so frak_L_n takes the bucket DP
            dp = frak_L_n(A, 0.6, (1,), n)
            brute = frak_L_n_enumerate(A, 0.6, (1,), n)
            # generic sums sit off the 1e-9 bucket lattice, so agreement
            # is limited by quantization (integer-valued A is exact; see
            # test_constant_closed_form)
            assert dp == pytest.approx(brute, rel=5e-8)


def test_enumeration_serves_more_words_than_a_birkhoff_table():
    # 3^13 words with a memory-2 tail: past birkhoff_table's 4,000,000-word guard
    A = Potential(d=3, memory=2, values=np.arange(9) % 3 * 0.5)
    brute = frak_L_n_enumerate(A, 0.6, (2,), 13)
    assert brute == pytest.approx(frak_L_n(A, 0.6, (2,), 13), rel=1e-12)


@pytest.mark.parametrize("q", [0.5, 2.0 / 3.0])
def test_frak_L_n_serves_memory_3_at_integer_p(q):
    # the moment recursion serves any d and memory, which the buckets refuse
    A = Potential(d=3, memory=3, values=np.random.default_rng(5).uniform(0.0, 1.5, 27))
    for n in (3, 6):
        brute = frak_L_n_enumerate(A, q, (2, 1), n)
        assert frak_L_n(A, q, (2, 1), n) == pytest.approx(brute, rel=1e-12)


@pytest.mark.parametrize("d, m", [(2, 3), (4, 1)])
def test_buckets_refuse_memory_3_and_d_4(d, m):
    with pytest.raises(SizeGuardError, match="memory <= 2, d <= 3"):
        SumBuckets(Potential(d=d, memory=m, values=np.zeros(d**m)), (1,) * (m - 1))


def test_bucket_counts_are_exact_integers():
    sb = SumBuckets(A_01, (1,))
    for _ in range(30):
        sb.step()
    # the number of counted words, d^n, summed from the log-counts: exact while
    # d^n stays below about 2^47; beyond that the float counts round
    total = round(math.fsum(np.exp(np.concatenate(list(sb.log_counts.values())))))
    assert total == 2**30



def test_sums_beyond_int64_hit_the_size_guard():
    # 1e10 is 1e19 quanta, past int64: refused by the guard, not wrapped
    sb = SumBuckets(Potential(d=2, memory=1, values=np.array([0.0, 1e10])), ())
    with pytest.raises(SizeGuardError):
        sb.step()

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


def _bucket_log_sequence(A, q, x0_prefix, n_max):
    # the bucket DP alone, step by step: the reference for the moment recursion
    sb = SumBuckets(A, x0_prefix)
    out = np.empty(n_max)
    for i in range(n_max):
        sb.step()
        out[i] = sb.log_value(QParam(q))
    return out


def _step_log_sequence(A, q, x0_prefix, n_max):
    # the moment recursion one n at a time: the reference for the blocked product
    qp = QParam(q)
    P = _moment_order(A, qp, n_max)
    d, r, k = A.d, A.memory - 1, A.context_length()
    _, pre_idx, A_vals = _context_tables(A, k)
    j = np.arange(P + 1)
    binom = np.array([[math.comb(a, b) for b in j] for a in j], dtype=float)
    T = binom * ((1.0 - q) * A_vals[..., None, None]) ** np.maximum(j[:, None] - j, 0) / d
    M = np.zeros((d**k, P + 1))
    M[word_index(x0_prefix[:r], d) * d ** (k - r)] = 1.0
    out = np.empty(n_max)
    for n in range(n_max):
        moved = np.einsum("xaji,xi->xaj", T, M)
        M = np.zeros_like(M)
        np.add.at(M, pre_idx, moved)
        out[n] = M[:, P].sum()
    return np.arange(1, n_max + 1) * math.log(d) + np.log(out)


@pytest.mark.parametrize("P", range(2, 9))
@pytest.mark.parametrize("d, m", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)])
def test_blocked_moments_equal_the_step_loop(d, m, P):
    # every block boundary: one short block, one full, one full plus a term, and many
    rng = np.random.default_rng(1000 * d + 100 * m + P)
    A = Potential(d=d, memory=m, values=rng.uniform(0.0, 1.5, d**m))
    q, x0 = 1.0 - 1.0 / P, tuple(rng.integers(1, d + 1, m - 1))
    want = _step_log_sequence(A, q, x0, 2000)
    for n_max in (1, 63, 64, 65, 2000):
        got = log_frak_L_sequence(A, q, x0, n_max)
        np.testing.assert_allclose(got, want[:n_max], rtol=1e-14, atol=0.0)


@pytest.mark.parametrize(
    "d, m, q, n_max, dense",
    [(3, 5, 0.75, 2000, True), (3, 5, 0.75, 800, False), (4, 5, 0.75, 2000, False)],
)
def test_moment_recursion_on_both_sides_of_the_dense_size(d, m, q, n_max, dense, monkeypatch):
    # N = d^4 (P + 1) pairs: N = 405 is dense at n_max = 2000 but steps at 800, and
    # N = 1,280 steps at 2000: there L^64 costs more than the steps
    A = Potential(d=d, memory=m, values=np.random.default_rng(9).uniform(0.0, 1.5, d**m))
    N = d**4 * (round(1.0 / (1.0 - q)) + 1)
    assert (N * N <= _DENSE_WORK * n_max) == dense
    want = _step_log_sequence(A, q, (1, 2, 3, 2), n_max)
    steps, einsum = [], np.einsum
    monkeypatch.setattr(np, "einsum", lambda *args: steps.append(1) or einsum(*args))
    got = log_frak_L_sequence(A, q, (1, 2, 3, 2), n_max)
    assert len(steps) == (0 if dense else n_max)
    if dense:
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
    else:
        np.testing.assert_array_equal(got, want)


def test_log_sequence_refuses_a_negative_length():
    with pytest.raises(ValueError, match="n_max = -1"):
        log_frak_L_sequence(A_01, 0.5, (), -1)
    assert log_frak_L_sequence(A_01, 0.5, (), 0).shape == (0,)


@pytest.mark.parametrize("n_max", [-5, 0, 1, 3, 4, 5])
def test_asymptotic_fit_refuses_a_tail_too_short_to_fit(n_max):
    with pytest.raises(ValueError, match=f"n_max = {n_max}: the tail fit needs n_max >= 6"):
        asymptotic_fit(A_01, 0.5, (), n_max)
    coef, seq = asymptotic_fit(A_01, 0.5, (), 6)
    assert coef.shape == (3,) and len(seq) == 6


@pytest.mark.parametrize("q", [0.5, 2.0 / 3.0, 0.75])
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_moment_recursion_equals_enumeration(q, d, m):
    # integer p and A >= 0 take the moment recursion at any d and memory
    rng = np.random.default_rng(100 * d + 10 * m + round(1.0 / (1.0 - q)))
    A = Potential(d=d, memory=m, values=rng.uniform(0.0, 1.5, d**m))
    x0 = (2, 1)[: m - 1]
    n_max = 12 if d == 2 else 7
    seq = log_frak_L_sequence(A, q, x0, n_max)
    for n in range(1, n_max + 1):
        brute = frak_L_n_enumerate(A, q, x0, n)
        assert math.exp(seq[n - 1]) == pytest.approx(brute, rel=1e-12)


@pytest.mark.parametrize(
    "d, m, q",
    [(2, 1, 0.5), (2, 2, 2.0 / 3.0), (3, 1, 0.75), (3, 2, 0.5)],
)
def test_moment_recursion_equals_bucket_dp_on_lattices(d, m, q):
    # lattice values sit on the bucket quantum, so the DP is exact up to rounding
    rng = np.random.default_rng(d + 10 * m)
    A = Potential(d=d, memory=m, values=rng.permutation(d**m) % 3 * 0.5)
    x0 = (2,)[: m - 1]
    np.testing.assert_allclose(
        log_frak_L_sequence(A, q, x0, 2000),
        _bucket_log_sequence(A, q, x0, 2000),
        rtol=1e-12,
        atol=0.0,
    )


def test_negative_potential_at_integer_p_takes_the_bucket_dp():
    # a negative value leaves the moment recursion's hypotheses: the DP runs
    # and refuses the buckets that leave the exp_q domain, as it always did
    A = Potential(d=2, memory=1, values=np.array([-0.1, 0.5]))
    seq = log_frak_L_sequence(A, 0.5, (), 19)
    np.testing.assert_array_equal(seq, _bucket_log_sequence(A, 0.5, (), 19))
    with pytest.raises(QExpDomainError):
        log_frak_L_sequence(A, 0.5, (), 40)


def test_moment_recursion_beyond_its_range_takes_the_bucket_dp():
    # P = 20 exceeds the moment order guard; at P = 16 a sum of 5000 * 1e20
    # would overflow the moments, and the DP's int64 guard refuses it
    np.testing.assert_array_equal(
        log_frak_L_sequence(A_01, 0.95, (), 50), _bucket_log_sequence(A_01, 0.95, (), 50)
    )
    with pytest.raises(SizeGuardError):
        log_frak_L_sequence(Potential(d=2, memory=1, values=[0.0, 1e20]), 15.0 / 16.0, (), 5000)


def test_bucket_count_guard_stops_a_generic_potential():
    # irregular values make the distinct sums grow far faster than n^2; at a
    # non-integer p the bucket DP's guard must raise long before n = 2000
    # exhausts memory, while at p = 2 the moment recursion returns
    A = Potential(d=3, memory=2, values=np.random.default_rng(3).uniform(0, 1.5, 9))
    assert np.all(np.isfinite(log_frak_L_sequence(A, 0.5, (2,), 2000)))
    t0 = time.perf_counter()
    with pytest.raises(SizeGuardError):
        asymptotic_pressure(A, 0.6, (2,), 2000)
    assert time.perf_counter() - t0 < 5.0


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
    res = variational_scan_subadd(A_CONST)
    assert res.value == pytest.approx(math.log(2.0), abs=1e-3)


def test_scan_two_level_potential():
    res = variational_scan_subadd(A_01)
    assert res.value == pytest.approx(math.log(2.0), abs=1e-3)
    # the uniform measure is feasible on three symbols too, and attains log 3
    A3 = Potential(d=3, memory=2, values=np.arange(9.0) - 3.0)
    res = variational_scan_subadd(A3)
    assert res.value == math.log(3.0)
    assert np.allclose(res.argmax.P, 1.0 / 3.0)
    assert ks_entropy(res.argmax) == pytest.approx(math.log(3.0), abs=1e-12)
    # a nonpositive uniform mean is refused
    with pytest.raises(QThermoError):
        variational_scan_subadd(Potential(d=2, memory=1, values=np.array([-1.0, 0.5])))


def test_scan_agrees_with_sequence_limit():
    A = Potential(d=2, memory=1, values=np.array([0.6, 1.3]))
    est, _ = asymptotic_pressure(A, 0.5, (), 800)
    res = variational_scan_subadd(A)
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
