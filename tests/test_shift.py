import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qthermo.shift import (
    Potential,
    all_words,
    drop_first,
    drop_last,
    index_word,
    prefix_index,
    prepend,
    preimage_words,
    word_distance,
    word_index,
)


def test_all_words_counts_and_order():
    words = all_words(2, 3)
    assert len(words) == 8
    assert words == sorted(words)
    assert words[0] == (1, 1, 1)
    assert words[-1] == (2, 2, 2)


def test_all_words_empty():
    assert all_words(3, 0) == [()]


@given(st.integers(2, 4), st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_word_index_roundtrip(d, n):
    for idx in range(min(d**n, 40)):
        w = index_word(idx, d, n)
        assert word_index(w, d) == idx


def test_word_index_first_symbol_most_significant():
    assert word_index((1, 1), 2) == 0
    assert word_index((1, 2), 2) == 1
    assert word_index((2, 1), 2) == 2
    assert word_index((2, 2), 2) == 3


def test_word_distance():
    assert word_distance((1, 2, 1), (1, 2, 1)) == 0.0
    assert word_distance((1, 2, 1), (2, 2, 1)) == 1.0  # differ at index 0
    assert word_distance((1, 2, 1), (1, 1, 1)) == 0.5
    assert word_distance((1, 2, 1), (1, 2, 2)) == 0.25


def test_potential_value_uses_prefix():
    A = Potential(d=2, memory=2, values=np.array([10.0, 20.0, 30.0, 40.0]))
    assert A.value((1, 2)) == 20.0
    assert A.value((1, 2, 1, 1, 2)) == 20.0  # longer words read only the prefix
    assert A.value((2, 1)) == 30.0


def test_potential_value_short_word_raises():
    A = Potential(d=2, memory=2, values=np.arange(4.0))
    with pytest.raises(ValueError):
        A.value((1,))


def test_birkhoff_sum_window_count():
    A = Potential(d=2, memory=2, values=np.array([1.0, 2.0, 3.0, 4.0]))
    # words of length L carry L-m+1 windows
    w = (1, 2, 2, 1)
    expected = A.value((1, 2)) + A.value((2, 2)) + A.value((2, 1))
    assert A.birkhoff_sum(w) == expected


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_birkhoff_sum_equals_window_sum_exactly(d, m):
    # the rolling window index must add the same values in the same order
    rng = np.random.default_rng(10 * d + m)
    A = Potential(d=d, memory=m, values=rng.normal(0.0, 1.0, d**m))
    for _ in range(200):
        length = int(rng.integers(m, m + 25))
        w_np = tuple(rng.integers(1, d + 1, length))
        for w in (w_np, tuple(int(s) for s in w_np)):
            direct = sum(A.value(w[i : i + m]) for i in range(length - m + 1))
            assert A.birkhoff_sum(w) == direct


@pytest.mark.parametrize("m", [1, 2, 3])
def test_birkhoff_sum_rejects_bad_symbol_in_later_window(m):
    A = Potential(d=2, memory=m, values=np.arange(2.0**m))
    good = (1, 2) * m
    for bad in (0, 3, np.int64(3)):
        with pytest.raises(ValueError):
            A.birkhoff_sum(good + (bad,) + good)
        with pytest.raises(ValueError):
            A.birkhoff_sum(good + (bad,))


def test_birkhoff_memory1_is_plain_sum():
    A = Potential(d=2, memory=1, values=np.array([0.25, -1.5]))
    w = (1, 2, 2, 1, 2)
    assert A.birkhoff_sum(w) == pytest.approx(0.25 - 1.5 - 1.5 + 0.25 - 1.5)


def test_birkhoff_table_matches_direct():
    A = Potential(d=2, memory=2, values=np.array([0.3, -0.2, 1.1, 0.05]))
    n = 5  # table rows are words of length n + memory - 1 carrying n windows
    table = A.birkhoff_table(n)
    words = all_words(2, n + A.memory - 1)
    assert table.shape == (len(words),)
    for idx, w in enumerate(words):
        assert table[idx] == pytest.approx(A.birkhoff_sum(w), abs=1e-14)


def test_memory1_preimage_partition_function():
    # sum over n-words of e^{S_n A} factorizes for memory-1 potentials
    a = np.array([0.4, -0.7])
    A = Potential(d=2, memory=1, values=a)
    n = 8
    total = sum(math.exp(A.birkhoff_sum(w)) for w in all_words(2, n))
    assert total == pytest.approx(np.exp(a).sum() ** n, rel=1e-12)


def test_preimage_words_exhaustive():
    # iterating the one-step preimage map n times enumerates all d^n
    # extensions, duplicate-free
    for n in (1, 2, 3, 6):
        level = [(1, 2)]
        for _ in range(n):
            level = [p for w in level for p in preimage_words(w, 2)]
        assert len(level) == 2**n
        assert len(set(level)) == 2**n
        brute = {w + (1, 2) for w in itertools.product((1, 2), repeat=n)}
        assert set(level) == brute


def test_lipschitz_bound_on_sampled_pairs():
    rng = np.random.default_rng(0)
    for m in (1, 2, 3):
        vals = rng.normal(0.0, 1.0, 2**m)
        A = Potential(d=2, memory=m, values=vals)
        bound = (vals.max() - vals.min()) * 2 ** (m - 1)
        for _ in range(500):
            x = tuple(rng.integers(1, 3, m + 2))
            y = tuple(rng.integers(1, 3, m + 2))
            if x[:m] == y[:m]:
                continue
            ratio = abs(A.value(x) - A.value(y)) / word_distance(x, y)
            assert ratio <= bound + 1e-12


def test_json_roundtrip():
    A = Potential(d=2, memory=2, values=np.array([0.0, 2.0, 3.5, 0.0]))
    B = Potential.from_json(A.to_json())
    assert B.d == A.d and B.memory == A.memory
    assert np.array_equal(B.values, A.values)


def test_json_named_values():
    text = '{"d": 2, "memory": 2, "values_named": {"11": 0.0, "12": 2.0, "21": 3.5, "22": 0.0}}'
    A = Potential.from_json(text)
    assert A.value((1, 2)) == 2.0
    assert A.value((2, 1)) == 3.5


def test_constant_potential():
    A = Potential.constant(3, 1.25)
    assert A.memory == 1
    assert np.all(A.values == 1.25)
    assert A.birkhoff_sum((1, 2, 3)) == pytest.approx(3.75)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_index_helpers_match_tuple_operations(d, r):
    idx = np.arange(d**r)
    words = all_words(d, r)
    if r > 1:
        assert drop_last(idx, d).tolist() == [word_index(w[:-1], d) for w in words]
        assert drop_first(idx, d, r).tolist() == [word_index(w[1:], d) for w in words]
    for m in range(1, r + 1):
        assert prefix_index(idx, d, r, m).tolist() == [word_index(w[:m], d) for w in words]
    for a in range(1, d + 1):
        assert prepend(a, idx, d, r).tolist() == [word_index((a, *w), d) for w in words]
    # scalar indices work the same way
    assert prefix_index(d**r - 1, d, r, 1) == d - 1
    with pytest.raises(ValueError):
        prefix_index(0, d, r, r + 1)


def test_birkhoff_table_needs_a_window():
    with pytest.raises(ValueError):
        Potential(d=2, memory=2, values=np.zeros(4)).birkhoff_table(0)
