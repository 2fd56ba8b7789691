"""Asymptotic pressure of the n-step deformed transfer sums.

The n-step operator applied to the constant function 1 at a base point x is

    L_n(1)(x) = sum over the d^n preimage words w of exp_q(S_n A(w x)),

with S_n the n-term Birkhoff sum.  ``log_frak_L_sequence`` evaluates it exactly for
n <= 5000.  When 0 < q < 1, p = 1/(1-q) is an integer P and min A >= 0, L_n = d^n E[Y^P]
over uniform words, Y = 1 + (1-q) S_n >= 1.  Prepending a to a word in context x adds
v = A(a.x) to S_n, so the moments M_i(x) = d^-n sum of Y^i over the words in context x,
i <= P, follow one linear map M' = L M at any d and memory: the entry of L from (x, i)
to (prefix_k(a.x), j) is C(j, i) ((1-q)v)^(j-i) / d.  On N = d^k (P+1) pairs (x, i) with
N^2 <= 200 n_max (N <= 632 at n_max = 2000, 8 MB at 5000), L is dense: 64 terms are one
product of M with the rows e_P^T L^b, b <= 64, and L^64 moves M on; larger N step n by n.
Otherwise, also for P > 16 or moments past the float range, ``SumBuckets`` (memory <= 2,
d <= 3) carries log path counts per distinct sum, quantized to 1e-9; lattice potentials
give polynomially many sums.  A bucket's S_n is off by at most n * 5e-10, and the counts
carry rounding of about 1e-16 relative per step.  ``frak_L_n`` is the sequence's last
term.  ``asymptotic_pressure`` fits the tail of (1/n) log L_n(1)(x0), and
``variational_scan_subadd`` gives the variational side in closed form: log d, attained
by the uniform Bernoulli measure.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import QExpDomainError, QThermoError, SizeGuardError
from .qfun import QParam, _log_exp_q, _logsumexp, exp_q
from .ruelle import MarkovMeasure, _context_tables, _guarded_context_length
from .shift import Potential, drop_last, prepend, word_index

_QUANTUM = 1e-9
# distinct sums stay polynomial in n on lattice-valued potentials but not on
# generic ones (a d = 3 memory-2 draw passes 2.6 million buckets by n = 40)
_BUCKET_GUARD = 2**20
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)
# the transform holds d^(k+1) (P+1)^2 floats
_MOMENT_ORDER_GUARD = 16
_BLOCK, _DENSE_WORK = 64, 200  # dense while N^2 <= 200 n_max: measured break-even N^2/550..N^2/250


def phi_n(A: Potential, q: QParam | float, w, tail):
    """log exp_q of the n-term Birkhoff sum along w extended by tail, n = len(w).

    w and tail are tuples, or (N, n) and (N, memory-1) integer arrays of
    words for the (N,) array of their values.  Raises ``qfun._log_exp_q``'s
    QExpDomainError when 1 + (1-q) S_n <= 0, which signals the
    sign-changing-potential regime where the deformed weight is undefined;
    its ``argument`` is the first such S_n.
    """
    qp = QParam.of(q)
    m = A.memory
    words, tail = np.atleast_2d(w), np.atleast_2d(tail)
    if tail.shape[1] < m - 1:
        raise ValueError(f"tail must supply at least memory-1 = {m - 1} symbols")
    out = np.zeros(len(words))  # S_0 = 0, and log exp_q(0) = 0
    if words.shape[1] > 0:
        # an empty tail may be a float array; memory 1 needs none
        out = A.birkhoff_sum(np.hstack((words, tail[:, : m - 1])) if m > 1 else words)
    out = _log_exp_q(out, qp.q)
    return float(out[0]) if np.ndim(w) == 1 else out


class SumBuckets:
    """Path counts per state and quantized Birkhoff sum, held as log-counts.

    ``state`` is the index of the leading memory-1 symbols of the grown word
    (0 for memory-1 potentials).  ``buckets[state]`` is the sorted ``int64``
    array of the distinct sums in units of the 1e-9 quantum and
    ``log_counts[state]`` the float64 log of the number of words at each sum,
    so no count overflows or underflows whatever n.  For table potentials the
    distinct sums form a lattice, so bucket counts stay polynomial in n while
    the total count is d^n.
    """

    def __init__(self, A: Potential, x0_prefix: tuple[int, ...]):
        if A.memory > 2 or A.d > 3:
            raise SizeGuardError("bucketed evaluation supports memory <= 2, d <= 3")
        if len(x0_prefix) < A.memory - 1:
            raise ValueError("x0_prefix shorter than memory - 1")
        self.A, self.d = A, A.d
        self.n = 0
        d, r = A.d, A.memory - 1
        # prepending a to a word in state j moves it to _dest[a-1, j] and adds _inc[a-1, j]
        words = prepend(np.arange(1, d + 1)[:, None], np.arange(d**r), d, r)
        self._dest = drop_last(words, d)
        quanta = np.rint(A.values[words] / _QUANTUM)
        self._inc_max = float(np.abs(quanta).max())
        # clipped so the cast is defined; step refuses increments this large
        self._inc = np.clip(quanta, -(2.0**62), 2.0**62).astype(np.int64)
        # before any step the only word is empty, sitting at sum zero
        state0 = word_index(x0_prefix[:r], d)
        self.buckets: dict[int, np.ndarray] = {state0: np.zeros(1, np.int64)}
        self.log_counts: dict[int, np.ndarray] = {state0: np.zeros(1)}

    def step(self) -> None:
        """Prepend one symbol to every counted word."""
        if (self.n + 1) * self._inc_max >= 2**62:
            raise SizeGuardError("quantized Birkhoff sums would overflow int64")
        if sum(len(keys) for keys in self.buckets.values()) > _BUCKET_GUARD:
            raise SizeGuardError(f"more than {_BUCKET_GUARD} distinct sums at n = {self.n}")
        parts: dict[int, tuple[list, list]] = {}
        for state, keys in self.buckets.items():
            lc = self.log_counts[state]
            for dest, inc in zip(self._dest[:, state].tolist(), self._inc[:, state]):
                ks, ls = parts.setdefault(dest, ([], []))
                ks.append(keys + inc)
                ls.append(lc)
        buckets, log_counts = {}, {}
        for dest, (ks, ls) in parts.items():
            keys, lc = np.concatenate(ks), np.concatenate(ls)
            order = np.argsort(keys, kind="stable")
            keys, lc = keys[order], lc[order]
            starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
            if len(starts) < len(keys):
                top = np.maximum.reduceat(lc, starts)
                sizes = np.diff(np.append(starts, len(keys)))
                lc = top + np.log(np.add.reduceat(np.exp(lc - np.repeat(top, sizes)), starts))
                keys = keys[starts]
            buckets[dest], log_counts[dest] = keys, lc
        self.n += 1
        self.buckets, self.log_counts = buckets, log_counts

    def _log_terms(self, q: QParam) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(log count + log exp_q(S_n), out-of-domain mask, log counts) per bucket."""
        s = np.concatenate(list(self.buckets.values())) * _QUANTUM
        lc = np.concatenate(list(self.log_counts.values()))
        if q.classical:
            return lc + s, np.zeros(len(s), dtype=bool), lc
        base = 1.0 + (1.0 - q.q) * s
        bad = base <= 0.0
        with np.errstate(invalid="ignore", divide="ignore"):
            lg = np.log(base) / (1.0 - q.q)
        return lc + lg, bad, lc

    def log_value(self, q: QParam) -> float:
        """log of sum(count * exp_q(sum)) over all buckets, in log space."""
        terms, bad, lc = self._log_terms(q)
        if bad.any():
            i = int(np.argmax(bad))
            s = float(np.concatenate(list(self.buckets.values()))[i] * _QUANTUM)
            raise QExpDomainError(
                f"bucket at S_n = {s} (log count {lc[i]:.6g}) outside exp_q domain",
                argument=s,
            )
        return _logsumexp(terms)

    def log_value_truncated(self, q: QParam) -> tuple[float, float]:
        """(log of the in-domain partial sum, count fraction dropped)."""
        terms, bad, lc = self._log_terms(q)
        if bad.all():
            raise QExpDomainError("all buckets outside exp_q domain", argument=None)
        if not bad.any():
            return _logsumexp(terms), 0.0
        dropped = math.exp(_logsumexp(lc[bad]) - _logsumexp(lc))
        return _logsumexp(terms[~bad]), dropped


def _moment_order(A: Potential, q: QParam, n_max: int) -> int | None:
    """P when the moment recursion serves (A, q) up to n_max, else None."""
    if q.classical or q.q >= 1.0 or float(np.min(A.values)) < 0.0:
        return None
    p = 1.0 / (1.0 - q.q)
    P = round(p)
    # every base is at most 1 + (1-q) n_max max A, so no moment passes its P-th power
    top = P * math.log1p((1.0 - q.q) * n_max * float(np.max(A.values)))
    ok = abs(p - P) <= 1e-9 * p and P <= _MOMENT_ORDER_GUARD and top < _LOG_FLOAT_MAX
    return P if ok else None


def _moment_log_sequence(
    A: Potential, q: QParam, P: int, x0_prefix: tuple[int, ...], n_max: int
) -> np.ndarray:
    """a_n = n log d + log sum_x M_P(x) for n = 1..n_max, by the binomial moment transform."""
    if len(x0_prefix) < A.memory - 1:
        raise ValueError("x0_prefix shorter than memory - 1")
    d, r, k = A.d, A.memory - 1, _guarded_context_length(A)
    _, pre_idx, A_vals = _context_tables(A, k)
    # T[x, a-1, j, i] = C(j, i) ((1-q) A(a.x))^(j-i) / d, zero above the diagonal
    j = np.arange(P + 1)
    binom = np.array([[math.comb(a, b) for b in j] for a in j], dtype=float)
    T = binom * ((1.0 - q.q) * A_vals[..., None, None]) ** np.maximum(j[:, None] - j, 0) / d
    M = np.zeros((d**k, P + 1))
    M[word_index(x0_prefix[:r], d) * d ** (k - r)] = 1.0
    N, B = M.size, min(_BLOCK, n_max)
    if N * N > _DENSE_WORK * n_max:
        out = np.empty(n_max)
        for n in range(n_max):
            moved = np.einsum("xaji,xi->xaj", T, M)
            M = np.zeros_like(M)
            np.add.at(M, pre_idx, moved)
            out[n] = M[:, P].sum()
        return np.arange(1, n_max + 1) * math.log(d) + np.log(out)
    # M_{n+1} = L M_n, L[(pre_idx[x, a-1], j), (x, i)] = T[x, a-1, j, i]; rows[b-1] = e_P^T L^b
    L = np.zeros((d**k, P + 1, d**k, P + 1))
    L[pre_idx.ravel(), :, np.repeat(np.arange(d**k), d)] = T.reshape(-1, P + 1, P + 1)
    L, rows, row = L.reshape(N, N), np.empty((B, N)), np.tile(j == P, d**k).astype(float)
    for b in range(B):
        rows[b] = row = row @ L
    power, starts = np.linalg.matrix_power(L, B) if n_max > B else None, [M.ravel()]
    while len(starts) * B < n_max:
        starts.append(power @ starts[-1])
    out = (np.stack(starts) @ rows.T).ravel()[:n_max]
    return np.arange(1, n_max + 1) * math.log(d) + np.log(out)


def frak_L_n(A: Potential, q: QParam | float, x0_prefix: tuple[int, ...], n: int) -> float:
    """The n-step operator sum at the base point: the last term of ``log_frak_L_sequence``."""
    return math.exp(log_frak_L_sequence(A, q, x0_prefix, n)[-1]) if n else 1.0


def frak_L_n_enumerate(
    A: Potential, q: QParam | float, x0_prefix: tuple[int, ...], n: int
) -> float:
    """Direct enumeration over all d^n preimage words (oracle for n <= 20)."""
    qp = QParam.of(q)
    if n > 20:
        raise SizeGuardError("direct enumeration capped at n = 20")
    if n == 0:
        return 1.0
    pad = np.array((tuple(x0_prefix) + (1,) * A.memory)[: A.memory - 1], dtype=np.int64)
    digits, terms = A.d ** np.arange(n - 1, -1, -1), []
    for start in range(0, A.d**n, 2**16):  # 2^16 words, with the base point's tail, at a time
        w = np.arange(start, min(start + 2**16, A.d**n))[:, None] // digits % A.d + 1
        terms.append(exp_q(A.birkhoff_sum(np.hstack((w, np.tile(pad, (len(w), 1))))), qp))
    return math.fsum(np.concatenate(terms))


def log_frak_L_sequence(
    A: Potential, q: QParam | float, x0_prefix: tuple[int, ...], n_max: int
) -> np.ndarray:
    """a_n = log L_n(1)(x0), n = 1..n_max <= 5000, by moments or buckets (module docstring)."""
    qp = QParam.of(q)
    if n_max < 0:
        raise ValueError(f"n_max = {n_max}: the sequence needs n_max >= 0")
    if n_max > 5000:
        raise SizeGuardError("n > 5000 exceeds the evaluation guard")
    P = _moment_order(A, qp, n_max)
    if P is not None:
        return _moment_log_sequence(A, qp, P, x0_prefix, n_max)
    sb = SumBuckets(A, x0_prefix)
    out = np.empty(n_max)
    for i in range(n_max):
        sb.step()
        out[i] = sb.log_value(qp)
    return out


def asymptotic_fit(
    A: Potential, q: QParam | float, x0_prefix: tuple[int, ...], n_max: int
) -> tuple[np.ndarray, list[tuple[int, float]]]:
    """Tail-fit coefficients of (1/n) log L_n(1)(x0), plus the sequence.

    Requires min A >= 0 (the regime where every bucket stays inside the
    exp_q domain for 0 < q < 1).  The tail n in [ceil(n_max/2), n_max], 4 points
    at least (n_max >= 6), is fitted by least squares against 1, (log n)/n and
    1/n; the coefficients come in that order, and the constant estimates the limit.
    The (log n)/n term is essential: the constant-potential closed form
    carries exactly that correction.  ValueError outside these domains.
    """
    if float(np.min(A.values)) < 0.0:
        raise ValueError("asymptotic pressure requires a nonnegative potential")
    if n_max < 6:
        raise ValueError(f"n_max = {n_max}: the tail fit needs n_max >= 6")
    a_n = log_frak_L_sequence(A, q, x0_prefix, n_max)
    ns = np.arange(1, n_max + 1)
    seq = a_n / ns
    lo = (n_max + 1) // 2
    tail_n = ns[lo - 1 :].astype(float)
    design = np.column_stack(
        [np.ones_like(tail_n), np.log(tail_n) / tail_n, 1.0 / tail_n]
    )
    coef, *_ = np.linalg.lstsq(design, seq[lo - 1 :], rcond=None)
    return coef, list(zip(ns.tolist(), seq.tolist()))


def asymptotic_pressure(
    A: Potential, q: QParam | float, x0_prefix: tuple[int, ...], n_max: int
) -> tuple[float, list[tuple[int, float]]]:
    """Tail-fit estimate of lim (1/n) log L_n(1)(x0), plus the sequence.

    The constant of ``asymptotic_fit``, under the same requirements.
    """
    coef, seq = asymptotic_fit(A, q, x0_prefix, n_max)
    return float(coef[0]), seq


class SubaddScan(NamedTuple):
    """The variational side of the asymptotic pressure and a measure attaining it."""

    value: float
    argmax: MarkovMeasure


def variational_scan_subadd(A: Potential) -> SubaddScan:
    """sup of h(nu) over invariant nu with int A dnu > 0, in closed form.

    Along any measure with positive mean potential the n-term deformed
    weights grow logarithmically, so their per-step limit vanishes and the
    variational sum reduces to the entropy alone.  The uniform Bernoulli
    measure has the largest entropy, log d; when the uniform mean of A's table
    is positive it is feasible and attains the sup.  It is returned as a
    memory-1 Markov measure.  QThermoError when that mean is not positive.
    """
    if not float(np.mean(A.values)) > 0.0:
        raise QThermoError("the uniform measure has nonpositive mean potential")
    u = np.full(A.d, 1.0 / A.d)
    return SubaddScan(math.log(A.d), MarkovMeasure(d=A.d, k=1, P=np.tile(u, (A.d, 1)), pi=u))
