"""Asymptotic pressure of the n-step deformed transfer sums.

The n-step operator applied to the constant function 1 at a base point x is

    L_n(1)(x) = sum over the d^n preimage words w of exp_q(S_n A(w x)),

with S_n the n-term Birkhoff sum.  Because A is locally constant, the d^n
sums take polynomially many distinct values; ``SumBuckets`` carries float64
log path counts per distinct sum, quantized to 1e-9, so that L_n is
evaluated for n in the thousands without overflow or underflow.  Each
window's value is rounded to that quantum, so a bucket's S_n is off by at
most n * 5e-10 (nothing for values on the quantum), and the counts carry
float rounding of about 1e-16 relative per step.  The growth exponent
(1/n) log L_n(1)(x0) converges; ``asymptotic_pressure`` estimates the limit
with a tail fit, and ``variational_scan_subadd`` realizes the variational
side over memory-1 Markov measures.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import QExpDomainError, QLogDomainError, QThermoError, SizeGuardError
from .qfun import QParam, exp_q
from .ruelle import MarkovMeasure
from .shift import Potential, all_words
from .variational import BinaryChart, _measure_from_params

_QUANTUM = 1e-9


def _logsumexp(x: np.ndarray) -> float:
    """log(sum(exp(x))) for finite x, shifted by the maximum."""
    m = x.max()
    return float(m + np.log(np.exp(x - m).sum()))


def phi_n(A: Potential, q: QParam | float, w: tuple[int, ...], tail: tuple[int, ...]) -> float:
    """log exp_q of the n-term Birkhoff sum along w extended by tail, n = len(w).

    Raises QLogDomainError when 1 + (1-q) S_n <= 0, which signals the
    sign-changing-potential regime where the deformed weight is undefined.
    """
    qp = QParam.of(q)
    m = A.memory
    if len(tail) < m - 1:
        raise ValueError(f"tail must supply at least memory-1 = {m - 1} symbols")
    n = len(w)
    if n == 0:
        return 0.0
    s = A.birkhoff_sum((w + tail)[: n + m - 1])
    if qp.classical:
        return s
    base = 1.0 + (1.0 - qp.q) * s
    if base <= 0.0:
        raise QLogDomainError(f"1 + (1-q) S_n = {base} <= 0 along {w}")
    return math.log(base) / (1.0 - qp.q)


class SumBuckets:
    """Path counts per state and quantized Birkhoff sum, held as log-counts.

    ``state`` is the leading memory-1 symbols of the grown word (empty for
    memory-1 potentials).  ``buckets[state]`` is the sorted ``int64`` array of
    the distinct sums in units of the 1e-9 quantum and ``log_counts[state]``
    the float64 log of the number of words at each sum, so no count
    overflows or underflows whatever n.  For table potentials the distinct
    sums form a lattice, so bucket counts stay polynomial in n while the total
    count is d^n.
    """

    def __init__(self, A: Potential, x0_prefix: tuple[int, ...]):
        if len(x0_prefix) < A.memory - 1:
            raise ValueError("x0_prefix shorter than memory - 1")
        self.A, self.d = A, A.d
        self.n = 0
        m = A.memory
        # prepending a to a word in ``state`` moves it to ``dest`` and adds inc
        self._moves = {
            state: [
                (((a,) + state)[: m - 1], self._key(A.value((a,) + state)))
                for a in range(1, A.d + 1)
            ]
            for state in all_words(A.d, m - 1)
        }
        self._inc_max = max(abs(inc) for moves in self._moves.values() for _, inc in moves)
        # before any step the only word is empty, sitting at sum zero
        state0 = tuple(x0_prefix[: m - 1])
        if state0 not in self._moves:
            raise ValueError(f"x0_prefix symbols outside 1..{A.d}: {state0}")
        self.buckets: dict[tuple[int, ...], np.ndarray] = {state0: np.zeros(1, np.int64)}
        self.log_counts: dict[tuple[int, ...], np.ndarray] = {state0: np.zeros(1)}

    @staticmethod
    def _key(s: float) -> int:
        return round(s / _QUANTUM)

    def step(self) -> None:
        """Prepend one symbol to every counted word."""
        if (self.n + 1) * self._inc_max >= 2**62:
            raise SizeGuardError("quantized Birkhoff sums would overflow int64")
        parts: dict[tuple[int, ...], tuple[list, list]] = {}
        for state, keys in self.buckets.items():
            lc = self.log_counts[state]
            for dest, inc in self._moves[state]:
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

    def total_count(self) -> int:
        """Number of counted words, d^n, summed from the log-counts.

        Exact while d^n stays below about 2^47 (binomial and trinomial
        counts at d = 2, 3); beyond that the float counts round.
        """
        return round(math.fsum(np.exp(np.concatenate(list(self.log_counts.values())))))

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


def _check_bucket_sizes(A: Potential, n: int) -> None:
    if A.memory > 2 or A.d > 3:
        raise SizeGuardError("bucketed evaluation supports memory <= 2, d <= 3")
    if n > 5000:
        raise SizeGuardError("n > 5000 exceeds the bucketed-evaluation guard")


def frak_L_n(A: Potential, q: QParam | float, x0_prefix: tuple[int, ...], n: int) -> float:
    """The n-step operator sum at the base point, via buckets (sums on the 1e-9 quantum)."""
    qp = QParam.of(q)
    _check_bucket_sizes(A, n)
    if n == 0:
        return 1.0
    sb = SumBuckets(A, x0_prefix)
    for _ in range(n):
        sb.step()
    return math.exp(sb.log_value(qp))


def frak_L_n_enumerate(
    A: Potential, q: QParam | float, x0_prefix: tuple[int, ...], n: int
) -> float:
    """Direct enumeration over all d^n preimage words (oracle for n <= 20)."""
    qp = QParam.of(q)
    if n > 20:
        raise SizeGuardError("direct enumeration capped at n = 20")
    if n == 0:
        return 1.0
    m = A.memory
    pad = tuple(x0_prefix) + (1,) * max(0, m - 1 - len(x0_prefix))
    total = 0.0
    for w in all_words(A.d, n):
        s = A.birkhoff_sum((w + pad)[: n + m - 1])
        total += float(exp_q(s, qp))
    return total


def log_frak_L_sequence(
    A: Potential, q: QParam | float, x0_prefix: tuple[int, ...], n_max: int
) -> np.ndarray:
    """a_n = log L_n(1)(x0) for n = 1..n_max in one incremental DP pass."""
    qp = QParam.of(q)
    _check_bucket_sizes(A, n_max)
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
    exp_q domain for 0 < q < 1).  The tail n in [n_max/2, n_max] is fitted
    by least squares against 1, (log n)/n and 1/n; the coefficients come in
    that order, and the constant estimates the limit.  The (log n)/n term
    is essential: the constant-potential closed form carries exactly that
    correction.
    """
    if float(np.min(A.values)) < 0.0:
        raise ValueError("asymptotic pressure requires a nonnegative potential")
    a_n = log_frak_L_sequence(A, q, x0_prefix, n_max)
    ns = np.arange(1, n_max + 1)
    seq = a_n / ns
    lo = n_max // 2
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
    """Result of the variational scan for the asymptotic pressure."""

    value: float
    argmax: MarkovMeasure
    excluded_fraction: float


def variational_scan_subadd(A: Potential, q: QParam | float, grid_n: int) -> SubaddScan:
    """max of h(nu) over memory-1 Markov nu with int A dnu > 0 (else excluded).

    Along any measure with positive mean potential the n-term deformed
    weights grow logarithmically, so their per-step limit vanishes and the
    variational sum reduces to the entropy alone; measures with
    nonpositive mean are excluded rather than assigned minus infinity.
    """
    if A.d != 2:
        raise SizeGuardError("the scan is implemented for d = 2")
    chart = BinaryChart.grid(grid_n)

    def hb(x):
        return -(x * np.log(x) + (1.0 - x) * np.log1p(-x))

    h = chart.pi1 * hb(chart.p) + chart.pi2 * hb(chart.r)
    mean_A = chart.integral(A)
    feasible = mean_A > 0.0
    if not np.any(feasible):
        raise QThermoError("no grid measure has positive mean potential")
    h_masked = np.where(feasible, h, -np.inf)
    flat = int(np.argmax(h_masked))
    i, j = np.unravel_index(flat, h.shape)
    return SubaddScan(
        value=float(h[i, j]),
        argmax=_measure_from_params(chart.t[[i, j]]),
        excluded_fraction=float(1.0 - feasible.mean()),
    )
