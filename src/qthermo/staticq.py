"""Non-dynamical deformed entropies and the static pressure on probability vectors.

For a probability vector p the deformed entropy is

    H_q(p) = (sum_j p_j^q - 1) / (1 - q),

Shannon at q = 1, related to the Renyi entropy through
H^R_q = log(1 + (1-q) H_q)/(1-q) = log exp_q(H_q), QExpDomainError off its
domain.  The static pressure of a payoff vector a at inverse temperature beta
is sup_p { H_q(p) + beta <a, p> }.

``static_q_pressure`` returns the closed-form candidate

    p*_j = e_{2-q}(beta a_j) / sum_i e_{2-q}(beta a_i)

and the objective evaluated there.  Caution: for q != 1 this closed form does
NOT satisfy the Lagrange stationarity of the objective above (the multiplier
is pinned to 1/(1-q) instead of being solved from the normalization, and the
final rescaling is not a symmetry of the objective), so it generally sits
strictly below the true supremum.  ``true_static_equilibrium`` solves the
KKT conditions exactly through the cut-off root and ``static_q_pressure_scan``
maximizes by brute force; both agree with each other and exceed the closed
form whenever beta != 0, a is non-constant and q != 1.

Imports numpy only: the brute-force ``static_q_pressure_scan`` loads scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import QExpDomainError
from .qfun import CLASSICAL_Q_TOL, QParam, _exp_q_log1p_arg, _log_exp_q, _per_entry, _regularized_max


def _check_prob(p, rows: bool = False) -> np.ndarray:
    arr = np.asarray(p, dtype=float)
    if arr.ndim not in ((1, 2) if rows else (1,)) or arr.shape[-1] < 2:
        raise ValueError("probability vector must be 1-d with length >= 2")
    if not np.all(arr >= 0.0) or np.any(np.abs(arr.sum(axis=-1) - 1.0) > 1e-9):  # NaN too
        raise ValueError("entries must be nonnegative and sum to 1")
    return arr


def _row_qs(q, n: int) -> tuple[np.ndarray, np.ndarray]:
    """One q per row, each checked as QParam checks it, and the mask of Shannon rows."""
    qs = np.asarray(q.q if isinstance(q, QParam) else q, dtype=float).reshape(n)
    for bad in qs[~(np.isfinite(qs) & (qs > 0.0))][:1].tolist():
        QParam(bad)  # raises its ValueError
    return qs, np.abs(qs - 1.0) <= CLASSICAL_Q_TOL


def _power_sums(arr: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """sum_j p_j^q per row, bit for bit as ``(p ** q).sum()`` with the row's own q."""
    powers = arr ** qs[:, None]
    for e in (0.5, 2.0):  # ``**`` by these scalars is sqrt or a square, not pow
        powers[qs == e] = arr[qs == e] ** e
    return powers.sum(axis=1)


def _shannon(rows: np.ndarray) -> np.ndarray:
    """-sum p log p along the last axis, +0.0 for a degenerate p; a zero entry adds 0 log 1.

    Bit for bit the sum over the positive entries alone, except on a row with zeros
    and 8 or more entries, where numpy's pairwise sum can group them into another last bit.
    """
    return 0.0 - (rows * np.log(np.where(rows > 0.0, rows, 1.0))).sum(axis=-1)


def _entropy_rows(p, q, numerator) -> float | np.ndarray:
    """numerator(rows, qs)/(1-q) per row of p, Shannon at q = 1; one vector p is one row."""
    rows = np.atleast_2d(_check_prob(p, rows=True))
    qs, shannon = _row_qs(q, len(rows))
    out = numerator(rows, qs) / np.where(shannon, 1.0, 1.0 - qs)
    out[shannon] = _shannon(rows[shannon])
    return out if np.ndim(p) == 2 else float(out[0])


def q_entropy_vec(p, q: QParam | float) -> float | np.ndarray:
    """Deformed entropy (sum p^q - 1)/(1-q); Shannon at q = 1.

    Zero entries contribute 0 (the 0*log_q(1/0) = 0 convention).  Rows p
    (N, k) take q (N,); one vector p is the one-row case and gives a float.
    """
    return _entropy_rows(p, q, lambda rows, qs: _power_sums(rows, qs) - 1.0)


def renyi_entropy(p, q: QParam | float) -> float | np.ndarray:
    """Renyi entropy log(sum p^q)/(1-q); Shannon at q = 1; rows as ``q_entropy_vec``."""
    # math.log per row: numpy's SIMD log differs in the last bit
    return _entropy_rows(p, q, lambda rows, qs: _per_entry(math.log, _power_sums(rows, qs)))


def renyi_from_q_entropy(hq, q: QParam | float) -> float | np.ndarray:
    """The bridge F(x) = log(1 + (1-q)x)/(1-q) sending H_q to H^R_q; (N,) hq take (N,) q.

    F is log exp_q, so QExpDomainError off its domain; rows at q = 1 return x unchecked.
    """
    h = np.atleast_1d(np.asarray(hq, dtype=float))
    qs, shannon = _row_qs(q, len(h))
    out, deformed = h.copy(), ~shannon
    x = _exp_q_log1p_arg(h[deformed], qs[deformed])
    # math.log1p per entry: numpy's SIMD log1p differs in the last bit
    out[deformed] = _per_entry(math.log1p, x) / (1.0 - qs[deformed])
    return out if np.ndim(hq) else float(out[0])


def _objective(p: np.ndarray, a: np.ndarray, qp: QParam, beta: float) -> float:
    """H_q(p) + beta <a, p>; scalar, as the optimizers call it once per step."""
    h = float(_shannon(p)) if qp.classical else float(((p**qp.q).sum() - 1.0) / (1.0 - qp.q))
    return h + beta * float(a @ p)


@dataclass
class StaticEquilibrium:
    """The objective H_q(p) + beta <a, p> as ``pressure``, at p = ``p_star``."""

    pressure: float
    p_star: np.ndarray


def static_q_pressure(payoff, beta: float, q: QParam | float) -> StaticEquilibrium:
    """Closed-form static equilibrium p* ~ e_{2-q}(beta a_j), normalized.

    Requires every beta*a_j in the e_{2-q} domain (1 + (q-1) beta a_j > 0).
    Returns the objective H_q(p*) + beta <a, p*> as the pressure field; see
    the module docstring for how this relates to the true supremum.  p* is
    normalized from the log-weights, so a large beta*a does not overflow.
    """
    qp = QParam.of(q)
    a = np.asarray(payoff, dtype=float)
    if a.ndim != 1 or a.size < 2:
        raise ValueError("payoff must be a 1-d vector with length >= 2")
    log_w = _log_exp_q(beta * a, qp.dual.q)
    weights = np.exp(log_w - log_w.max())
    p = weights / weights.sum()
    return StaticEquilibrium(_objective(p, a, qp, beta), p)


def true_static_equilibrium(payoff, beta: float, q: QParam | float) -> StaticEquilibrium:
    """Exact maximizer of H_q(p) + beta <a, p>: ``qfun._regularized_max`` of the row beta*a.

    At q > 1 it can lie on the boundary of the simplex, some p_j = 0.
    """
    qp = QParam.of(q)
    a = np.asarray(payoff, dtype=float)
    p = _regularized_max(beta * a[None, :], qp.q)[0][0]
    return StaticEquilibrium(_objective(p, a, qp, beta), p)


def stationarity_defect(p, payoff, beta: float, q: QParam | float) -> float:
    """Spread of the Lagrange gradient beta a_j + q/(1-q) p_j^(q-1) across j."""
    arr = _check_prob(p)
    q = QParam.of(q).q
    a = np.asarray(payoff, dtype=float)
    grad = beta * a + q / (1.0 - q) * arr ** (q - 1.0)
    return float(np.max(grad) - np.min(grad))


def static_q_pressure_scan(
    payoff, beta: float, q: QParam | float, grid_n: int = 2000
) -> StaticEquilibrium:
    """Brute-force maximum of H_q(p) + beta <a, p> on a simplex grid (d=2,3).

    Barycentric stride 1/grid_n, then one coordinate-wise golden-section pass
    around the best grid point.
    """
    from scipy.optimize import minimize_scalar  # brute-force oracle only: off the import path

    qp = QParam.of(q)
    a = np.asarray(payoff, dtype=float)
    d = a.size
    if grid_n < 100:
        raise ValueError("grid_n must be >= 100")
    if d == 2:
        t = np.arange(1, grid_n) / grid_n
        pts = np.stack([t, 1.0 - t], axis=1)
    elif d == 3:
        side = max(2, int(round(math.sqrt(grid_n))))
        u = np.arange(1, side) / side
        g1, g2 = np.meshgrid(u, u)
        keep = g1 + g2 < 1.0
        pts = np.stack([g1[keep], g2[keep], 1.0 - g1[keep] - g2[keep]], axis=1)
    else:
        raise ValueError("scan supports d = 2 or 3 only")

    vals = q_entropy_vec(pts, np.full(len(pts), qp.q)) + beta * pts @ a
    best = pts[int(np.argmax(vals))].copy()

    # golden-section in each free coordinate around the best point
    for axis in range(d - 1):
        rest = best.sum() - best[axis] - best[-1]

        def f(t):
            p = best.copy()
            p[axis] = t
            p[-1] = 1.0 - rest - t
            if p[-1] <= 0.0 or t <= 0.0:
                return math.inf
            return -_objective(p, a, qp, beta)

        lo = max(1e-12, best[axis] - 2.0 / grid_n)
        hi = min(1.0 - rest - 1e-12, best[axis] + 2.0 / grid_n)
        res = minimize_scalar(f, bracket=None, bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-13})
        if -res.fun > _objective(best, a, qp, beta):
            best[axis] = res.x
            best[-1] = 1.0 - rest - res.x
    return StaticEquilibrium(_objective(best, a, qp, beta), best)


def beta_sweep(payoff, q: QParam | float, betas) -> list[tuple[float, float | None]]:
    """(beta, pressure) curve from the closed form; inadmissible beta -> None."""
    qp = QParam.of(q)
    a = np.asarray(payoff, dtype=float)
    out: list[tuple[float, float | None]] = []
    for b in betas:
        try:
            out.append((float(b), static_q_pressure(a, float(b), qp).pressure))
        except QExpDomainError:
            out.append((float(b), None))
    return out


def meson_vericat_bernoulli(p, q: QParam | float) -> float:
    """Block growth rate (1/n) log sum_{|w|=n} mu(w)^q of a Bernoulli measure.

    Cylinder masses factorize, so the block sum is (sum_i p_i^q)^n and the
    rate is the closed form log(sum_i p_i^q) at every n, returned as such.
    """
    arr = _check_prob(p)
    q = QParam.of(q).q
    if not 0.0 < q < 1.0:
        raise ValueError("requires 0 < q < 1")
    return float(math.log((arr**q).sum()))


def loloi_closed_form(a1: float, a2: float, b: float) -> tuple[float, float]:
    """q = 1/2 closed form for the static equilibrium components.

    (A variant with (a2 b - b)^2 in the numerator does not normalize; the
    form consistent with the general e_{2-q} expression is (2 - a2 b)^2,
    used here.)
    """
    den = 8.0 - 4.0 * a1 * b - 4.0 * a2 * b + a1**2 * b**2 + a2**2 * b**2
    return (2.0 - a2 * b) ** 2 / den, (2.0 - a1 * b) ** 2 / den
