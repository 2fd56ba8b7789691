"""q-deformed exponential/logarithm pair and the identity self-test battery.

The deformed pair is

    exp_q(u) = (1 + (1-q)u)^(1/(1-q))      on 1 + (1-q)u > 0,
    log_q(u) = (u^(1-q) - 1) / (1-q)       on u > 0,

with the classical exp/log recovered continuously as q -> 1.  Both are
evaluated in the numerically stable log1p/expm1 form; the crossover to the
classical branch happens at |q - 1| <= CLASSICAL_Q_TOL so that callers never
hit the 0/0 form.

``identity_suite`` checks the algebraic identities satisfied by the pair
(duality, pseudo-additivity, escort inversions, Taylor expansions, derivative
formulas, entropy-ordering inequalities) at seeded random admissible points
and reports the worst violation per identity.  Two identities whose fixed
constants are only coherent at isolated q are evaluated but flagged, i.e.
excluded from any pass/fail gate; see the notes on their entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonConvergenceError, QExpDomainError, QLogDomainError

#: |q - 1| at or below this switches to the classical exp/log branch.
CLASSICAL_Q_TOL = 1e-8


@dataclass(frozen=True)
class QParam:
    """Validated deformation parameter.

    q must be positive; q == 1 (within CLASSICAL_Q_TOL) selects the
    classical branch rather than dividing by 1-q.
    """

    q: float

    def __post_init__(self):
        q = float(self.q)
        if not math.isfinite(q) or q <= 0.0:
            raise ValueError(f"deformation parameter must be finite and > 0, got {self.q!r}")
        object.__setattr__(self, "q", q)

    @classmethod
    def of(cls, q: "QParam | float") -> "QParam":
        """q itself when it already is a QParam, else QParam(float(q))."""
        return q if isinstance(q, QParam) else cls(float(q))

    @property
    def classical(self) -> bool:
        return abs(self.q - 1.0) <= CLASSICAL_Q_TOL

    @property
    def dual(self) -> "QParam":
        """The 2-q parameter appearing in the deformed transfer equation."""
        return QParam(2.0 - self.q)


def log_q(u, q):
    """Deformed logarithm (u^(1-q) - 1)/(1-q); natural log at q = 1.

    Accepts scalars or arrays; raises QLogDomainError off u > 0.
    """
    qp = QParam.of(q)
    arr = np.asarray(u, dtype=float)
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        bad = arr[~(arr > 0.0) | ~np.isfinite(arr)]
        raise QLogDomainError(f"log_q requires u > 0, got {bad.ravel()[:4]}")
    if qp.classical:
        out = np.log(arr)
    else:
        out = np.expm1((1.0 - qp.q) * np.log(arr)) / (1.0 - qp.q)
    return out if isinstance(u, np.ndarray) else float(out)


def exp_q(u, q):
    """Deformed exponential (1 + (1-q)u)^(1/(1-q)); exp at q = 1.

    Strict domain: raises QExpDomainError unless 1 + (1-q)u > 0 everywhere.
    """
    qp = QParam.of(q)
    arr = np.asarray(u, dtype=float)
    if qp.classical:
        out = np.exp(arr)
        return out if isinstance(u, np.ndarray) else float(out)
    base = 1.0 + (1.0 - qp.q) * arr
    if np.any(base <= 0.0) or not np.all(np.isfinite(base)):
        bad = arr[(base <= 0.0) | ~np.isfinite(base)]
        raise QExpDomainError(
            f"exp_q domain violated: 1+(1-q)u <= 0 at q={qp.q}, u={bad.ravel()[:4]}",
            argument=float(bad.ravel()[0]),
        )
    out = np.exp(np.log1p((1.0 - qp.q) * arr) / (1.0 - qp.q))
    return out if isinstance(u, np.ndarray) else float(out)


def dexp_q(u, q):
    """Derivative of exp_q: d/du exp_q(u) = exp_q(u)^q."""
    qp = QParam.of(q)
    val = exp_q(u, qp)
    out = np.asarray(val, dtype=float) ** qp.q
    return out if isinstance(u, np.ndarray) else float(out)


def dlog_q(u, q):
    """Derivative of log_q: d/du log_q(u) = u^(-q)."""
    qp = QParam.of(q)
    arr = np.asarray(u, dtype=float)
    if np.any(arr <= 0.0):
        raise QLogDomainError("dlog_q requires u > 0")
    out = arr ** (-qp.q)
    return out if isinstance(u, np.ndarray) else float(out)


# ---------------------------------------------------------------------------
# Extension used by the deformed-equation solver.
#
# When 1/(1-q) is an even positive integer (q = 1/2, 3/4, ...) the map
# u -> (1+(1-q)u)^(1/(1-q)) is a globally defined even power, nonnegative on
# all of R.  Solutions of the deformed transfer equation routinely live where
# some bases 1+(1-q)u are negative while every summand value stays positive;
# the solver therefore evaluates through this extension and records whether
# each base was strictly positive.  The public exp_q above stays strict.
# ---------------------------------------------------------------------------

def even_power_order(q, tol: float = 1e-9):
    """Return N when 1/(1-q) is an even positive integer N (else None)."""
    qp = QParam.of(q)
    if qp.classical or qp.q >= 1.0:
        return None
    n = 1.0 / (1.0 - qp.q)
    rounded = round(n)
    if rounded >= 2 and rounded % 2 == 0 and abs(n - rounded) <= tol * max(1.0, n):
        return int(rounded)
    return None


def exp_q_extended(u, q):
    """exp_q through the global even-power extension when available.

    Falls back to the strict exp_q otherwise.  Returns an array.
    """
    n = even_power_order(q)
    arr = np.asarray(u, dtype=float)
    if n is None:
        return np.asarray(exp_q(arr, q), dtype=float)
    base = 1.0 + arr / n
    return base ** n


def dexp_q_extended(u, q):
    """Derivative matching exp_q_extended (sign-carrying odd power)."""
    n = even_power_order(q)
    arr = np.asarray(u, dtype=float)
    if n is None:
        return np.asarray(dexp_q(arr, q), dtype=float)
    base = 1.0 + arr / n
    return base ** (n - 1)


def exp_q_base(u, q):
    """The affine base 1 + (1-q)u whose positivity defines the strict domain."""
    qp = QParam.of(q)
    return 1.0 + (1.0 - qp.q) * np.asarray(u, dtype=float)


def _cutoff_root(v: np.ndarray, qt: float) -> np.ndarray:
    """The t, per row of v (n, d), with sum_a E(v_a - t) = 1, E(u) = max(1 + (1-qt)u, 0)^(1/(1-qt)).

    At qt = 1 (CLASSICAL_Q_TOL) t is the log-sum-exp.  The sum falls in t from
    >= 1 at t = max v.  For qt > 0 it is convex, so Newton from max v climbs
    monotonically until no step exceeds 1e-15*max(1, |t|) or, at roundoff,
    the sum stops falling; within 1e-2 of qt = 1 the sum is taken in log1p
    form, as the power 1/(1-qt) amplifies the base's rounding.  For qt <= 0
    t is bisected in [max v, max v - log_qt(1/d)], where each summand ends <= 1/d.
    """
    t = v.max(axis=1)
    if abs(qt - 1.0) <= CLASSICAL_Q_TOL:
        return t + np.log(np.exp(v - t[:, None]).sum(axis=1))
    if qt > 0.0:
        power = even_power_order(qt) or 1.0 / (1.0 - qt)
        F_prev = np.inf
        while True:
            y = (1.0 - qt) * (v - t[:, None])
            base = np.maximum(1.0 + y, 0.0)
            dE = base ** (power - 1)  # minus the t-derivative of each summand
            if abs(1.0 - qt) < 1e-2:
                with np.errstate(divide="ignore"):  # log1p(-1) = -inf: a cut-off summand
                    F = np.exp(power * np.log1p(np.maximum(y, -1.0))).sum(axis=1) - 1.0
            else:
                F = (base * dE).sum(axis=1) - 1.0
            step = F / dE.sum(axis=1)
            t = t + step
            if not ((step > 1e-15 * np.maximum(1.0, np.abs(t))) & (F < F_prev)).any():
                return t
            F_prev = F
    power = 1.0 / (1.0 - qt)
    lo, hi = t, t + (1.0 - v.shape[1] ** (qt - 1.0)) * power
    while True:
        mid = 0.5 * (lo + hi)
        if np.all((mid == lo) | (mid == hi) | (hi - lo <= 1e-16)):
            return mid
        F = (np.maximum(1.0 + (1.0 - qt) * (v - mid[:, None]), 0.0) ** power).sum(axis=1)
        lo, hi = np.where(F > 1.0, mid, lo), np.where(F > 1.0, hi, mid)


def _regularized_max(v: np.ndarray, q: float) -> tuple[np.ndarray, np.ndarray]:
    """(p, S) per row of v (n, d): p maximizes <p, v> + H_q(p) over the simplex, S is the max.

    With u = (v - 1)/q and t the cut-off root of u at qt = 2 - q, the KKT
    solution is p_a = E_(2-q)(u_a - t), sparse at q > 1.  S is the objective
    at p renormalized, so an error in t enters it only to second order.
    """
    u = (v - 1.0) / q
    t = _cutoff_root(u, 2.0 - q)
    if abs(q - 1.0) <= CLASSICAL_Q_TOL:
        p = np.exp(u - t[:, None])
    else:
        with np.errstate(divide="ignore"):  # log1p(-1) = -inf: a cut-off entry
            p = np.exp(np.log1p(np.maximum((q - 1.0) * (u - t[:, None]), -1.0)) / (q - 1.0))
    p = p / p.sum(axis=1, keepdims=True)  # the floor keeps 1/p finite where p vanishes
    return p, (p * (v + log_q(1.0 / np.maximum(p, 1e-300), q))).sum(axis=1)


def _relative_value_iteration(T, n: int):
    """Damped relative value iteration for a map T that is monotone and commutes with constants.

    Yields (h, lo, hi), lo = min(Th - h) <= c <= hi = max(Th - h) for c in
    T(h*) = h* + c, then moves h <- (h + Th)/2, h[0] = 0; NonConvergenceError at 5,000.
    """
    h = np.zeros(n)
    for _ in range(5000):
        gap = T(h) - h
        yield h, float(gap.min()), float(gap.max())
        h = h + 0.5 * gap
        h -= h[0]
    raise NonConvergenceError("relative value iteration did not close its bracket")


# ---------------------------------------------------------------------------
# Identity self-test battery
# ---------------------------------------------------------------------------

def _exp_q_raw(u, q):
    # unchecked evaluation used inside the suite where the deformation index
    # produced by an identity (e.g. 1-(1-q)/a) may leave the validated range
    base = 1.0 + (1.0 - q) * u
    return np.where(base > 0.0, base ** (1.0 / (1.0 - q)), np.nan)


def _log_q_raw(u, q):
    return (u ** (1.0 - q) - 1.0) / (1.0 - q)


def _rel_violation(lhs, rhs):
    scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    return np.abs(lhs - rhs) / scale


@dataclass
class IdentityStat:
    name: str
    points: int
    max_violation: float
    flagged: bool = False
    note: str = ""


@dataclass
class IdentityReport:
    seed: int
    samples: int
    stats: list[IdentityStat] = field(default_factory=list)

    def gated(self) -> list[IdentityStat]:
        return [s for s in self.stats if not s.flagged]

    @property
    def worst_gated(self) -> float:
        return max((s.max_violation for s in self.gated()), default=0.0)

    def passed(self, tol: float = 1e-9) -> bool:
        return self.worst_gated <= tol

    def as_rows(self):
        return [
            {
                "identity": s.name,
                "points": s.points,
                "max_violation": s.max_violation,
                "flagged": s.flagged,
                "note": s.note,
            }
            for s in self.stats
        ]


def _draw_q(rng, size):
    # away from q=1 so the deformed branch is actually exercised, and away
    # from 0/2 so dual parameters stay usable
    lo = rng.uniform(0.08, 0.92, size=size)
    hi = rng.uniform(1.08, 1.85, size=size)
    pick = rng.random(size) < 0.5
    return np.where(pick, lo, hi)


def identity_suite(samples: int = 10_000, seed: int = 0) -> IdentityReport:
    """Evaluate the deformed-calculus identity battery at random points.

    Each identity is checked at ``samples`` admissible points (domain-violating
    draws are rejected and redrawn).  Violations are measured as
    |lhs-rhs| / max(1, |lhs|, |rhs|).  The function only reports; it never
    raises on violations.
    """
    rng = np.random.default_rng(seed)
    report = IdentityReport(seed=seed, samples=samples)

    def add(name, fn, flagged=False, note=""):
        worst = 0.0
        total = 0
        guard = 0
        while total < samples and guard < 80:
            guard += 1
            viol = fn(rng, samples)
            viol = viol[np.isfinite(viol)]
            if viol.size:
                worst = max(worst, float(np.max(viol)))
                total += int(viol.size)
        report.stats.append(IdentityStat(name, total, worst, flagged, note))

    def prop1a(rng, n):
        q = _draw_q(rng, n)
        z = rng.uniform(-0.8, 0.8, n)
        ok = (1.0 + (1.0 - q) * z > 1e-9) & (1.0 + (q - 1.0) * (-z) > 1e-9)
        q, z = q[ok], z[ok]
        lhs = _exp_q_raw(z, q) * _exp_q_raw(-z, 2.0 - q)
        return _rel_violation(lhs, np.ones_like(lhs))

    def prop1b(rng, n):
        q = _draw_q(rng, n)
        z = rng.uniform(-0.3, 0.3, n)
        ok = (1.0 + (1.0 - q) * z > 1e-9) & (1.0 + (1.0 - 1.0 / q) * (-q * z) > 1e-9)
        q, z = q[ok], z[ok]
        lhs = _exp_q_raw(z, q) ** q * _exp_q_raw(-q * z, 1.0 / q)
        return _rel_violation(lhs, np.ones_like(lhs))

    def prop2(rng, n):
        q = _draw_q(rng, n)
        x = rng.uniform(-0.7, 0.7, n)
        y = rng.uniform(-0.7, 0.7, n)
        w = x + y + (1.0 - q) * x * y
        ok = (
            (1.0 + (1.0 - q) * x > 1e-9)
            & (1.0 + (1.0 - q) * y > 1e-9)
            & (1.0 + (1.0 - q) * w > 1e-9)
        )
        q, x, y, w = q[ok], x[ok], y[ok], w[ok]
        return _rel_violation(_exp_q_raw(w, q), _exp_q_raw(x, q) * _exp_q_raw(y, q))

    def prop3(rng, n):
        # sign of (e_q^x)^(-1) - e_q^(-x) is governed by the q-regime
        q = _draw_q(rng, n)
        x = rng.uniform(-0.9, 0.9, n)
        ok = (1.0 + (1.0 - q) * x > 1e-9) & (1.0 - (1.0 - q) * x > 1e-9)
        q, x = q[ok], x[ok]
        diff = 1.0 / _exp_q_raw(x, q) - _exp_q_raw(-x, q)
        signed = np.where(q < 1.0, diff, -diff)
        return np.maximum(0.0, -signed)

    def _richardson(f, x, h):
        # fourth-order central difference; plain second-order stalls near 1e-9
        d1 = (f(x + h) - f(x - h)) / (2.0 * h)
        d2 = (f(x + h / 2.0) - f(x - h / 2.0)) / h
        return (4.0 * d2 - d1) / 3.0

    def prop4(rng, n):
        q = _draw_q(rng, n)
        u = rng.uniform(0.3, 4.0, n)
        h = 2e-4 * np.maximum(1.0, u)
        fd = _richardson(lambda v: _log_q_raw(v, q), u, h)
        return np.abs(fd - u ** (-q)) / np.maximum(1.0, np.abs(fd))

    def prop5(rng, n):
        q = _draw_q(rng, n)
        u = rng.uniform(-0.5, 0.8, n)
        ok = 1.0 + (1.0 - q) * (u + 1e-3) > 0.3
        ok &= 1.0 + (1.0 - q) * (u - 1e-3) > 0.3
        q, u = q[ok], u[ok]
        fd = _richardson(lambda v: _exp_q_raw(v, q), u, 2e-4)
        return np.abs(fd - _exp_q_raw(u, q) ** q) / np.maximum(1.0, np.abs(fd))

    def prop6(rng, n):
        q = _draw_q(rng, max(2, n // 4))
        p = rng.dirichlet(np.ones(4), size=q.size)
        p = np.clip(p, 1e-6, None)
        p /= p.sum(axis=1, keepdims=True)
        escort = p ** q[:, None]
        escort /= escort.sum(axis=1, keepdims=True)
        back = escort / (escort ** (1.0 / q[:, None])).sum(axis=1, keepdims=True) ** q[:, None]
        return _rel_violation(back, p ** q[:, None]).ravel()

    def prop7(rng, n):
        q = _draw_q(rng, max(2, n // 4))
        r = rng.dirichlet(np.ones(4), size=q.size)
        r = np.clip(r, 1e-6, None)
        r /= r.sum(axis=1, keepdims=True)
        p = r ** q[:, None]
        big = p / p.sum(axis=1, keepdims=True)
        back = big / (big ** (1.0 / q[:, None])).sum(axis=1, keepdims=True) ** q[:, None]
        return _rel_violation(back, p).ravel()

    def prop8(rng, n):
        q = _draw_q(rng, n)
        a = np.where(rng.random(n) < 0.5, rng.uniform(0.4, 3.0, n), rng.uniform(-3.0, -0.4, n))
        x = rng.uniform(-0.4, 0.4, n)
        m = 1.0 - (1.0 - q) / a
        ok = (1.0 + (1.0 - q) * x > 1e-9) & (np.abs(1.0 - m) > 1e-6)
        ok &= 1.0 + (1.0 - m) * (a * x) > 1e-9
        q, a, x, m = q[ok], a[ok], x[ok], m[ok]
        return _rel_violation(_exp_q_raw(x, q) ** a, _exp_q_raw(a * x, m))

    def prop9(rng, n):
        q = _draw_q(rng, n)
        m = _draw_q(rng, n)
        ok = np.abs(q - m) > 1e-6
        q, m = q[ok], m[ok]
        x = rng.uniform(0.2, 5.0, q.size)
        inner = 1.0 + (1.0 - m) * _log_q_raw(x, m)
        rhs = (inner ** ((1.0 - q) / (1.0 - m)) - 1.0) / (1.0 - q)
        return _rel_violation(_log_q_raw(x, q), rhs)

    def prop10_exp(rng, n):
        q = _draw_q(rng, n)
        x = rng.uniform(-0.05, 0.05, n)
        # coefficient of x^k is prod_{j=1}^{k-1} (j q - (j-1)) / k!
        acc = np.ones_like(x)
        series = np.ones_like(x)
        coef = np.ones_like(q)
        for k in range(1, 30):
            if k > 1:
                j = k - 1
                coef = coef * (j * q - (j - 1))
            acc = acc * x / k
            series = series + coef * acc
        return _rel_violation(series, _exp_q_raw(x, q))

    def prop10_log(rng, n):
        q = _draw_q(rng, n)
        x = rng.uniform(-0.05, 0.05, n)
        series = np.copy(x)
        coef = np.ones_like(q)
        acc = np.copy(x)
        for k in range(2, 30):
            coef = coef * (q + (k - 2))
            acc = acc * x
            fact = math.factorial(k)
            series = series + (-1.0) ** (k + 1) * coef * acc / fact
        return _rel_violation(series, _log_q_raw(1.0 + x, q))

    def prop11(rng, n):
        q = _draw_q(rng, n)
        alpha = rng.uniform(-0.3, 0.3, n)
        beta = rng.uniform(-0.3, 0.3, n)
        ok = 1.0 + (1.0 - q) * (alpha + beta) > 0.3
        q, alpha, beta = q[ok], alpha[ok], beta[ok]
        fd = _richardson(lambda v: _exp_q_raw(v, q), alpha + beta, 2e-4)
        rhs = (1.0 + (alpha + beta) * (1.0 - q)) ** (-1.0 + 1.0 / (1.0 - q))
        return np.abs(fd - rhs) / np.maximum(1.0, np.abs(rhs))

    def prop12(rng, n):
        q = _draw_q(rng, n)
        alpha = rng.uniform(-0.3, 0.3, n)
        beta = rng.uniform(-0.3, 0.3, n)
        ok = 1.0 + (1.0 - q) * (alpha + beta) > 0.3
        q, alpha, beta = q[ok], alpha[ok], beta[ok]
        h = 1e-4
        f = lambda b: _exp_q_raw(alpha + b, q)
        fd2 = (f(beta + h) - 2.0 * f(beta) + f(beta - h)) / (h * h)
        rhs = (
            (-1.0 + 1.0 / (1.0 - q))
            * (1.0 - q)
            * (1.0 + (alpha + beta) * (1.0 - q)) ** (-2.0 + 1.0 / (1.0 - q))
        )
        viol = np.abs(fd2 - rhs) / np.maximum(1.0, np.abs(rhs))
        # central second differences are O(h^2) accurate; keep the check honest
        # but not dominated by FD truncation
        return np.maximum(0.0, viol - 5e-7)

    def prop14(rng, n):
        q = _draw_q(rng, n)
        y = rng.uniform(-0.6, 0.6, n)
        ok = 1.0 + (q - 1.0) * y > 1e-6
        q, y = q[ok], y[ok]
        val = _exp_q_raw(y, 2.0 - q)
        lhs = -_log_q_raw(1.0 / val, q)
        return _rel_violation(lhs, y)

    def prop16(rng, n):
        q = _draw_q(rng, n)
        y = rng.uniform(0.2, 4.0, n)
        arg = -_log_q_raw(1.0 / y, q)
        ok = 1.0 + (q - 1.0) * arg > 1e-9
        q, y, arg = q[ok], y[ok], arg[ok]
        return _rel_violation(_exp_q_raw(arg, 2.0 - q), y)

    def goodeq(rng, n):
        q = _draw_q(rng, n)
        a = rng.uniform(0.2, 4.0, n)
        b = rng.uniform(0.2, 4.0, n)
        la, lb = _log_q_raw(a, q), _log_q_raw(b, q)
        return _rel_violation(_log_q_raw(a * b, q), la + lb + (1.0 - q) * la * lb)

    def goodeq1(rng, n):
        q = _draw_q(rng, n)
        p = rng.uniform(0.05, 1.0, n)
        return _rel_violation(_log_q_raw(1.0 / p, q), -(p ** (q - 1.0)) * _log_q_raw(p, q))

    def entropy_order(rng, n):
        q = _draw_q(rng, max(2, n // 4))
        p = rng.dirichlet(np.ones(4), size=q.size)
        p = np.clip(p, 1e-9, None)
        p /= p.sum(axis=1, keepdims=True)
        shannon = -(p * np.log(p)).sum(axis=1)
        hq = ((p ** q[:, None]).sum(axis=1) - 1.0) / (1.0 - q)
        diff = np.where(q < 1.0, hq - shannon, shannon - hq)
        return np.maximum(0.0, -diff - 1e-12).repeat(4)

    def t111(rng, n):
        # writing t = (1/x)^(1-q), the bound reads t(2-t) <= 1 and so holds
        # for every x when q < 1; for q > 1 the direction reverses, so q > 1
        # is outside the admissible domain
        q = rng.uniform(0.05, 0.95, n)
        x = rng.uniform(0.05, 6.0, n)
        arg = -_log_q_raw(1.0 / x, q)
        ok = 1.0 + (1.0 - q) * arg > 1e-9
        q, x, arg = q[ok], x[ok], arg[ok]
        return np.maximum(0.0, _exp_q_raw(arg, q) - x - 1e-12)

    def prop13(rng, n):
        # the fixed constants in this form only cohere at q = 1/2; evaluated
        # there and reported, never gated
        q = np.full(n, 0.5)
        a = rng.uniform(-1.5, 3.0, n)
        b = rng.uniform(-3.0, 1.5, n)
        ok = (np.abs(2.0 + a) > 1e-3) & (1.0 + 0.5 * a > 1e-9) & (1.0 - 0.5 * b > 1e-9)
        q, a, b = q[ok], a[ok], b[ok]
        lhs = _exp_q_raw(a, q) * _exp_q_raw(b, 2.0 - q)
        rhs = _exp_q_raw(-2.0 * (-1.0 + np.abs(b - 2.0) / np.abs(2.0 + a)), 2.0 - q)
        return _rel_violation(lhs, rhs)

    def prop15(rng, n):
        q = _draw_q(rng, n)
        x = rng.uniform(-0.5, 0.5, n)
        y = rng.uniform(-0.5, 0.5, n)
        ok = 1.0 + (q - 1.0) * (x + y) > 1e-6
        q, x, y = q[ok], x[ok], y[ok]
        w = (-1.0 + np.exp(y * (q - 1.0)) / (1.0 + (q - 1.0) * (x + y))) / (1.0 - q)
        ok2 = 1.0 + (1.0 - q) * w > 1e-9
        q, x, y, w = q[ok2], x[ok2], y[ok2], w[ok2]
        lhs = _exp_q_raw(x + y, 2.0 - q)
        rhs = _exp_q_raw(w, q) * np.exp(y)
        return _rel_violation(lhs, rhs)

    add("dual-product", prop1a)
    add("dual-product-power", prop1b)
    add("pseudo-additive-exp", prop2)
    add("inverse-vs-negated", prop3, note="sign governed by q-1")
    add("dlog-derivative", prop4)
    add("dexp-derivative", prop5)
    add("escort-inversion", prop6)
    add("escort-inversion-power", prop7)
    add("power-reindex", prop8)
    add("change-of-index", prop9)
    add("taylor-exp", prop10_exp)
    add("taylor-log", prop10_log)
    add("shift-derivative", prop11)
    add("shift-second-derivative", prop12)
    add("neglog-dual-inverse", prop14)
    add("dual-exp-neglog", prop16)
    add("pseudo-additive-log", goodeq)
    add("reciprocal-log", goodeq1)
    add("entropy-ordering", entropy_order)
    add("exp-neglog-bound", t111)
    add(
        "mixed-dual-product",
        prop13,
        flagged=True,
        note="fixed constants only coherent at q=1/2; report-only",
    )
    add(
        "dual-shift-split",
        prop15,
        flagged=True,
        note="composition ambiguous in source; report-only",
    )
    return report
