"""q-deformed exponential/logarithm pair and the identity self-test battery.

The deformed pair is

    exp_q(u) = (1 + (1-q)u)^(1/(1-q))      on 1 + (1-q)u > 0,
    log_q(u) = (u^(1-q) - 1) / (1-q)       on u > 0,

with the classical exp/log recovered continuously as q -> 1.  One private
evaluator per formula does the arithmetic: ``_log_exp_q`` (log1p form) and
its exponential ``_exp_q``, ``_log_q`` (expm1 form), ``_dexp_q`` = exp_q^q
and ``_dlog_q`` = u^(-q).
Each takes q as a scalar or as one value per entry, and u real or complex.
The public functions add the QParam check, the crossover to the classical
branch at |q - 1| <= CLASSICAL_Q_TOL (so callers never hit the 0/0 form)
and the domain errors.

``identity_suite`` checks the algebraic identities satisfied by the pair
(duality, pseudo-additivity, escort inversions, Taylor expansions, derivative
formulas, entropy-ordering inequalities) on those same evaluators, at seeded
random admissible points, and reports the worst violation per identity; every
row counts toward the gate, and a NaN point fails it.  Its derivative rows take
the complex step of the core and compare it with ``_dexp_q`` and ``_dlog_q``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import QExpDomainError, QLogDomainError

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


def _log_q_domain_min(arr: np.ndarray, name: str) -> float:
    """min(arr); the one domain test of log_q and dlog_q, QLogDomainError off finite u > 0."""
    lo = arr.min(initial=np.inf)  # NaN when any entry is
    if not lo > 0.0 or not np.all(np.isfinite(arr)):
        bad = arr[~(arr > 0.0) | ~np.isfinite(arr)]
        raise QLogDomainError(f"{name} requires u > 0, got {bad.ravel()[:4]}")
    return lo


def _log_q(u, q):
    """log_q(u) = expm1((1-q) log u)/(1-q): the one evaluator of log_q, q != 1.

    q is a scalar or one per entry of u, and u is real or complex.
    """
    return np.expm1((1.0 - q) * np.log(u)) / (1.0 - q)


def _dlog_q(u, q):
    """d/du log_q(u) = u^(-q): the one evaluator of d log_q; q and u as in ``_log_q``."""
    return u ** (-q)


def log_q(u, q):
    """Deformed logarithm (u^(1-q) - 1)/(1-q); natural log at q = 1.

    Accepts scalars or arrays; raises QLogDomainError off finite u > 0.  A
    value past the float range (q > 1 and u near 0) is -inf, without a warning.
    """
    qp = QParam.of(q)
    arr = np.asarray(u, dtype=float)
    lo = _log_q_domain_min(arr, "log_q")
    if qp.classical:
        out = np.log(arr)
    elif qp.q > 1.0 and lo < 1.0:  # the one case where u^(1-q) can overflow
        with np.errstate(over="ignore"):
            out = _log_q(arr, qp.q)
    else:
        out = _log_q(arr, qp.q)
    return out if isinstance(u, np.ndarray) else float(out)


def _exp_q_log1p_arg(u: np.ndarray, q: float | np.ndarray) -> np.ndarray:
    """(1-q)u, q a scalar or one per entry of u; the one domain test of exp_q.

    QExpDomainError unless 1 + (1-q)u is finite and > 0 everywhere (its real
    part, for complex u); its ``argument`` is the real part of the first
    offending entry.
    """
    x = (1.0 - q) * u
    ok = (1.0 + x.real > 0.0) & np.isfinite(x)
    if not ok.all():
        at = q[~ok][:4] if np.ndim(q) else q
        raise QExpDomainError(f"exp_q domain violated: 1+(1-q)u <= 0 at q={at}, u={u[~ok][:4]}",
                              argument=float(u[~ok].real[0]))
    return x


def _log_exp_q(u, q):
    """log exp_q(u) = log1p((1-q)u)/(1-q): the one evaluator of log exp_q.

    q is a scalar or one per entry of u, and u is real or complex.  A scalar
    q within CLASSICAL_Q_TOL of 1 returns u itself.
    """
    if not isinstance(q, np.ndarray) and abs(q - 1.0) <= CLASSICAL_Q_TOL:
        return u
    return np.log1p(_exp_q_log1p_arg(u, q)) / (1.0 - q)


def _exp_q(u, q):
    """exp_q(u) = exp(log exp_q(u)); q and u as in ``_log_exp_q``."""
    return np.exp(_log_exp_q(u, q))


def _dexp_q(u, q):
    """d/du exp_q(u) = exp_q(u)^q: the one evaluator of d exp_q; q and u as in ``_log_exp_q``."""
    # an array power: numpy's scalar ** rounds differently in the last bit
    return np.asarray(_exp_q(u, q)) ** q


def exp_q(u, q):
    """Deformed exponential (1 + (1-q)u)^(1/(1-q)); exp at q = 1.

    Strict domain: raises QExpDomainError unless 1 + (1-q)u > 0 everywhere.
    A value past the float range is inf, without a warning.
    """
    arr = np.asarray(u, dtype=float)
    with np.errstate(over="ignore"):
        out = _exp_q(arr, QParam.of(q).q)
    return out if isinstance(u, np.ndarray) else float(out)


def dexp_q(u, q):
    """d/du exp_q(u) = exp_q(u)^q on exp_q's domain; inf past the float range, without a warning."""
    arr = np.asarray(u, dtype=float)
    with np.errstate(over="ignore"):
        out = _dexp_q(arr, QParam.of(q).q)
    return out if isinstance(u, np.ndarray) else float(out)


def dlog_q(u, q):
    """d/du log_q(u) = u^(-q) on log_q's domain; inf past the float range, without a warning."""
    qp = QParam.of(q)
    arr = np.asarray(u, dtype=float)
    _log_q_domain_min(arr, "dlog_q")
    with np.errstate(over="ignore"):
        out = _dlog_q(arr, qp.q)
    return out if isinstance(u, np.ndarray) else float(out)


# ---------------------------------------------------------------------------
# The even-power extension.
#
# When 1/(1-q) is an even positive integer (q = 1/2, 3/4, ...) the map
# u -> (1+(1-q)u)^(1/(1-q)) is a globally defined even power, nonnegative on
# all of R.  Roots of the deformed transfer equation can live where some
# bases 1+(1-q)u are negative while every summand stays positive.
# ``even_power_order`` picks that power for ``_cutoff_root`` and the solver's
# ``ruelle._System``, which builds its own bases.  ``exp_q_extended`` and
# ``dexp_q_extended`` evaluate the extension itself; no library path calls
# them.  The public exp_q above stays strict.
# ---------------------------------------------------------------------------

def even_power_order(q):
    """Return N when 1/(1-q) is an even positive integer N to 1e-9 relative (else None)."""
    qp = QParam.of(q)
    if qp.classical or qp.q >= 1.0:
        return None
    n = 1.0 / (1.0 - qp.q)
    rounded = round(n)
    if rounded >= 2 and rounded % 2 == 0 and abs(n - rounded) <= 1e-9 * max(1.0, n):
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


def _logsumexp(x: np.ndarray) -> float:
    """log(sum(exp(x))) for finite x, shifted by the maximum."""
    m = x.max()
    return float(m + np.log(np.exp(x - m).sum()))


def _cutoff_root(v: np.ndarray, qt: float) -> np.ndarray:
    """The t per row of v (..., d) with sum_a E(v_a - t) = 1, E(u) = max(1 + (1-qt)u, 0)^(1/(1-qt)).

    At qt = 1 (CLASSICAL_Q_TOL) t is the log-sum-exp.  The sum falls in t from
    >= 1 at t = max v.  For qt > 0 it is convex, so Newton from max v climbs
    monotonically until no step exceeds 1e-15*max(1, |t|) or, at roundoff,
    the sum stops falling; within 1e-2 of qt = 1 the sum is taken in log1p
    form, as the power 1/(1-qt) amplifies the base's rounding.  For qt <= 0
    t is bisected in [max v, max v - log_qt(1/d)], where each summand ends <= 1/d.
    A stack v (B, n, d) stops each slice by its own contexts, bit for bit as alone.
    """
    t = v.max(axis=-1)
    if abs(qt - 1.0) <= CLASSICAL_Q_TOL:
        return t + np.log(np.exp(v - t[..., None]).sum(axis=-1))
    stack, live, hist = v.ndim == 3, True, []  # a stack's t and open slices after each step
    if qt > 0.0:
        power = even_power_order(qt) or 1.0 / (1.0 - qt)
        F_prev = np.inf
        while True:
            y = (1.0 - qt) * (v - t[..., None])
            base = np.maximum(1.0 + y, 0.0)
            dE = base ** (power - 1)  # minus the t-derivative of each summand
            if abs(1.0 - qt) < 1e-2:
                with np.errstate(divide="ignore"):  # log1p(-1) = -inf: a cut-off summand
                    F = np.exp(power * np.log1p(np.maximum(y, -1.0))).sum(axis=-1) - 1.0
            else:  # ufunc reduce: no method wrapper per step on these small arrays
                F = np.add.reduce(base * dE, axis=-1) - 1.0
            step = F / np.add.reduce(dE, axis=-1)
            t = t + step
            moving = (step > 1e-15 * np.maximum(1.0, np.abs(t))) & (F < F_prev)
            if stack:  # a slice stops at its first step in which none of its contexts moves
                hist.append((t, live := live & np.logical_or.reduce(moving, axis=1)))
                moving = live
            if not np.logical_or.reduce(moving, axis=None):
                break
            F_prev = F
    else:
        power = 1.0 / (1.0 - qt)
        lo, hi = t, t + (1.0 - v.shape[-1] ** (qt - 1.0)) * power
        while True:
            t = 0.5 * (lo + hi)
            settled = (t == lo) | (t == hi) | (hi - lo <= 1e-16)
            if stack:  # a slice stops at its first step in which all of its contexts settled
                hist.append((t, live := live & ~settled.all(axis=1)))
                settled = ~live
            if np.all(settled):
                break
            F = (np.maximum(1.0 + (1.0 - qt) * (v - t[..., None]), 0.0) ** power).sum(axis=-1)
            lo, hi = np.where(F > 1.0, t, lo), np.where(F > 1.0, hi, t)
    if not stack:
        return t
    ts, lives = zip(*hist)  # a slice's stop is the number of steps after which it was open
    return np.stack(ts)[np.sum(lives, axis=0), np.arange(len(v))]


def _regularized_max(v: np.ndarray, q: float) -> tuple[np.ndarray, np.ndarray]:
    """(p, S) per row of v (..., d): p maximizes <p, v> + H_q(p) over the simplex, S is the max.

    With u = (v - 1)/q and t the cut-off root of u at qt = 2 - q, the KKT
    solution is p_a = E_(2-q)(u_a - t), sparse at q > 1.  S is the objective
    at p renormalized, so an error in t enters it only to second order.
    """
    u = (v - 1.0) / q
    t = _cutoff_root(u, 2.0 - q)
    if abs(q - 1.0) <= CLASSICAL_Q_TOL:
        p = np.exp(u - t[..., None])
    else:
        with np.errstate(divide="ignore"):  # log1p(-1) = -inf: a cut-off entry
            p = np.exp(np.log1p(np.maximum((q - 1.0) * (u - t[..., None]), -1.0)) / (q - 1.0))
    p = p / p.sum(axis=-1, keepdims=True)  # the floor keeps 1/p finite where p vanishes
    return p, (p * (v + log_q(1.0 / np.maximum(p, 1e-300), q))).sum(axis=-1)


# ---------------------------------------------------------------------------
# Identity self-test battery
# ---------------------------------------------------------------------------

def _complex_step(f, u):
    """f'(u) as Im f(u + ih)/h, h = 1e-30 (Squire & Trapp 1998): no difference, no cancellation."""
    return f(u + 1e-30j).imag / 1e-30


def _rel_violation(lhs, rhs):
    scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    return np.abs(lhs - rhs) / scale


@dataclass
class IdentityStat:
    name: str
    points: int
    max_violation: float
    note: str = ""


@dataclass
class IdentityReport:
    stats: list[IdentityStat] = field(default_factory=list)

    @property
    def worst(self) -> float:
        """The largest violation of any row; NaN when any row is NaN, whatever the order."""
        return float(np.max([s.max_violation for s in self.stats], initial=0.0))

    def passed(self, tol: float = 1e-9) -> bool:
        return self.worst <= tol

    def as_rows(self):
        return [
            {
                "identity": s.name,
                "points": s.points,
                "max_violation": s.max_violation,
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
    draws are rejected and redrawn) on the library's own evaluators, with the
    derived indices (2-q, 1/q, 1-(1-q)/a, ...) one per point.  Derivatives are
    complex steps (Im f(u + ih)/h), exact to rounding.  Violations are measured
    as |lhs-rhs| / max(1, |lhs|, |rhs|).  The function only reports; it never
    raises on violations; ValueError when samples < 1.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    report = IdentityReport()

    def add(name, fn, note=""):
        worst, total, guard = 0.0, 0, 0
        while total < samples and guard < 80:
            guard += 1
            viol = fn(rng, samples)
            worst = float(np.max(viol, initial=worst))  # a NaN point is the worst
            total += int(viol.size)
        report.stats.append(IdentityStat(name, total, worst, note))

    def prop1a(rng, n):
        q = _draw_q(rng, n)
        z = rng.uniform(-0.8, 0.8, n)
        ok = (1.0 + (1.0 - q) * z > 1e-9) & (1.0 + (q - 1.0) * (-z) > 1e-9)
        q, z = q[ok], z[ok]
        return _rel_violation(_exp_q(z, q) * _exp_q(-z, 2.0 - q), 1.0)

    def prop1b(rng, n):
        q = _draw_q(rng, n)
        z = rng.uniform(-0.3, 0.3, n)
        ok = (1.0 + (1.0 - q) * z > 1e-9) & (1.0 + (1.0 - 1.0 / q) * (-q * z) > 1e-9)
        q, z = q[ok], z[ok]
        return _rel_violation(_exp_q(z, q) ** q * _exp_q(-q * z, 1.0 / q), 1.0)

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
        return _rel_violation(_exp_q(w, q), _exp_q(x, q) * _exp_q(y, q))

    def prop3(rng, n):
        # sign of (e_q^x)^(-1) - e_q^(-x) is governed by the q-regime
        q = _draw_q(rng, n)
        x = rng.uniform(-0.9, 0.9, n)
        ok = (1.0 + (1.0 - q) * x > 1e-9) & (1.0 - (1.0 - q) * x > 1e-9)
        q, x = q[ok], x[ok]
        diff = 1.0 / _exp_q(x, q) - _exp_q(-x, q)
        signed = np.where(q < 1.0, diff, -diff)
        return np.maximum(0.0, -signed)

    def prop4(rng, n):
        q = _draw_q(rng, n)
        u = rng.uniform(0.3, 4.0, n)
        return _rel_violation(_complex_step(lambda v: _log_q(v, q), u), _dlog_q(u, q))

    def prop5(rng, n):
        q = _draw_q(rng, n)
        u = rng.uniform(-0.5, 0.8, n)
        ok = 1.0 + (1.0 - q) * u > 0.3
        q, u = q[ok], u[ok]
        return _rel_violation(_complex_step(lambda v: _exp_q(v, q), u), _dexp_q(u, q))

    def prop6(rng, n):
        # the escort P = p^q / sum p^q inverts to p^q = P / (sum P^(1/q))^q; the
        # escort-inversion-power row is the same map, at points of its own
        q = _draw_q(rng, max(2, n // 4))
        p = rng.dirichlet(np.ones(4), size=q.size)
        p = np.clip(p, 1e-6, None)
        p /= p.sum(axis=1, keepdims=True)
        escort = p ** q[:, None]
        escort /= escort.sum(axis=1, keepdims=True)
        back = escort / (escort ** (1.0 / q[:, None])).sum(axis=1, keepdims=True) ** q[:, None]
        return _rel_violation(back, p ** q[:, None]).ravel()

    def prop8(rng, n):
        q = _draw_q(rng, n)
        a = np.where(rng.random(n) < 0.5, rng.uniform(0.4, 3.0, n), rng.uniform(-3.0, -0.4, n))
        x = rng.uniform(-0.4, 0.4, n)
        m = 1.0 - (1.0 - q) / a
        ok = (1.0 + (1.0 - q) * x > 1e-9) & (np.abs(1.0 - m) > 1e-6)
        ok &= 1.0 + (1.0 - m) * (a * x) > 1e-9
        q, a, x, m = q[ok], a[ok], x[ok], m[ok]
        return _rel_violation(_exp_q(x, q) ** a, _exp_q(a * x, m))

    def prop9(rng, n):
        q = _draw_q(rng, n)
        m = _draw_q(rng, n)
        ok = np.abs(q - m) > 1e-6
        q, m = q[ok], m[ok]
        x = rng.uniform(0.2, 5.0, q.size)
        # log_q(x) = log_r(1 + (1-m) log_m(x)) / (1-m) with 1-r = (1-q)/(1-m)
        inner = 1.0 + (1.0 - m) * _log_q(x, m)
        return _rel_violation(_log_q(x, q), _log_q(inner, 1.0 - (1.0 - q) / (1.0 - m)) / (1.0 - m))

    def prop10_exp(rng, n):
        q = _draw_q(rng, n)
        x = rng.uniform(-0.05, 0.05, n)
        # coefficient of x^k is prod_{j=1}^{k-1} (j q - (j-1)) / k!
        acc = np.ones_like(x)
        series = np.ones_like(x)
        coef = np.ones_like(q)
        for k in range(1, 30):
            acc = acc * x / k
            series = series + coef * acc
            coef = coef * (k * q - (k - 1))
        return _rel_violation(series, _exp_q(x, q))

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
        return _rel_violation(series, _log_q(1.0 + x, q))

    def shift_points(rng, n):
        q = _draw_q(rng, n)
        alpha = rng.uniform(-0.3, 0.3, n)
        beta = rng.uniform(-0.3, 0.3, n)
        ok = 1.0 + (1.0 - q) * (alpha + beta) > 0.3
        return q[ok], alpha[ok], beta[ok]

    def prop11(rng, n):
        q, alpha, beta = shift_points(rng, n)
        lhs = _complex_step(lambda b: _exp_q(alpha + b, q), beta)
        return _rel_violation(lhs, _dexp_q(alpha + beta, q))

    def prop12(rng, n):
        # the second derivative is q exp_q^(2q-1)
        q, alpha, beta = shift_points(rng, n)
        lhs = _complex_step(lambda b: _dexp_q(alpha + b, q), beta)
        return _rel_violation(lhs, q * _exp_q(alpha + beta, q) ** (2.0 * q - 1.0))

    def prop14(rng, n):
        q = _draw_q(rng, n)
        y = rng.uniform(-0.6, 0.6, n)
        ok = 1.0 + (q - 1.0) * y > 1e-6
        q, y = q[ok], y[ok]
        val = _exp_q(y, 2.0 - q)
        lhs = -_log_q(1.0 / val, q)
        return _rel_violation(lhs, y)

    def prop16(rng, n):
        q = _draw_q(rng, n)
        y = rng.uniform(0.2, 4.0, n)
        arg = -_log_q(1.0 / y, q)
        ok = 1.0 + (q - 1.0) * arg > 1e-9
        q, y, arg = q[ok], y[ok], arg[ok]
        return _rel_violation(_exp_q(arg, 2.0 - q), y)

    def goodeq(rng, n):
        q = _draw_q(rng, n)
        a = rng.uniform(0.2, 4.0, n)
        b = rng.uniform(0.2, 4.0, n)
        la, lb = _log_q(a, q), _log_q(b, q)
        return _rel_violation(_log_q(a * b, q), la + lb + (1.0 - q) * la * lb)

    def goodeq1(rng, n):
        q = _draw_q(rng, n)
        p = rng.uniform(0.05, 1.0, n)
        return _rel_violation(_log_q(1.0 / p, q), -(p ** (q - 1.0)) * _log_q(p, q))

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
        arg = -_log_q(1.0 / x, q)
        ok = 1.0 + (1.0 - q) * arg > 1e-9
        q, x, arg = q[ok], x[ok], arg[ok]
        return np.maximum(0.0, _exp_q(arg, q) - x - 1e-12)

    def prop13(rng, n):
        # the fixed constants in this form only cohere at q = 1/2, so it is
        # evaluated there alone
        q = np.full(n, 0.5)
        a = rng.uniform(-1.5, 3.0, n)
        b = rng.uniform(-3.0, 1.5, n)
        w = -2.0 * (-1.0 + np.abs(b - 2.0) / np.abs(2.0 + a))
        ok = (np.abs(2.0 + a) > 1e-3) & (1.0 + 0.5 * a > 1e-9) & (1.0 - 0.5 * b > 1e-9)
        ok &= 1.0 - 0.5 * w > 0.0
        q, a, b, w = q[ok], a[ok], b[ok], w[ok]
        lhs = _exp_q(a, q) * _exp_q(b, 2.0 - q)
        return _rel_violation(lhs, _exp_q(w, 2.0 - q))

    def prop15(rng, n):
        q = _draw_q(rng, n)
        x = rng.uniform(-0.5, 0.5, n)
        y = rng.uniform(-0.5, 0.5, n)
        ok = 1.0 + (q - 1.0) * (x + y) > 1e-6
        q, x, y = q[ok], x[ok], y[ok]
        w = (-1.0 + np.exp(y * (q - 1.0)) / (1.0 + (q - 1.0) * (x + y))) / (1.0 - q)
        ok2 = 1.0 + (1.0 - q) * w > 1e-9
        q, x, y, w = q[ok2], x[ok2], y[ok2], w[ok2]
        lhs = _exp_q(x + y, 2.0 - q)
        rhs = _exp_q(w, q) * np.exp(y)
        return _rel_violation(lhs, rhs)

    add("dual-product", prop1a)
    add("dual-product-power", prop1b)
    add("pseudo-additive-exp", prop2)
    add("inverse-vs-negated", prop3, note="sign governed by q-1")
    add("dlog-derivative", prop4)
    add("dexp-derivative", prop5)
    add("escort-inversion", prop6)
    add("escort-inversion-power", prop6)
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
    add("mixed-dual-product", prop13, note="fixed constants only coherent at q=1/2")
    add("dual-shift-split", prop15, note="composition ambiguous in source")
    return report
