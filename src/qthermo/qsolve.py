"""Multi-branch solver for the deformed transfer-operator equation.

For a locally constant potential A of memory m on d symbols, a deformation
index q-tilde, context words of length k = max(m - 1, 1), and unknowns
(phi, c) with the gauge phi(first context) = 0, the equation reads

    sum_a exp_qt( A(a x) + phi(prefix_k(a x)) - phi(x) - c ) = 1

for every context word x.  Roots are found by homotopy continuation from the
zero potential plus a deterministic multistart Newton lattice.  When
1/(1 - qt) is an even positive integer the q-exponential extends to a global
polynomial and the solver also finds roots whose summand bases are negative
or zero; otherwise evaluation is strict and every root keeps its arguments
inside the q-exponential domain.

The constant c of a branch whose summands are all strictly positive is the
dynamical q-pressure of A at q = 2 - qt, and the summands themselves form
the Jacobian of the associated q-equilibrium Markov measure.
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergenceError, QExpDomainError, QThermoError, SizeGuardError
from .qfun import QParam, even_power_order, log_q
from .ruelle import (
    Jacobian,
    MarkovMeasure,
    equilibrium_markov,
    leading_eig,
    q_entropy_markov,
    transfer_matrix,
)
from .shift import Potential, drop_first, drop_last, index_word, prefix_index, prepend

_ACCEPT_TOL = 1e-10
_DEDUP_TOL = 1e-7
_BOUNDARY_MARGIN = 1e-12


@dataclass(frozen=True)
class SolveResult:
    """One root of the deformed equation.

    ``summands_positive`` records whether every base 1 + (1-qt)(argument)
    clears the strict-positivity margin; the Jacobian built from the summand
    values is attached exactly in that case.  ``boundary`` marks roots where
    some base sits at zero within the margin (reachable only with
    ``allow_boundary``).
    """

    phi: np.ndarray
    c: float
    residual: float
    summands_positive: bool
    jacobian: Jacobian | None
    branch_id: int
    boundary: bool = False


class _System:
    """Index tables for one (potential, q-tilde) instance.

    Entry [j, a - 1] belongs to the word a.x, x the j-th length-k context:
    ``words`` is its (k+1)-word index, ``pre_idx`` its k-prefix index and
    ``A_vals`` the potential on it.
    """

    def __init__(self, A: Potential, q_tilde: QParam, k: int | None = None):
        self.d = A.d
        self.k = A.context_length() if k is None else k
        self.n = self.d**self.k
        self.qt = float(q_tilde.q)
        self.order = even_power_order(q_tilde)
        self.words = prepend(np.arange(1, self.d + 1), np.arange(self.n)[:, None], self.d, self.k)
        self.pre_idx = drop_last(self.words, self.d)
        self.A_vals = self.values_of(A)

    def values_of(self, A: Potential) -> np.ndarray:
        """The table of A over the words a.x."""
        return A.values[prefix_index(self.words, self.d, self.k + 1, A.memory)]

    def with_values(self, A_vals: np.ndarray) -> "_System":
        """The same tables carrying another potential table."""
        out = copy.copy(self)
        out.A_vals = A_vals
        return out

    def arguments(self, phi: np.ndarray, c: float) -> np.ndarray:
        return self.A_vals + phi[self.pre_idx] - phi[:, None] - c

    def bases(self, phi: np.ndarray, c: float) -> np.ndarray:
        return 1.0 + (1.0 - self.qt) * self.arguments(phi, c)

    def evaluate(self, phi: np.ndarray, c: float) -> tuple[np.ndarray, np.ndarray] | None:
        """(summand values, summand derivatives), or None outside the domain."""
        base = self.bases(phi, c)
        if self.order is not None:
            return base**self.order, base ** (self.order - 1)
        if np.any(base <= 1e-300):
            return None
        p = 1.0 / (1.0 - self.qt)
        return base**p, base ** (p - 1.0)

    def defect(self, phi: np.ndarray, c: float) -> np.ndarray | None:
        out = self.evaluate(phi, c)
        if out is None:
            return None
        return out[0].sum(axis=1) - 1.0


def _trivial_c(d: int, q_tilde: QParam) -> float:
    return -log_q(1.0 / d, q_tilde)


def qruelle_residual(
    A: Potential, q_tilde: QParam | float, phi: np.ndarray, c: float
) -> np.ndarray:
    """Per-context defect of the deformed equation at the given (phi, c).

    Raises
    ------
    QExpDomainError
        naming the offending (symbol, context) when a summand argument falls
        outside the q-exponential domain and no even-power extension applies.
    """
    qp = QParam.of(q_tilde)
    sys = _System(A, qp)
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (sys.n,):
        raise ValueError(f"phi must have one entry per length-{sys.k} context")
    if sys.order is None:
        base = sys.bases(phi, float(c))
        if np.any(base <= 0.0):
            j, a = map(int, np.argwhere(base <= 0.0)[0])
            ctx = "".join(map(str, index_word(j, sys.d, sys.k)))
            arg = float(sys.arguments(phi, float(c))[j, a])
            raise QExpDomainError(
                f"exp_q domain violated at summand a={a + 1}, context {ctx} (u={arg})",
                argument=arg,
            )
    defect = sys.defect(phi, float(c))
    assert defect is not None
    return defect


def _newton(
    sys: _System, phi: np.ndarray, c: float, tol: float = 1e-12, iters: int = 60
) -> tuple[np.ndarray, float] | None:
    """Damped Newton on the free unknowns (phi[1:], c); None on failure."""
    phi = phi.copy()
    F = sys.defect(phi, c)
    if F is None:
        return None
    fnorm = float(np.max(np.abs(F)))
    for _ in range(iters):
        if fnorm <= tol:
            return phi, c
        E, dE = sys.evaluate(phi, c)  # domain already checked
        Jfull = np.zeros((sys.n, sys.n + 1))
        np.add.at(Jfull, (np.arange(sys.n)[:, None], sys.pre_idx), dE)
        Jfull[np.arange(sys.n), np.arange(sys.n)] -= dE.sum(axis=1)
        Jfull[:, sys.n] = -dE.sum(axis=1)
        Jmat = np.delete(Jfull, 0, axis=1)  # gauge: phi[0] stays 0
        try:
            step = np.linalg.solve(Jmat, -F)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(Jmat, -F, rcond=None)
        if not np.all(np.isfinite(step)):
            return None
        lam = 1.0
        for _ in range(30):
            phi_t = phi.copy()
            phi_t[1:] += lam * step[:-1]
            c_t = c + lam * step[-1]
            F_t = sys.defect(phi_t, c_t)
            if F_t is not None:
                fn_t = float(np.max(np.abs(F_t)))
                if fn_t < fnorm or fn_t <= tol:
                    phi, c, F, fnorm = phi_t, c_t, F_t, fn_t
                    break
            lam *= 0.5
        else:
            return None
    return (phi, c) if fnorm <= tol else None


def _classify(sys: _System, phi: np.ndarray, c: float) -> tuple[bool, bool]:
    base = sys.bases(phi, c)
    positive = float(np.min(base)) > _BOUNDARY_MARGIN
    # a root touches the boundary when any single base sits at zero, even if
    # other summands have gone negative through the even-power extension
    boundary = bool(np.any(np.abs(base) <= _BOUNDARY_MARGIN))
    return positive, boundary


def _jacobian_of_root(sys: _System, phi: np.ndarray, c: float) -> Jacobian:
    E, _ = sys.evaluate(phi, c)
    vals = np.empty(sys.d ** (sys.k + 1))
    vals[sys.words] = E
    # row sums are 1 + residual; renormalize so Jacobian validation is exact
    rows = vals.reshape(sys.d, -1).sum(axis=0)
    return Jacobian(d=sys.d, k=sys.k, values=vals / np.tile(rows, sys.d))


def _continuation_root(sys: _System, q_tilde: QParam) -> tuple[np.ndarray, float] | None:
    phi = np.zeros(sys.n)
    c = _trivial_c(sys.d, q_tilde)
    t = 0.0
    dt = 1.0 / 64.0
    while t < 1.0 - 1e-15:
        target = min(1.0, t + dt)
        res = _newton(sys.with_values(target * sys.A_vals), phi, c)
        if res is None:
            dt *= 0.5
            if dt < 1e-4:
                return None  # continuation breakdown: domain crossing near t
            continue
        phi, c = res
        t = target
        dt = min(2.0 * dt, 1.0 / 64.0)
    return phi, c


def qruelle_solve(
    A: Potential,
    q_tilde: QParam | float,
    allow_boundary: bool = False,
    max_starts: int = 2000,
) -> list[SolveResult]:
    """All distinct roots found, sorted by c descending.

    Strategy: homotopy continuation along t*A from the trivial root
    (phi = 0, c solving d exp_qt(-c) = 1), then a multistart Newton lattice
    with phi components in {-3, -1.5, 0, 1.5, 3} and c in {c0, c0 +- 2,
    c0 +- 4}, capped at ``max_starts`` starts.  Roots are accepted at
    residual <= 1e-10, deduplicated at distance 1e-7, and classified by the
    sign margin of their summand bases.  Roots with a zero-base summand are
    reported only when ``allow_boundary`` is set.  An empty list is a valid
    outcome.  The list does not claim exhaustiveness.
    """
    qp = QParam.of(q_tilde)
    if A.memory > 4:
        raise SizeGuardError(f"memory {A.memory} exceeds the solver guard (4)")
    sys = _System(A, qp)
    c0 = _trivial_c(sys.d, qp)

    candidates: list[tuple[np.ndarray, float]] = []
    cont = _continuation_root(sys, qp)
    if cont is not None:
        candidates.append(cont)

    phi_levels = (-3.0, -1.5, 0.0, 1.5, 3.0)
    c_levels = (c0, c0 + 2.0, c0 - 2.0, c0 + 4.0, c0 - 4.0)
    lattice = itertools.product(itertools.product(phi_levels, repeat=sys.n - 1), c_levels)
    for free_phi, c_start in itertools.islice(lattice, max_starts):
        res = _newton(sys, np.concatenate(([0.0], free_phi)), c_start)
        if res is not None:
            candidates.append(res)

    roots: list[tuple[np.ndarray, float]] = []
    for phi, c in candidates:
        defect = sys.defect(phi, c)
        if defect is None or float(np.max(np.abs(defect))) > _ACCEPT_TOL:
            continue
        if any(
            abs(c - c2) < _DEDUP_TOL and np.max(np.abs(phi - p2)) < _DEDUP_TOL
            for p2, c2 in roots
        ):
            continue
        roots.append((phi, c))

    roots.sort(key=lambda r: (-r[1], tuple(r[0])))
    results: list[SolveResult] = []
    for phi, c in roots:
        positive, boundary = _classify(sys, phi, c)
        if boundary and not allow_boundary:
            continue
        defect = sys.defect(phi, c)
        assert defect is not None
        results.append(
            SolveResult(
                phi=phi,
                c=float(c),
                residual=float(np.max(np.abs(defect))),
                summands_positive=positive,
                jacobian=_jacobian_of_root(sys, phi, c) if positive else None,
                branch_id=len(results),
                boundary=boundary,
            )
        )
    return results


def jana_closed_form(a12: float, a21: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """Radical closed form for the zero-diagonal two-symbol family: two (phi2, c) pairs.

    c = (4 + sqrt(16 - (a12 - a21)^2)) / 2 and phi2 = -2 - a21 + c
    +- sqrt(4c - c^2).  Note these pairs do not zero the residual of the
    context system solved here (they satisfy the first context equation but
    not the second); the solver's own roots differ.
    """
    disc = 16.0 - (a12 - a21) ** 2
    if disc < 0.0:
        raise QThermoError(f"negative discriminant 16 - (a12 - a21)^2 = {disc}")
    c = (4.0 + math.sqrt(disc)) / 2.0
    disc2 = 4.0 * c - c * c
    if disc2 < 0.0:
        raise QThermoError(f"negative discriminant 4c - c^2 = {disc2}")
    root = math.sqrt(disc2)
    return ((-2.0 - a21 + c + root, c), (-2.0 - a21 + c - root, c))


def two_symbol_roots(a12: float, a21: float) -> tuple[float, tuple[float, float]]:
    """Exact roots of the zero-diagonal two-symbol system at q-tilde = 1/2.

    Subtracting the two context equations forces phi2 = (a12 - a21)/2; the
    remaining quadratic in c gives c = ((4 + s) +- sqrt(8 - s^2)) / 2 with
    s = (a12 + a21)/2.  Returns (phi2, (c_plus, c_minus)).
    """
    sbar = 0.5 * (a12 + a21)
    disc = 8.0 - sbar * sbar
    if disc < 0.0:
        raise QThermoError(f"negative discriminant 8 - s^2 = {disc}")
    root = math.sqrt(disc)
    return 0.5 * (a12 - a21), ((4.0 + sbar + root) / 2.0, (4.0 + sbar - root) / 2.0)


def supex_closed_form(
    a1: float, a2: float, b1: float, b2: float, s: float
) -> tuple[float, float]:
    """Closed-form (phi2, c) for the memory-1 family A + s*b at q-tilde = 1/2.

    With alpha_i = a_i + b_i s:  c(s) = (4 + alpha1 + alpha2)/2 and
    phi2(s) = (-alpha1 + alpha2 + sqrt(16 - (alpha1 - alpha2)^2))/2.
    The returned phi2 is the value on the first context with the second
    pinned to zero; the solver gauge (first context pinned) sees -phi2.
    dc/ds = (b1 + b2)/2 exactly.
    """
    al1, al2 = a1 + b1 * s, a2 + b2 * s
    disc = 16.0 - (al1 - al2) ** 2
    if disc < 0.0:
        raise QThermoError(f"negative square-root argument {disc}")
    phi2 = 0.5 * (-al1 + al2 + math.sqrt(disc))
    c = 0.5 * (4.0 + al1 + al2)
    return phi2, c


def explimeq_family(
    q_tilde: QParam | float, q1: float, q2: float
) -> tuple[float, float, float, float]:
    """Generate (a12, a22, phi2, c) with a11 = a21 = 0 solving the system exactly.

    Construction: the first-context summands are pinned to (q1, 1 - q1) and
    the second-context summands to (1 - q2, q2), which gives
    c = -log_qt(q1), phi2 = log_qt(1 - q1) + c, a12 = log_qt(1 - q2)
    + phi2 + c, a22 = log_qt(q2) + c.
    """
    qp = QParam.of(q_tilde)
    if not (0.0 < q1 < 1.0 and 0.0 < q2 < 1.0):
        raise ValueError("q1 and q2 must lie in (0, 1)")
    c = -log_q(q1, qp)
    phi2 = log_q(1.0 - q1, qp) + c
    a12 = log_q(1.0 - q2, qp) + phi2 + c
    a22 = log_q(q2, qp) + c
    return a12, a22, phi2, c


def _neg_log_q_inv(J: Jacobian, q: QParam) -> Potential:
    """-log_q(1/J) as a memory-(k+1) potential."""
    vals = -log_q(1.0 / J.values, q)
    return Potential(d=J.d, memory=J.k + 1, values=vals)


def q_equilibrium(
    A: Potential, q: QParam | float
) -> tuple[float, MarkovMeasure, SolveResult]:
    """q-pressure, q-equilibrium Markov measure, and the selected branch.

    Solves at q-tilde = 2 - q and keeps the positive-summand branches; among
    them the branch whose Jacobian equilibrium maximizes H_q(mu) + int A dmu
    is selected (ties broken by branch_id).  As a consistency check the
    potential -log_q(1/J) of the selected branch is re-solved and the root
    constant nearest zero must vanish to 1e-8.
    """
    qp = QParam.of(q)
    qt = qp.dual
    branches = [b for b in qruelle_solve(A, qt) if b.summands_positive]
    if not branches:
        raise NonConvergenceError("no branch with strictly positive summands")
    best: tuple[float, int, MarkovMeasure, SolveResult] | None = None
    for b in branches:
        assert b.jacobian is not None
        mu = equilibrium_markov(b.jacobian)
        value = q_entropy_markov(mu, qp) + mu.integrate(A)
        if best is None or value > best[0] + 1e-12:
            best = (value, b.branch_id, mu, b)
    assert best is not None
    _, _, mu, branch = best
    assert branch.jacobian is not None
    re_solved = qruelle_solve(_neg_log_q_inv(branch.jacobian, qp), qt)
    if not re_solved or min(abs(r.c) for r in re_solved) > 1e-8:
        raise NonConvergenceError("re-solve of -log_q(1/J) did not return to c = 0")
    return branch.c, mu, branch


def a_q_transform(A: Potential, q: QParam | float) -> Potential:
    """Entrywise log(1 + (1-q)A)/(1-q); classical identity map at q = 1.

    The transformed potential satisfies e^{A_q} = exp_q(A), so the classical
    transfer operator of A_q coincides with the operator that sums
    exp_q(A(a x)) f(a x).
    """
    qp = QParam.of(q)
    vals = np.asarray(A.values, dtype=float)
    if qp.classical:
        return Potential(d=A.d, memory=A.memory, values=vals)
    base = 1.0 + (1.0 - qp.q) * vals
    if np.any(base <= 0.0):
        bad = float(vals.ravel()[np.argmin(base)])
        raise QExpDomainError(
            f"potential entry {bad} violates 1 + (1-q)A > 0", argument=bad
        )
    return Potential(
        d=A.d, memory=A.memory, values=np.log1p((1.0 - qp.q) * vals) / (1.0 - qp.q)
    )


def _g_half(a1: float, a2: float, C: float, a: float) -> float:
    """Closed-form bridge increment at q = 1/2: g = 2 - r - 4 e^{-r/2}/(2+a)."""
    r = a1 - a2 - C
    return 2.0 - r - 4.0 * math.exp(-r / 2.0) / (2.0 + a)


def bridge_general_g(
    a: float, a1: float, a2: float, C: float, q: QParam | float
) -> float:
    """Solve exp_{2-q}(g + r) = exp_q(a) e^r for g, where r = a1 - a2 - C.

    Uses the closed inverse g = log_{2-q}(exp_q(a) e^r) - r, with
    log_{2-q}(v) = (v^{q-1} - 1)/(q - 1).  At q = 1/2 this agrees with the
    algebraic form 2 - r - 4 e^{-r/2}/(2 + a).
    """
    qp = QParam.of(q)
    r = a1 - a2 - C
    if qp.classical:
        return float(a)
    base = 1.0 + (1.0 - qp.q) * a
    if base <= 0.0:
        raise QExpDomainError(f"exp_q argument {a} outside domain", argument=float(a))
    # log of the right-hand side, kept in log form for stability
    log_rhs = math.log(base) / (1.0 - qp.q) + r
    g = math.expm1((qp.q - 1.0) * log_rhs) / (qp.q - 1.0) - r
    return g


def bridge_half(A: Potential) -> tuple[Potential, np.ndarray, float]:
    """Bridge a potential into the 3/2-deformed equation via its classical data.

    Transforms A at q = 1/2, takes the classical eigendata of the transformed
    potential (phi_B = log h, c_B = log lambda), and builds the
    memory-(k+1) potential B(w) = g(phi_B(w[:k]), phi_B(w[1:]), c_B, A(w)).
    The pair (phi_B, c_B) then solves the q-tilde = 3/2 equation for B; the
    residual is verified to 1e-9 on every context.
    """
    vals = np.asarray(A.values, dtype=float)
    if np.any(vals <= -2.0):
        raise QExpDomainError(
            f"entry {float(vals.min())} must exceed -2 for the q = 1/2 transform",
            argument=float(vals.min()),
        )
    A_half = a_q_transform(A, 0.5)
    M = transfer_matrix(A_half)
    lam, h, _ = leading_eig(M)
    phi_B = np.log(h)
    c_B = math.log(lam)
    d, k = M.d, M.k
    w = np.arange(d ** (k + 1))
    heads, tails = phi_B[drop_last(w, d)], phi_B[drop_first(w, d, k + 1)]
    args = zip(heads, tails, A.values[prefix_index(w, d, k + 1, A.memory)])
    # scalar _g_half per entry: its math.exp may differ from np.exp in the last bit
    B_vals = [_g_half(a1, a2, c_B, a) for a1, a2, a in args]
    B = Potential(d=d, memory=k + 1, values=B_vals)
    defect = qruelle_residual(B, QParam(1.5), phi_B, c_B)
    if float(np.max(np.abs(defect))) > 1e-9:
        raise NonConvergenceError("bridged equation residual above 1e-9")
    return B, phi_B, c_B


def _base_branch(A: Potential, q_tilde: QParam, branch_index: int) -> SolveResult:
    branches = qruelle_solve(A, q_tilde)
    if len(branches) <= branch_index:
        raise NonConvergenceError("no branch available at s = 0")
    return branches[branch_index]


def _tracked_slope(
    A: Potential, B: Potential, q_tilde: QParam, base: SolveResult, h: float
) -> tuple[dict[float, tuple[np.ndarray, float]], float]:
    """Roots of A + s*B tracked to s = +-h, +-h/2, and dc/ds at 0 by Richardson."""
    if A.d != B.d:
        raise ValueError("alphabet mismatch")
    # contexts of A + s*B live on the coarser common memory
    sys = _System(A, q_tilde, k=max(A.context_length(), B.context_length()))
    B_vals = sys.values_of(B)
    tracked = {s: _track_root(sys, B_vals, base.phi, base.c, s) for s in (h, -h, h / 2, -h / 2)}
    d1 = (tracked[h][1] - tracked[-h][1]) / (2.0 * h)
    d2 = (tracked[h / 2][1] - tracked[-h / 2][1]) / h
    return tracked, (4.0 * d2 - d1) / 3.0


def _track_root(
    sys: _System, B_vals: np.ndarray, phi: np.ndarray, c: float, s: float
) -> tuple[np.ndarray, float]:
    """Continue a root of sys to A + s*B in small steps (no re-multistart)."""
    steps = 8
    cur_phi, cur_c = phi.copy(), c
    for i in range(1, steps + 1):
        res = _newton(sys.with_values(sys.A_vals + s * i / steps * B_vals), cur_phi, cur_c)
        if res is None:
            raise NonConvergenceError(f"branch tracking failed at s = {s * i / steps}")
        cur_phi, cur_c = res
    return cur_phi, cur_c


def pressure_derivative(
    A: Potential,
    B: Potential,
    q: QParam | float,
    h_step: float = 1e-4,
    branch_index: int = 0,
) -> float:
    """d/ds of the branch constant of A + s*B at s = 0.

    Central differences at h and h/2 with one Richardson extrapolation; the
    branch is tracked by continuation in s from the s = 0 root (never by a
    fresh multistart, to avoid branch hopping).
    """
    qt = QParam.of(q).dual
    return _tracked_slope(A, B, qt, _base_branch(A, qt, branch_index), h_step)[1]


@dataclass(frozen=True)
class DerivativeIdentityReport:
    """Both sides of the first-order pressure identity at q = 1/2."""

    dPds: float
    quotient: float
    defect: float


def derivative_identity_report(
    A: Potential, B: Potential, h_step: float = 1e-4, branch_index: int = 0
) -> DerivativeIdentityReport:
    """Compare dc/ds against the integral quotient on the branch measure (q = 1/2).

    The right-hand side is
    [int J^{1/2} B dmu + int J^{1/2} (phidot - phidot o sigma) dmu]
    / int J^{1/2} dmu, with phidot the finite-difference derivative of the
    tracked branch's phi and mu the branch's equilibrium measure.  Requires a
    positive-summand branch.
    """
    qt = QParam(1.5)  # the q = 1/2 pressure solves the 3/2-deformed equation
    base = _base_branch(A, qt, branch_index)
    if not base.summands_positive or base.jacobian is None:
        raise NonConvergenceError("identity check needs a positive-summand branch")
    h = h_step
    tracked, dPds = _tracked_slope(A, B, qt, base, h)
    phidot = (tracked[h / 2][0] - tracked[-h / 2][0]) / h

    mu = equilibrium_markov(base.jacobian)
    d, k = base.jacobian.d, base.jacobian.k
    w = np.arange(d ** (k + 1))
    terms = B.values[prefix_index(w, d, k + 1, B.memory)] + (
        phidot[drop_last(w, d)] - phidot[drop_first(w, d, k + 1)]
    )
    # accumulate left to right: the defect is ~1e-7, so one ulp of the
    # quotient shows in its printed digits
    num = 0.0
    den = 0.0
    for mass, jac, term in zip(mu.cylinder_masses(k + 1), base.jacobian.values, terms):
        wgt = mass * jac**0.5
        num += wgt * term
        den += wgt
    quotient = num / den
    return DerivativeIdentityReport(dPds=dPds, quotient=quotient, defect=abs(dPds - quotient))
