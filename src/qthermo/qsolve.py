"""Multi-branch solver for the deformed transfer-operator equation.

For a locally constant potential A of memory m on d symbols, a deformation
index q-tilde, context words of length k = max(m - 1, 1), and unknowns
(phi, c) with the gauge phi(first context) = 0, the equation reads

    sum_a exp_qt( A(a x) + phi(prefix_k(a x)) - phi(x) - c ) = 1

for every context word x.  A root with positive summands is the unique
fixed point, T(phi) = phi + c, of a monotone cut-off map, found by relative
value iteration; T is ``qfun._cutoff_root`` per context, the kernel of the
variational scan and the static equilibrium too.  When 1/(1 - qt) is an even
positive integer the q-exponential extends to a global polynomial and a batched multistart Newton
lattice also finds roots whose summand bases are negative or zero; otherwise
evaluation is strict and the fixed point is the only root.  The classical
case qt = 1 is left to ``ruelle``.

The constant c of the branch whose summands are all strictly positive is the
dynamical q-pressure of A at q = 2 - qt, and the summands themselves form
the Jacobian of the associated q-equilibrium Markov measure.

Along A + s*B a root moves differentiably; its derivative (phidot, cdot)
solves the cohomological equation, the s-derivative of the one above, whose
matrix is the Newton matrix.  ``pressure_derivative`` is that one solve;
``derivative_identity_report`` checks it against the paper's integral
quotient, with phidot from a central difference of Newton roots.
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergenceError, QExpDomainError, QThermoError, SizeGuardError
from .qfun import QParam, _cutoff_root, _relative_value_iteration, even_power_order, log_q
from .ruelle import (
    Jacobian,
    MarkovMeasure,
    _context_tables,
    _guarded_context_length,
    _log_fixed_point,
    equilibrium_markov,
)
from .shift import Potential, drop_first, drop_last, index_word, prefix_index

_ACCEPT_TOL = 1e-10
_DEDUP_TOL = 1e-7
_BOUNDARY_MARGIN = 1e-12
_NEWTON_TOL = 1e-12
_NEWTON_ITERS = 60


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
    ``A_vals`` the potential on it.  The evaluations take a batch of S rows,
    phi as an (S, n) array and c as an (S,) array, and return arrays whose
    leading axis is the row.  ``bases`` sets every row outside the strict
    domain to NaN, so the defects and summands built on it are NaN there too.
    """

    def __init__(self, A: Potential, q_tilde: QParam, k: int | None = None):
        if q_tilde.classical:
            raise ValueError(
                "the deformed equation needs q-tilde != 1; at q-tilde = 1 (q = 1) use "
                "ruelle.classical_pressure and ruelle.equilibrium_markov"
            )
        self.d = A.d
        self.k = A.context_length() if k is None else k
        self.n = self.d**self.k
        self.qt = float(q_tilde.q)
        self.order = even_power_order(q_tilde)
        self.power = self.order if self.order is not None else 1.0 / (1.0 - self.qt)
        self.words, self.pre_idx, self.A_vals = _context_tables(A, self.k)
        self.diag = np.arange(self.n)

    def values_of(self, A: Potential) -> np.ndarray:
        """The table of A over the words a.x."""
        return A.values[prefix_index(self.words, self.d, self.k + 1, A.memory)]

    def with_values(self, A_vals: np.ndarray) -> "_System":
        """The same tables carrying another potential table."""
        out = copy.copy(self)
        out.A_vals = A_vals
        return out

    def arguments(self, PHI: np.ndarray, C: np.ndarray) -> np.ndarray:
        return self.A_vals + PHI[:, self.pre_idx] - PHI[:, :, None] - C[:, None, None]

    def bases(self, PHI: np.ndarray, C: np.ndarray) -> np.ndarray:
        """The bases 1 + (1 - qt)*argument, (S, n, d); NaN on rows outside the domain.

        Only the strict case has a domain: a row leaves it when any base is at
        or below 1e-300.  The row is masked before a power of it is taken, so
        its summands are NaN rather than an overflow.
        """
        base = 1.0 + (1.0 - self.qt) * self.arguments(PHI, C)
        if self.order is None:
            base[(base <= 1e-300).any(axis=(1, 2))] = np.nan
        return base

    def defect(self, PHI: np.ndarray, C: np.ndarray) -> np.ndarray:
        """Per-context defect, (S, n); NaN on rows outside the domain."""
        return self.defect_of_bases(self.bases(PHI, C))

    def defect_of_bases(self, base: np.ndarray) -> np.ndarray:
        """Per-context defect, (S, n), from the bases."""
        return (base**self.power).sum(axis=2) - 1.0

    def newton_steps(self, base: np.ndarray, F: np.ndarray) -> np.ndarray:
        """Newton steps on the free unknowns (phi[1:], c) of every row, (S, n).

        phi[0] stays 0 (the gauge).  One singular matrix makes the stacked
        solve raise for all of them; the rows are then solved one at a time,
        each falling back to least squares when its own matrix is singular.
        """
        n, diag = self.n, self.diag
        dE = base ** (self.power - 1)
        dsum = dE.sum(axis=2)
        Jfull = np.zeros((len(F), n, n + 1))
        # the k-prefixes of a.x are distinct over a, so assignment is the sum
        Jfull[:, diag[:, None], self.pre_idx] = dE
        Jfull[:, diag, diag] -= dsum
        Jfull[:, :, n] = -dsum
        Jmat = Jfull[:, :, 1:]
        try:
            return np.linalg.solve(Jmat, -F[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            return np.array([_solve_or_lstsq(J, -f) for J, f in zip(Jmat, F)])


def _solve_or_lstsq(J: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(J, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(J, rhs, rcond=None)[0]


def _trivial_c(d: int, q_tilde: QParam) -> float:
    return -log_q(1.0 / d, q_tilde)


def qruelle_residual(
    A: Potential, q_tilde: QParam | float, phi: np.ndarray, c: float
) -> np.ndarray:
    """Per-context defect of the deformed equation at the given (phi, c).

    Raises
    ------
    ValueError
        at q-tilde = 1, as ``qruelle_solve`` does.
    QExpDomainError
        naming the offending (symbol, context) when a summand argument falls
        outside the q-exponential domain and no even-power extension applies.
    """
    qp = QParam.of(q_tilde)
    sys = _System(A, qp)
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (sys.n,):
        raise ValueError(f"phi must have one entry per length-{sys.k} context")
    args = sys.arguments(phi[None], np.array([float(c)]))
    base = 1.0 + (1.0 - sys.qt) * args
    if sys.order is None and np.any(base <= 0.0):
        _, j, a = map(int, np.argwhere(base <= 0.0)[0])
        ctx = "".join(map(str, index_word(j, sys.d, sys.k)))
        arg = float(args[0, j, a])
        raise QExpDomainError(
            f"exp_q domain violated at summand a={a + 1}, context {ctx} (u={arg})",
            argument=arg,
        )
    return sys.defect_of_bases(base)[0]


def _newton(
    sys: _System, PHI: np.ndarray, C: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Damped Newton on the free unknowns (phi[1:], c) of every row of a batch.

    Each row runs as it would alone: its own convergence test at
    ``_NEWTON_TOL``, its own backtracking step length (halved only when its
    own trial is rejected, at most 30 times) and its own failure (a start
    outside the domain, a non-finite step, or an exhausted line search).  The
    rows stay in place; ``live`` marks those still iterating.  Returns the
    final (PHI, C) and the mask of converged rows; a row that did not converge
    holds its last iterate.
    """
    PHI = np.array(PHI, dtype=float)
    C = np.array(C, dtype=float)
    base = sys.bases(PHI, C)
    F = sys.defect_of_bases(base)
    fnorm = np.abs(F).max(axis=1)
    converged = fnorm <= _NEWTON_TOL
    live = ~(converged | np.isnan(fnorm))
    for _ in range(_NEWTON_ITERS):
        rows = np.flatnonzero(live)
        if not rows.size:
            break
        step = sys.newton_steps(base[rows], F[rows])
        finite = np.isfinite(step).all(axis=1)
        live[rows[~finite]] = False
        rows, step = rows[finite], step[finite]
        # line search: the rows still pending in a round share one lam
        lam = 1.0
        for _ in range(30):
            phi_t = PHI[rows]
            phi_t[:, 1:] += lam * step[:, :-1]
            c_t = C[rows] + lam * step[:, -1]
            base_t = sys.bases(phi_t, c_t)
            F_t = sys.defect_of_bases(base_t)
            fn_t = np.abs(F_t).max(axis=1)  # NaN outside the domain: rejected
            accept = (fn_t < fnorm[rows]) | (fn_t <= _NEWTON_TOL)
            if accept.all():
                PHI[rows], C[rows], base[rows] = phi_t, c_t, base_t
                F[rows], fnorm[rows] = F_t, fn_t
                break
            done = rows[accept]
            PHI[done], C[done], base[done] = phi_t[accept], c_t[accept], base_t[accept]
            F[done], fnorm[done] = F_t[accept], fn_t[accept]
            rows, step = rows[~accept], step[~accept]
            lam *= 0.5
        else:
            live[rows] = False
        converged |= fnorm <= _NEWTON_TOL
        live &= ~converged
    return PHI, C, converged


def _classify(sys: _System, phi: np.ndarray, c: float) -> tuple[bool, bool]:
    base = sys.bases(phi[None], np.array([c]))
    positive = float(np.min(base)) > _BOUNDARY_MARGIN
    # a root touches the boundary when any single base sits at zero, even if
    # other summands have gone negative through the even-power extension
    boundary = bool(np.any(np.abs(base) <= _BOUNDARY_MARGIN))
    return positive, boundary


def _jacobian_of_root(sys: _System, phi: np.ndarray, c: float) -> Jacobian:
    E = sys.bases(phi[None], np.array([c])) ** sys.power
    vals = np.empty(sys.d ** (sys.k + 1))
    vals[sys.words] = E[0]
    # row sums are 1 + residual; renormalize so Jacobian validation is exact
    rows = vals.reshape(sys.d, -1).sum(axis=0)
    return Jacobian(d=sys.d, k=sys.k, values=vals / np.tile(rows, sys.d))


def _topical_root(sys: _System) -> tuple[np.ndarray, float, bool]:
    """(phi, c, positive) with T(phi) = phi + c, T the cut-off map.

    T(phi)(x) is the t with sum_a E(A(a x) + phi(prefix_k(a x)) - t) = 1, E
    the cut-off q-exponential.  Relative value iteration brackets c; at
    hi - lo <= 1e-3*max(1, |hi|) with every base above the margin ``_newton``
    finishes the root, and one more Newton step is kept unless it raises the
    defect.  Otherwise it runs to 1e-12*max(1, |hi|).  ``positive``: every
    base clears the margin.  NonConvergenceError after 5,000 iterations.
    """

    def T(phi: np.ndarray) -> np.ndarray:
        return _cutoff_root(sys.A_vals + phi[sys.pre_idx], sys.qt)

    newton_tried = False
    for phi, lo, hi in _relative_value_iteration(T, sys.n):
        c = 0.5 * (lo + hi)
        width = (hi - lo) / max(1.0, abs(hi))
        if width <= 1e-3 and not newton_tried and _classify(sys, phi, c)[0]:
            newton_tried = True
            PHI, C, ok = _newton(sys, phi[None], np.array([c]))
            if ok[0]:
                base = sys.bases(PHI, C)
                F = sys.defect_of_bases(base)
                step = sys.newton_steps(base, F)
                if np.isfinite(step).all():
                    PHI_t = PHI.copy()
                    PHI_t[:, 1:] += step[:, :-1]
                    C_t = C + step[:, -1]
                    if np.abs(sys.defect(PHI_t, C_t)).max() <= np.abs(F).max():  # NaN: keep
                        PHI, C = PHI_t, C_t
                return PHI[0], float(C[0]), _classify(sys, PHI[0], C[0])[0]
        if width <= 1e-12:
            return phi, c, _classify(sys, phi, c)[0]


def qruelle_solve(
    A: Potential,
    q_tilde: QParam | float,
    allow_boundary: bool = False,
    max_starts: int = 2000,
) -> list[SolveResult]:
    """All distinct roots found, sorted by c descending.

    Domain: q-tilde > 0 and q-tilde != 1 (outside ``qfun.CLASSICAL_Q_TOL`` of 1).
    At q-tilde = 1 the equation is the classical eigen-equation, which
    ``ruelle.classical_pressure`` and ``ruelle.equilibrium_markov`` solve;
    this raises ValueError there.

    Strategy: the first candidate is the fixed point of the cut-off map
    (``_topical_root``, which raises NonConvergenceError when its iteration
    stalls).  Only where 1/(1 - qt) is an even integer does a batched
    multistart Newton lattice follow, with phi components in
    {-3, -1.5, 0, 1.5, 3} and c in {c0, c0 +- 2, c0 +- 4} (c0 the constant of
    the zero potential), capped at ``max_starts`` starts.  Roots are accepted
    at residual <= 1e-10, deduplicated at distance 1e-7, and classified by the
    sign margin of their summand bases.  Roots with a zero-base summand are
    reported only when ``allow_boundary`` is set.  An empty list is valid.

    At every other q-tilde the list is complete: every root has positive
    bases, so it solves T(phi) = phi + c for the cut-off map T, which is
    monotone and commutes with constants.  T's derivative there is positive
    on every edge of the strongly connected de Bruijn graph, so the solution
    is unique up to constants (Gaubert & Gunawardena, Trans. AMS 356, 2004).
    """
    qp = QParam.of(q_tilde)
    if A.memory > 4:
        raise SizeGuardError(f"memory {A.memory} exceeds the solver guard (4)")
    sys = _System(A, qp)
    phi, c, _ = _topical_root(sys)
    PHI, C = phi[None], np.array([c])
    if sys.order is not None:
        c0 = _trivial_c(sys.d, qp)
        phi_levels = (-3.0, -1.5, 0.0, 1.5, 3.0)
        c_levels = (c0, c0 + 2.0, c0 - 2.0, c0 + 4.0, c0 - 4.0)
        lattice = itertools.product(itertools.product(phi_levels, repeat=sys.n - 1), c_levels)
        starts = list(itertools.islice(lattice, max_starts))
        PHI_l = np.zeros((len(starts), sys.n))
        PHI_l[:, 1:] = [free_phi for free_phi, _ in starts]
        PHI_l, C_l, converged = _newton(sys, PHI_l, np.array([c_start for _, c_start in starts]))
        # candidates in order: the topical root, then the lattice rows
        PHI, C = np.vstack([PHI, PHI_l[converged]]), np.concatenate([C, C_l[converged]])
    residuals = np.abs(sys.defect(PHI, C)).max(axis=1)

    roots: list[tuple[np.ndarray, float, float]] = []
    for phi, c, residual in zip(PHI, C, residuals):
        if not residual <= _ACCEPT_TOL:  # NaN: outside the domain
            continue
        if any(
            abs(c - c2) < _DEDUP_TOL and np.max(np.abs(phi - p2)) < _DEDUP_TOL
            for p2, c2, _ in roots
        ):
            continue
        roots.append((phi, c, residual))

    roots.sort(key=lambda r: (-r[1], tuple(r[0])))
    results: list[SolveResult] = []
    for phi, c, residual in roots:
        positive, boundary = _classify(sys, phi, c)
        if boundary and not allow_boundary:
            continue
        results.append(
            SolveResult(
                phi=phi.copy(),
                c=float(c),
                residual=float(residual),
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


def q_equilibrium(A: Potential, q: QParam | float) -> tuple[float, MarkovMeasure, SolveResult]:
    """q-pressure, q-equilibrium Markov measure, and the positive branch.

    The branch is the one root of ``qruelle_solve`` at q-tilde = 2 - q with
    strictly positive summands (NonConvergenceError if there is none); the
    measure is the equilibrium of its Jacobian.
    """
    branch = next((b for b in qruelle_solve(A, QParam.of(q).dual) if b.summands_positive), None)
    if branch is None:
        raise NonConvergenceError("no branch with strictly positive summands")
    assert branch.jacobian is not None
    return branch.c, equilibrium_markov(branch.jacobian), branch


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
    potential (phi_B = log h in the gauge phi_B(first context) = 0, c_B = log
    lambda, the q-tilde = 1 fixed point ``ruelle._log_fixed_point``), and builds the
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
    d, k = A.d, _guarded_context_length(A)
    _, pre_idx, A_vals = _context_tables(a_q_transform(A, 0.5), k)
    phi_B, c_B = _log_fixed_point(A_vals, pre_idx)
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


def _branch_slope(
    A: Potential, B: Potential, q_tilde: QParam, branch_index: int
) -> tuple[SolveResult, _System, np.ndarray, np.ndarray, float]:
    """The chosen root of A and dc/ds at s = 0 along A + s*B.

    Differentiating the deformed equation in s at the root gives, for every
    context x, the cohomological equation
        sum_a E'(u_a(x)) (B(a x) + phidot(prefix_k(a x)) - phidot(x) - cdot) = 0
    with E'(u) = base^(power - 1).  Its matrix is the Newton matrix, so one
    ``newton_steps`` call with F(x) = sum_a E'(u_a(x)) B(a x) returns
    (phidot[1:], cdot).  Also returns the system of A on the common context
    length, the table of B and the root's phi on it.
    """
    if A.d != B.d:
        raise ValueError("alphabet mismatch")
    branches = qruelle_solve(A, q_tilde)
    if len(branches) <= branch_index:
        raise NonConvergenceError("no branch available at s = 0")
    root = branches[branch_index]
    # contexts of A + s*B have the longer common length K; the root on A's
    # k-contexts, read through the k-prefix, is a root on the K-contexts
    k = A.context_length()
    sys = _System(A, q_tilde, k=max(k, B.context_length()))
    B_vals = sys.values_of(B)
    phi = root.phi[prefix_index(np.arange(sys.n), sys.d, sys.k, k)]
    bases = sys.bases(phi[None], np.array([root.c]))
    rhs = (bases ** (sys.power - 1) * B_vals).sum(axis=2)
    return root, sys, B_vals, phi, float(sys.newton_steps(bases, rhs)[0, -1])


def pressure_derivative(
    A: Potential, B: Potential, q: QParam | float, branch_index: int = 0
) -> float:
    """d/ds of the branch constant of A + s*B at s = 0.

    The branch is root ``branch_index`` of ``qruelle_solve`` at q-tilde = 2 - q,
    of any sign pattern; the derivative is one linear solve of the
    cohomological equation at it (implicit-function theorem).
    """
    return _branch_slope(A, B, QParam.of(q).dual, branch_index)[-1]


@dataclass(frozen=True)
class DerivativeIdentityReport:
    """Both sides of the first-order pressure identity at q = 1/2."""

    dPds: float
    quotient: float
    defect: float


def derivative_identity_report(
    A: Potential, B: Potential, branch_index: int = 0
) -> DerivativeIdentityReport:
    """Compare dc/ds against the integral quotient on the branch measure (q = 1/2).

    ``dPds`` is ``pressure_derivative``'s solve.  The right-hand side is
    [int J^{1/2} B dmu + int J^{1/2} (phidot - phidot o sigma) dmu]
    / int J^{1/2} dmu, with mu the branch's equilibrium measure and phidot
    found independently of that solve: the central difference of the roots
    at s = +-5e-5, each one Newton solve from the s = 0 root.  Requires a
    positive-summand branch.
    """
    # the q = 1/2 pressure solves the 3/2-deformed equation
    base, sys, B_vals, phi, dPds = _branch_slope(A, B, QParam(1.5), branch_index)
    if not base.summands_positive or base.jacobian is None:
        raise NonConvergenceError("identity check needs a positive-summand branch")
    h = 5e-5
    moved = []
    for s in (h, -h):
        at = sys.with_values(sys.A_vals + s * B_vals)
        PHI, _, ok = _newton(at, phi[None], np.array([base.c]))
        if not ok[0]:
            raise NonConvergenceError(f"Newton solve at s = {s} did not converge")
        moved.append(PHI[0])
    phidot = (moved[0] - moved[1]) / (2.0 * h)

    mu = equilibrium_markov(base.jacobian)
    d, k, K = sys.d, base.jacobian.k, sys.k
    # phidot lives on the common context length K >= k; read the Jacobian
    # and B on (K+1)-words through their prefixes (the identity when K = k)
    w = np.arange(d ** (K + 1))
    jac_vals = base.jacobian.values[prefix_index(w, d, K + 1, k + 1)]
    terms = B.values[prefix_index(w, d, K + 1, B.memory)] + (
        phidot[drop_last(w, d)] - phidot[drop_first(w, d, K + 1)]
    )
    # accumulate left to right: the defect is ~1e-13, so one ulp of the
    # quotient shows in its printed digits
    num = 0.0
    den = 0.0
    for mass, jac, term in zip(mu.cylinder_masses(K + 1), jac_vals, terms):
        wgt = mass * jac**0.5
        num += wgt * term
        den += wgt
    quotient = num / den
    return DerivativeIdentityReport(dPds=dPds, quotient=quotient, defect=abs(dPds - quotient))
