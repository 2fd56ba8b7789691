"""Multi-branch solver for the deformed transfer-operator equation.

For a locally constant potential A of memory m on d symbols, a deformation
index q-tilde, context words of length k = max(m - 1, 1), and unknowns
(phi, c) with the gauge phi(first context) = 0, the equation reads

    sum_a exp_qt( A(a x) + phi(prefix_k(a x)) - phi(x) - c ) = 1

for every context word x; at qt = 1 exp_qt is exp and the equation is the
classical eigen-equation.  A root with positive summands is the unique
fixed point, T(phi) = phi + c, of a monotone cut-off map, found by
``ruelle._topical_root``, the one root kernel at every qt: the library's one
fixed-point loop on the map ``qfun._cutoff_root`` per context, with Newton
steps on T(phi) = phi + c itself; ``positive_branch`` returns that root.  When
1/(1 - qt) is an even positive integer the q-exponential extends to a global
polynomial and ``qruelle_solve`` also runs a batched multistart Newton lattice
for roots whose summand bases are negative or zero; otherwise evaluation is
strict and the fixed point is the only root.

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

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergenceError, QExpDomainError, QThermoError, SizeGuardError
from .qfun import QParam, _log_exp_q, _per_entry, log_q
from .ruelle import (
    Jacobian,
    MarkovMeasure,
    _guarded_context_length,
    _judge,
    _newton,
    _newton_steps,
    _stacked_system,
    _System,
    _topical_root,
    equilibrium_markov,
)
from .shift import Potential, drop_first, drop_last, index_word, prefix_index

_ACCEPT_TOL = 1e-10
_DEDUP_TOL = 1e-7
_MAX_STARTS = 2000
_PHI_LEVELS = np.array([-3.0, -1.5, 0.0, 1.5, 3.0])


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
    args = sys.arguments(phi[None], np.array([float(c)]))
    base = 1.0 + (1.0 - sys.qt) * args
    if sys.order is None and not sys.classical and np.any(base <= 0.0):
        _, j, a = map(int, np.argwhere(base <= 0.0)[0])
        ctx = "".join(map(str, index_word(j, sys.d, sys.k)))
        arg = float(args[0, j, a])
        raise QExpDomainError(
            f"exp_q domain violated at summand a={a + 1}, context {ctx} (u={arg})",
            argument=arg,
        )
    return sys.defect(args)[0]


def _solver_system(As: list[Potential], qp: QParam, name: str) -> _System:
    """``_stacked_system`` of a stack, behind the solver's memory guard (4)."""
    for A in As:
        if A.memory > 4:
            raise SizeGuardError(f"memory {A.memory} exceeds the solver guard (4)")
    return _stacked_system(As, qp, name)


def _result(sys: _System, phi, c, residual, E, positive=True, boundary=False, branch_id=0) -> SolveResult:
    """One judged root (``ruelle._judge``) as a SolveResult; a positive root's Jacobian is its E."""
    jacobian = None
    if positive:
        vals = np.empty(sys.d ** (sys.k + 1))
        vals[sys.words] = E
        # row sums are 1 + residual; renormalize so Jacobian validation is exact
        rows = vals.reshape(sys.d, -1).sum(axis=0)
        jacobian = Jacobian(d=sys.d, k=sys.k, values=vals / np.tile(rows, sys.d))
    return SolveResult(phi=phi.copy(), c=float(c), residual=float(residual), summands_positive=bool(positive),
                       jacobian=jacobian, branch_id=branch_id, boundary=bool(boundary))


def positive_branch(A: Potential, q_tilde: QParam | float) -> SolveResult | None:
    """``qruelle_solve``'s root with positive summands, found without the lattice, or None."""
    return positive_branches([A], q_tilde)[0]


def positive_branches(As: list[Potential], q_tilde: QParam | float) -> list[SolveResult | None]:
    """``positive_branch`` of each A of a stack sharing (d, k), each as it is alone: one
    ``_topical_root`` call for the fixed points and one ``_judge`` call for their residuals and signs."""
    sys = _solver_system(As, QParam.of(q_tilde), "positive_branches")
    PHI, C = _topical_root(sys)
    residual, positive, _, E = _judge(sys, PHI, C)
    return [_result(sys, phi, c, res, e) if res <= _ACCEPT_TOL and pos else None  # NaN: not accepted
            for phi, c, res, pos, e in zip(PHI, C, residual, positive, E)]


def _lattice_starts(n: int, c0: float, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """The first ``cap`` Newton starts (PHI, C) of the lattice on n contexts, phi[0] = 0.

    Start i has c level i % 5 of (c0, c0 + 2, c0 - 2, c0 + 4, c0 - 4) and phi[1:] the base-5
    digits of i // 5 over ``_PHI_LEVELS``, most significant first: the order of
    itertools.product(itertools.product(phi_levels, repeat=n - 1), c_levels).
    """
    i = np.arange(min(5**n, cap))  # a Python int: 5**n overflows int64 from n = 28
    PHI, rest = np.full((len(i), n), _PHI_LEVELS[0]), i // 5
    PHI[:, 0] = 0.0
    for col in range(n - 1, 0, -1):  # the last digit first
        if not rest.any():  # only the last few digits of i // 5 < cap are non-zero
            break
        PHI[:, col], rest = _PHI_LEVELS[rest % 5], rest // 5
    return PHI, np.array([c0, c0 + 2.0, c0 - 2.0, c0 + 4.0, c0 - 4.0])[i % 5]


def qruelle_solve(
    A: Potential,
    q_tilde: QParam | float,
    allow_boundary: bool = False,
) -> list[SolveResult]:
    """All distinct roots found, sorted by c descending.

    Domain: q-tilde > 0.  Within ``qfun.CLASSICAL_Q_TOL`` of 1 the equation is
    the classical eigen-equation, and its one root is (log h, log lambda) of
    the transfer matrix, as ``ruelle.classical_pressure`` finds it.

    Strategy: the first candidate is the fixed point of the cut-off map
    (``_topical_root``, which raises NonConvergenceError when its iteration
    stalls).  Only where 1/(1 - qt) is an even integer does a batched
    multistart Newton lattice follow, with phi components in
    {-3, -1.5, 0, 1.5, 3} and c in {c0, c0 +- 2, c0 +- 4} (c0 the constant of
    the zero potential), capped at ``_MAX_STARTS`` starts.  One ``_judge`` call
    accepts roots at residual <= 1e-10 and classifies them by the sign margin of
    their summand bases; a root within 1e-7 of an earlier one (in c and in each
    phi entry) is dropped.  Roots with a zero-base summand are
    reported only when ``allow_boundary`` is set.  An empty list is valid.

    At every other q-tilde the list is complete: every root has positive
    bases, so it solves T(phi) = phi + c for the cut-off map T, which is
    monotone and commutes with constants.  T's derivative there is positive
    on every edge of the strongly connected de Bruijn graph, so the solution
    is unique up to constants (Gaubert & Gunawardena, Trans. AMS 356, 2004).
    """
    sys = _solver_system([A], QParam.of(q_tilde), "qruelle_solve")
    PHI, C = _topical_root(sys)
    if sys.order is not None:  # candidates in order: the topical root, then the lattice rows
        starts = _lattice_starts(sys.n, _trivial_c(sys.d, QParam(sys.qt)), _MAX_STARTS)
        PHI_l, C_l, converged = _newton(sys, *starts)
        PHI, C = np.vstack([PHI, PHI_l[converged]]), np.concatenate([C, C_l[converged]])
    residual, positive, boundary, E = _judge(sys, PHI, C)
    roots, left = [], np.flatnonzero(residual <= _ACCEPT_TOL)  # NaN: outside the domain
    while left.size:  # the first remaining candidate is a root and drops those near it
        i, left = left[0], left[1:]
        roots.append(i)
        dist = np.maximum(np.abs(C[left] - C[i]), np.abs(PHI[left] - PHI[i]).max(axis=1))
        left = left[~(dist < _DEDUP_TOL)]
    roots.sort(key=lambda i: (-C[i], tuple(PHI[i])))
    roots = [i for i in roots if allow_boundary or not boundary[i]]
    return [_result(sys, PHI[i], C[i], residual[i], E[i], positive[i], boundary[i], branch_id)
            for branch_id, i in enumerate(roots)]


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

    The branch is ``positive_branch`` at q-tilde = 2 - q (NonConvergenceError
    if there is none); no full root list is built, so its ``branch_id`` is 0.
    The measure is the equilibrium of its Jacobian.
    """
    return q_equilibria([A], q)[0]


def q_equilibria(As: list[Potential], q: QParam | float) -> list[tuple[float, MarkovMeasure, SolveResult]]:
    """``q_equilibrium`` of each A of a stack sharing (d, k); NonConvergenceError if any has no branch."""
    branches = positive_branches(As, QParam.of(q).dual)
    if any(branch is None for branch in branches):
        raise NonConvergenceError("no branch with strictly positive summands")
    return [(branch.c, equilibrium_markov(branch.jacobian), branch) for branch in branches]


def a_q_transform(A: Potential, q: QParam | float) -> Potential:
    """Entrywise log exp_q(A) = log(1 + (1-q)A)/(1-q); classical identity map at q = 1.

    The transformed potential satisfies e^{A_q} = exp_q(A), so the classical
    transfer operator of A_q coincides with the operator that sums
    exp_q(A(a x)) f(a x).  Raises ``qfun._log_exp_q``'s QExpDomainError, whose
    ``argument`` is the first entry with 1 + (1-q)A <= 0.
    """
    vals = _log_exp_q(np.asarray(A.values, dtype=float), QParam.of(q).q)
    return Potential(d=A.d, memory=A.memory, values=vals)


def _g_half(a1, a2, C, a):
    """Closed-form bridge increment at q = 1/2: g = 2 - r - 4 e^{-r/2}/(2+a), on floats or arrays."""
    r = a1 - a2 - C
    return 2.0 - r - 4.0 * _per_entry(math.exp, -r / 2.0) / (2.0 + a)


def bridge_general_g(a, a1, a2, C, q: QParam | float):
    """Solve exp_{2-q}(g + r) = exp_q(a) e^r for g, where r = a1 - a2 - C, on floats or arrays.

    Uses the closed inverse g = log_{2-q}(exp_q(a) e^r) - r, with
    log_{2-q}(v) = (v^{q-1} - 1)/(q - 1).  At q = 1/2 this agrees with the
    algebraic form 2 - r - 4 e^{-r/2}/(2 + a).
    """
    qp = QParam.of(q)
    r = a1 - a2 - C
    if qp.classical:
        return a if isinstance(a, np.ndarray) else float(a)
    # log of the right-hand side, kept in log form for stability
    log_rhs = _log_exp_q(np.asarray(a, dtype=float), qp.q) + r
    return _per_entry(math.expm1, (qp.q - 1.0) * log_rhs) / (qp.q - 1.0) - r


def bridge_half(A: Potential) -> tuple[Potential, np.ndarray, float]:
    """Bridge a potential into the 3/2-deformed equation via its classical data.

    Transforms A at q = 1/2, takes the classical eigendata of the transformed
    potential (phi_B = log h in the gauge phi_B(first context) = 0, c_B = log
    lambda, the q-tilde = 1 root of ``ruelle._topical_root``), and builds the
    memory-(k+1) potential B(w) = g(phi_B(w[:k]), phi_B(w[1:]), c_B, A(w)).
    The pair (phi_B, c_B) then solves the q-tilde = 3/2 equation for B; the
    residual is verified to 1e-9 on every context.  Every entry of A must
    exceed -2: else the transform raises QExpDomainError, whose ``argument``
    is the first entry that does not.
    """
    d, k = A.d, _guarded_context_length(A)
    (phi_B,), (c_B,) = _topical_root(_System(a_q_transform(A, 0.5), QParam(1.0), k))
    w = np.arange(d ** (k + 1))
    heads, tails = phi_B[drop_last(w, d)], phi_B[drop_first(w, d, k + 1)]
    B = Potential(d=d, memory=k + 1,
                  values=_g_half(heads, tails, c_B, A.values[prefix_index(w, d, k + 1, A.memory)]))
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
    with E' the summand derivative.  Its matrix is the Newton matrix, so one
    ``_newton_steps`` call with F(x) = sum_a E'(u_a(x)) B(a x) returns
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
    _, dE = sys.summands(phi[None], np.array([root.c]))
    rhs = (dE * B_vals).sum(axis=2)
    return root, sys, B_vals, phi, float(_newton_steps(sys.pre_idx, dE, rhs)[0, -1])


def pressure_derivative(
    A: Potential, B: Potential, q: QParam | float, branch_index: int = 0
) -> float:
    """d/ds of the branch constant of A + s*B at s = 0.

    The branch is root ``branch_index`` of ``qruelle_solve`` at q-tilde = 2 - q,
    of any sign pattern; the derivative is one linear solve of the
    cohomological equation at it (implicit-function theorem); int B dmu_A at q = 1.
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
