"""Classical (extensive) thermodynamic formalism on the full shift.

Transfer matrices for locally constant potentials; the one fixed-point loop,
``_relative_value_iteration`` on stacked context tables, with Newton steps on
T(h) = h + c itself where T's tangent is given, which drives the
scans of ``variational`` and the root kernel of the equation of ``qsolve`` at
every q-tilde (``_System``, ``_topical_root``), whose q-tilde = 1 case gives
the leading eigendata; normalization to a Jacobian, stationary Markov
equilibrium states, and the entropy zoo:
Kolmogorov-Shannon entropy, dynamical q-entropy, relative q-entropy, and the
variational (infimum) form of the q-entropy, solved by exact Newton for q <= 1.

Conventions.  A potential of memory ``m`` acts on states that are words of
length ``k = max(m - 1, 1)``.  The transfer operator

    (L_A f)(x) = sum_a e^{A(a x)} f(a x)

maps memory-k functions to memory-k functions, and is represented by the
matrix ``M[x, y] = e^{A(prefix_m(y1 x))}`` over pairs of k-words with the
overlap condition ``y[1:] == x[:k-1]``.  The Jacobian of the associated
equilibrium state lives on (k+1)-words and is the backward conditional
probability of the first symbol given the tail.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergenceError, QLogDomainError, SizeGuardError
from .qfun import QParam, _cutoff_root, _per_entry, even_power_order, log_q
from .shift import Potential, drop_first, drop_last, prefix_index, prepend, word_index

_STATE_GUARD = 4096


@dataclass(frozen=True)
class TransferMatrix:
    """Matrix form of the transfer operator on memory-k functions."""

    d: int
    k: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        n = self.d**self.k
        if self.matrix.shape != (n, n):
            raise ValueError("matrix shape does not match d**k states")
        if np.any(self.matrix < 0.0):
            raise ValueError("transfer matrix entries must be nonnegative")
        object.__setattr__(self, "matrix", self.matrix.copy())
        self.matrix.setflags(write=False)


def _guarded_context_length(A: Potential) -> int:
    """A's context length k; SizeGuardError above memory 6 or 4096 contexts."""
    if A.memory > 6:
        raise SizeGuardError(f"memory {A.memory} exceeds the guard (6)")
    k = A.context_length()
    if A.d**k > _STATE_GUARD:
        raise SizeGuardError(f"{A.d}**{k} states exceed the guard ({_STATE_GUARD})")
    return k


def _context_tables(A: Potential, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(words, pre_idx, A_vals) over the k-contexts: entry [x, a - 1] belongs to the word a.x.

    ``words`` is its (k+1)-word index, ``pre_idx`` its k-prefix index and
    ``A_vals`` the potential on it; k >= A.memory - 1.
    """
    d = A.d
    words = prepend(np.arange(1, d + 1), np.arange(d**k)[:, None], d, k)
    return words, drop_last(words, d), A.values[prefix_index(words, d, k + 1, A.memory)]


def _relative_value_iteration(V: np.ndarray, pre_idx: np.ndarray, kernel, tangent=None):
    """Relative value iteration with Newton steps on a stack of tables V (B, n, d): the one fixed-point loop.

    Row i iterates T(h) = kernel(V[i] + h[pre_idx]) for a ``kernel`` from (..., d) to (...),
    monotone and commuting with constants, so lo = min(Th - h) <= c <= hi = max(Th - h) for c
    in T(h*) = h* + c.  Each step moves h <- (h + Th)/2, h[0] = 0.  A row due for Newton moves
    h <- h + delta instead, (I - P) delta + g = Th - h, delta[0] = 0, P[x, pre_idx[x, a]] = W[x, a]
    for W = ``tangent(v, Th)``, T's row-stochastic derivative at v = V + h[pre_idx], unless delta
    is not finite.  Given a tangent, a row on at most ``_NEWTON_CONTEXTS`` contexts is due at its
    retry width, 1e-3 and then half its width at its last Newton step.  A row leaves the stack at
    hi - lo <= 1e-12*max(1, |hi|), unless it is due and wider than 1e-15.  Returns per row h (B, n),
    (lo, hi) and the kernel evaluations (the last counted).  NonConvergenceError after 5,000.
    """
    B, n, d = V.shape
    H, brackets, steps = np.empty((B, n)), [None] * B, [0] * B
    retry = [1e-3 if tangent is not None and n <= _NEWTON_CONTEXTS else 0.0] * B
    live, one = list(range(B)), B == 1
    h = np.zeros(n if one else (B, n))  # a lone row runs as a vector on its 2-d table
    V, idx = (V[0], pre_idx) if one else (V, pre_idx + np.arange(0, B * n, n)[:, None, None])
    for step in range(1, 5001):
        v = V + h.ravel()[idx]  # idx reads h raveled
        Th = kernel(v)
        gap = Th - h
        rows, due, stay = gap.reshape(-1, n), [], []  # ufunc reduce: no method wrapper per step
        los, his = np.minimum.reduce(rows, axis=1).tolist(), np.maximum.reduce(rows, axis=1).tolist()
        for j, i in enumerate(live):
            width = (his[j] - los[j]) / max(1.0, abs(his[j]))
            if width > 1e-12 or 1e-15 < width <= retry[i]:
                stay.append(j)
                if width <= retry[i]:
                    due.append(j)
                    retry[i] = 0.5 * width
        if len(stay) < len(live):
            for j in set(range(len(live))).difference(stay):
                H[live[j]], brackets[live[j]], steps[live[j]] = h.reshape(-1, n)[j], (los[j], his[j]), step
            if not stay:
                return H, brackets, steps
        nxt = h + 0.5 * gap
        if due:  # one batched solve for the (h[1:], g) steps of the due rows
            W = tangent(v.reshape(-1, n, d)[due], Th.reshape(-1, n)[due])
            delta = _newton_steps(pre_idx, W, rows[due])
            ok = np.isfinite(delta).all(axis=1)  # a row without a finite step keeps the damped one
            due = np.asarray(due)[ok]
            moved = h.reshape(-1, n)[due]
            moved[:, 1:] += delta[ok, :-1]
            nxt.reshape(-1, n)[due] = moved
        h = nxt - (nxt[0] if one else nxt[:, :1])
        if len(stay) < len(live):
            live, one = [live[j] for j in stay], len(stay) == 1  # a last open row runs as a vector
            h, V = (x[stay[0]] if one else x[stay] for x in (h, V))
            idx = pre_idx if one else idx[: len(stay)]
    raise NonConvergenceError(
        f"relative value iteration left {len(live)} of {B} rows open after 5000 steps, the "
        f"widest at relative width {max((his[j] - los[j]) / max(1.0, abs(his[j])) for j in stay):.3g}")


def transfer_matrix(A: Potential) -> TransferMatrix:
    """Build the transfer matrix of a locally constant potential.

    Raises
    ------
    SizeGuardError
        when memory exceeds 6 or the state space exceeds the size guard.
    """
    d, k = A.d, _guarded_context_length(A)
    _, pre_idx, A_vals = _context_tables(A, k)
    M = np.zeros((d**k, d**k))
    # math.exp per entry: np.exp may differ from it in the last bit
    M[np.arange(d**k)[:, None], pre_idx] = _per_entry(math.exp, A_vals.ravel()).reshape(A_vals.shape)
    return TransferMatrix(d=d, k=k, matrix=M)


_BOUNDARY_MARGIN = 1e-12
_NEWTON_TOL = 1e-12
_NEWTON_ITERS = 60
_NEWTON_CONTEXTS = 256  # above it a dense Newton solve costs more than the RVI it cuts short


class _System:
    """Index tables for one (potential, q-tilde) instance; E = exp at q-tilde = 1.

    Entry [j, a - 1] belongs to the word a.x, x the j-th length-k context:
    ``words`` is its (k+1)-word index, ``pre_idx`` its k-prefix index and
    ``A_vals`` the potential on it, or (S, n, d) one per row.  The evaluations
    take a batch of S rows, phi as an (S, n) array and c as an (S,) array, and
    return arrays whose leading axis is the row.  ``bases`` sets every row outside
    the strict domain to NaN, so the defects and summands built on it are NaN.
    """

    def __init__(self, A: Potential, q_tilde: QParam, k: int | None = None):
        self.d = A.d
        self.k = A.context_length() if k is None else k
        self.n = self.d**self.k
        self.qt = float(q_tilde.q)
        self.classical = q_tilde.classical
        self.order = even_power_order(q_tilde)
        self.power = None if self.classical else self.order or 1.0 / (1.0 - self.qt)
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

    def rows(self, rows) -> "_System":  # a lone potential's system serves every row
        return self if self.A_vals.ndim == 2 else self.with_values(self.A_vals[rows])

    def arguments(self, PHI: np.ndarray, C: np.ndarray) -> np.ndarray:
        return self.A_vals + PHI[:, self.pre_idx] - PHI[:, :, None] - C[:, None, None]

    def bases(self, U: np.ndarray) -> np.ndarray:
        """The bases 1 + (1 - qt)*U of arguments U, (S, n, d); NaN on rows outside the domain.

        At q-tilde = 1 every base is 1.  Only the strict case has a domain: a
        row leaves it when any base is at or below 1e-300.  The row is masked
        before a power of it is taken, so its summands are NaN rather than an
        overflow.
        """
        if self.classical:
            return np.ones_like(U)
        base = 1.0 + (1.0 - self.qt) * U
        if self.order is None:
            base[(base <= 1e-300).any(axis=(1, 2))] = np.nan
        return base

    def summands(self, PHI: np.ndarray, C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Summands E and derivatives E', (S, n, d): exp at q-tilde = 1, else base**power."""
        if self.classical:
            E = np.exp(self.arguments(PHI, C))
            return E, E
        base = self.bases(self.arguments(PHI, C))
        return base**self.power, base ** (self.power - 1)

    def defect(self, U: np.ndarray) -> np.ndarray:
        """Per-context defect sum_a E(u) - 1 of the arguments U, (S, n); NaN outside the domain."""
        E = np.exp(U) if self.classical else self.bases(U) ** self.power
        return E.sum(axis=2) - 1.0


def _judge(sys: _System, PHI: np.ndarray, C: np.ndarray):
    """(residual, positive, boundary, E) of each candidate root (PHI[i], C[i]) from one evaluation:
    max |sum_a E - 1| (NaN outside the strict domain), every base above ``_BOUNDARY_MARGIN``, when
    not positive some base at zero within it (even if others went negative through the even-power
    extension), and the summands E (S, n, d)."""
    U = sys.arguments(PHI, C)
    base = sys.bases(U)
    E = np.exp(U) if sys.classical else base**sys.power
    positive = base.min(axis=(1, 2)) > _BOUNDARY_MARGIN  # NaN: not positive
    boundary = ~positive & (np.abs(base) <= _BOUNDARY_MARGIN).any(axis=(1, 2))
    return np.abs(E.sum(axis=2) - 1.0).max(axis=1), positive, boundary, E


def _solve_or_lstsq(J: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(J, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(J, rhs, rcond=None)[0]


def _newton_steps(pre_idx: np.ndarray, dE: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Newton steps on the free unknowns (phi[1:], c) of every row, (S, n), on the pattern pre_idx (n, d).

    ``dE`` (S, n, d) holds the summand derivatives E' and ``F`` (S, n) the defects.  phi[0]
    stays 0 (the gauge).  One singular matrix makes the stacked solve raise for all of them;
    the rows are then solved one at a time, each falling back to least squares when its own
    matrix is singular.
    """
    n = F.shape[1]
    diag = np.arange(n)
    dsum = dE.sum(axis=2)
    Jfull = np.zeros((len(F), n, n + 1))
    # the k-prefixes of a.x are distinct over a, so assignment is the sum
    Jfull[:, diag[:, None], pre_idx] = dE
    Jfull[:, diag, diag] -= dsum
    Jfull[:, :, n] = -dsum
    Jmat = Jfull[:, :, 1:]
    try:
        return np.linalg.solve(Jmat, -F[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        return np.array([_solve_or_lstsq(J, -f) for J, f in zip(Jmat, F)])


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
    E, dE = sys.summands(PHI, C)
    F = E.sum(axis=2) - 1.0
    fnorm = np.abs(F).max(axis=1)
    converged = fnorm <= _NEWTON_TOL
    live = ~(converged | np.isnan(fnorm))
    for _ in range(_NEWTON_ITERS):
        rows = np.flatnonzero(live)
        if not rows.size:
            break
        step = _newton_steps(sys.pre_idx, dE[rows], F[rows])
        finite = np.isfinite(step).all(axis=1)
        live[rows[~finite]] = False
        rows, step = rows[finite], step[finite]
        # line search: the rows still pending in a round share one lam
        lam = 1.0
        for _ in range(30):
            phi_t = PHI[rows]
            phi_t[:, 1:] += lam * step[:, :-1]
            c_t = C[rows] + lam * step[:, -1]
            E_t, dE_t = sys.rows(rows).summands(phi_t, c_t)
            F_t = E_t.sum(axis=2) - 1.0
            fn_t = np.abs(F_t).max(axis=1)  # NaN outside the domain: rejected
            accept = (fn_t < fnorm[rows]) | (fn_t <= _NEWTON_TOL)
            if accept.all():
                PHI[rows], C[rows], dE[rows] = phi_t, c_t, dE_t
                F[rows], fnorm[rows] = F_t, fn_t
                break
            done = rows[accept]
            PHI[done], C[done], dE[done] = phi_t[accept], c_t[accept], dE_t[accept]
            F[done], fnorm[done] = F_t[accept], fn_t[accept]
            rows, step = rows[~accept], step[~accept]
            lam *= 0.5
        else:
            live[rows] = False
        converged |= fnorm <= _NEWTON_TOL
        live &= ~converged
    return PHI, C, converged


def _topical_root(sys: _System) -> tuple[np.ndarray, np.ndarray]:
    """(PHI, C) with T(phi) = phi + c, T the cut-off map, a row per potential of sys as if alone.

    T(phi)(x) is the t with sum_a E(A(a x) + phi(prefix_k(a x)) - t) = 1, E the cut-off
    q-exponential (exp at q-tilde = 1): ``_relative_value_iteration`` of ``_cutoff_root`` with
    T's tangent E'/sum_a E' at t, in which a cut summand weighs 0.  c is the closed bracket's
    midpoint.
    """

    def tangent(v, t):
        u = v - t[..., None]
        W = np.exp(u) if sys.classical else np.maximum(1.0 + (1.0 - sys.qt) * u, 0.0) ** (sys.power - 1)
        return W / W.sum(axis=-1, keepdims=True)

    H, brackets, _ = _relative_value_iteration(
        sys.A_vals.reshape(-1, sys.n, sys.d), sys.pre_idx, lambda v: _cutoff_root(v, sys.qt), tangent)
    return H, np.array([0.5 * (lo + hi) for lo, hi in brackets])


def leading_eig(M: TransferMatrix) -> tuple[float, np.ndarray, np.ndarray]:
    """Leading eigenvalue with right (h) and left (nu) eigenvectors.

    Reads M on the transfer-matrix pattern, row x holding M[x, prefix_k(a x)]:
    (log h, log lambda) is the q-tilde = 1 root of the logs of those entries.
    nu = pi/h, pi the stationary law of the stochastic M[x, y] h(y)/(lambda
    h(x)).  The eigen residuals are then checked against ``1e-12 lambda
    max(1, max(h))``.  ``nu`` has total mass one and sum(h * nu) = 1.
    """
    d, k, A = M.d, M.k, M.matrix
    sys = _System(Potential.constant(d, 0.0, k + 1), QParam(1.0), k)
    with np.errstate(divide="ignore"):  # log 0 = -inf: an entry off the pattern's support
        sys = sys.with_values(np.log(A[sys.diag[:, None], sys.pre_idx]))
    (f,), (c,) = _topical_root(sys)
    lam, h = math.exp(c), np.exp(f)
    nu = _stationary(A * h / (lam * h[:, None])) / h
    nu = nu / nu.sum()
    h = h / float(h @ nu)
    if lam <= 0.0 or np.any(h <= 0.0) or np.any(nu <= 0.0):
        raise NonConvergenceError("leading eigendata is not strictly positive")
    for resid in (np.max(np.abs(A @ h - lam * h)), np.max(np.abs(A.T @ nu - lam * nu))):
        if resid > 1e-12 * lam * max(1.0, float(np.max(h))):
            raise NonConvergenceError("eigen residual above tolerance after convergence")
    return lam, h, nu


def _stacked_system(As: list[Potential], q_tilde: QParam, name: str) -> _System:
    """One ``_System`` of a stack sharing (d, k), a lone potential's when B = 1; guards as for
    ``transfer_matrix``, and ValueError for an empty stack or at the first A whose (d, k) differs."""
    if not As:
        raise ValueError(f"{name} needs at least one potential")
    shapes = [(A.d, _guarded_context_length(A)) for A in As]
    for i, dk in enumerate(shapes):
        if dk != shapes[0]:
            raise ValueError(f"potential {i} has (d, k) = {dk}, not {shapes[0]}")
    sys = _System(As[0], q_tilde, shapes[0][1])
    return sys if len(As) == 1 else sys.with_values(np.stack([sys.values_of(A) for A in As]))


def classical_pressure(A: Potential) -> float:
    """log of the leading transfer-operator eigenvalue."""
    return classical_pressures([A])[0]


def classical_pressures(As: list[Potential]) -> list[float]:
    """``classical_pressure`` of each A of a stack sharing (d, k), each as it is alone."""
    return _topical_root(_stacked_system(As, QParam(1.0), "classical_pressures"))[1].tolist()


def normalize(A: Potential) -> tuple[Potential, float, np.ndarray]:
    """Normalize a potential into log-Jacobian form.

    Returns ``(logJ, lambda, h)`` where ``logJ = A + log h - log h o sigma
    - log lambda`` as a memory-(k+1) table; ``exp(logJ)`` sums to one over
    the first symbol for every context.  h is in the gauge h(first context) = 1.
    """
    return normalizes([A])[0]


def normalizes(As: list[Potential]) -> list[tuple[Potential, float, np.ndarray]]:
    """``normalize`` of each A of a stack sharing (d, k), each as it is alone."""
    sys = _stacked_system(As, QParam(1.0), "normalizes")
    LOG_H, C = _topical_root(sys)
    vals = np.empty((len(As), sys.d ** (sys.k + 1)))
    vals[:, sys.words] = sys.arguments(LOG_H, C)
    return [(Potential(sys.d, sys.k + 1, v), math.exp(c), np.exp(h)) for v, c, h in zip(vals, C.tolist(), LOG_H)]


@dataclass(frozen=True)
class Jacobian:
    """Backward transition probabilities on (k+1)-words.

    ``values[i]`` is the conditional probability of the first symbol of the
    i-th (k+1)-word given its k-word tail; for every tail these sum to one.
    """

    d: int
    k: int
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.d ** (self.k + 1),):
            raise ValueError("Jacobian table has the wrong length")
        if np.any(vals <= 0.0) or np.any(vals > 1.0 + 1e-12):
            raise ValueError("Jacobian entries must lie in (0, 1]")
        rows = vals.reshape(self.d, -1).sum(axis=0)
        if np.max(np.abs(rows - 1.0)) > 1e-8:
            raise ValueError("Jacobian rows must sum to one for every context")
        object.__setattr__(self, "values", vals.copy())
        self.values.setflags(write=False)

    @classmethod
    def from_log_potential(cls, logJ: Potential) -> "Jacobian":
        return cls(d=logJ.d, k=logJ.memory - 1, values=np.exp(logJ.values))

    def value(self, word: tuple[int, ...]) -> float:
        return float(self.values[word_index(word[: self.k + 1], self.d)])

    def as_log_potential(self) -> Potential:
        return Potential(d=self.d, memory=self.k + 1, values=np.log(self.values))


def random_jacobian(d: int, k: int, seed: int = 0) -> Jacobian:
    """Draw a Jacobian by normalizing gamma weights over the first symbol."""
    rng = np.random.default_rng(seed)
    g = rng.gamma(2.0, 1.0, size=(d, d**k)) + 0.05
    return Jacobian(d=d, k=k, values=(g / g.sum(axis=0)).reshape(-1))


@dataclass(frozen=True)
class MarkovMeasure:
    """Stationary Markov measure on k-word states."""

    d: int
    k: int
    P: np.ndarray
    pi: np.ndarray

    def __post_init__(self) -> None:
        n = self.d**self.k
        P = np.asarray(self.P, dtype=float)
        pi = np.asarray(self.pi, dtype=float)
        if P.shape != (n, n) or pi.shape != (n,):
            raise ValueError("transition matrix / stationary vector shape mismatch")
        if np.max(np.abs(P.sum(axis=1) - 1.0)) > 1e-12:
            raise ValueError("transition rows must sum to one")
        if np.any(pi < 0.0) or abs(pi.sum() - 1.0) > 1e-12:
            raise ValueError("stationary vector must be a probability vector")
        if np.max(np.abs(pi @ P - pi)) > 1e-10:
            raise ValueError("pi is not stationary for P")
        object.__setattr__(self, "P", P.copy())
        object.__setattr__(self, "pi", pi.copy())
        self.P.setflags(write=False)
        self.pi.setflags(write=False)

    @classmethod
    def from_transitions(cls, d: int, k: int, P: np.ndarray) -> "MarkovMeasure":
        """Stationary measure of a row-stochastic matrix over k-words."""
        P = np.asarray(P, dtype=float)
        return cls(d=d, k=k, P=P, pi=_stationary(P))

    def cylinder_masses(self, r: int) -> np.ndarray:
        """Masses of all r-cylinders, r >= 1."""
        d, k = self.d, self.k
        if r <= k:
            masses = self.pi.reshape((d,) * k)
            return masses.sum(axis=tuple(range(r, k))).reshape(-1)
        masses = self.pi.copy()
        for length in range(k + 1, r + 1):
            # mass(w.b) = mass(w) P(last k symbols of w -> last k symbols of w.b)
            u = np.arange(d**length)
            w = drop_last(u, d)
            masses = masses[w] * self.P[w % d**k, u % d**k]
        return masses

    def jacobian(self) -> Jacobian:
        """Backward conditionals Q(w) = P(w[:k] -> w[1:]) pi[w[:k]] / pi[w[1:]]."""
        d, k = self.d, self.k
        return Jacobian(d=d, k=k, values=self._backward(np.arange(d ** (k + 1))))

    def _backward(self, w: np.ndarray) -> np.ndarray:
        """The backward conditionals Q at the (k+1)-word indices w."""
        a, b = drop_last(w, self.d), drop_first(w, self.d, self.k + 1)
        return self.P[a, b] * self.pi[a] / self.pi[b]

    def integrate(self, A: Potential) -> float:
        """Integral of a locally constant potential."""
        if A.d != self.d:
            raise ValueError("alphabet mismatch")
        return float(self.cylinder_masses(A.memory) @ A.values)


def _stationary(P: np.ndarray) -> np.ndarray:
    """A stationary probability vector of the row-stochastic matrix P."""
    n = P.shape[0]
    # direct solve of pi (P - I) = 0 with one row replaced by the
    # normalization; it keeps the tiny components of nearly reducible
    # chains componentwise accurate, which the induced jacobian row sums
    # depend on
    M = P.T - np.eye(n)
    M[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    try:
        pi = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        pi = None
    if pi is None or not np.all(np.isfinite(pi)) or float(np.min(pi)) < -1e-9:
        # singular or grossly non-positive: the minimum-norm solution weights
        # each closed class's stationary law by 1/|pi_i|^2, so stays >= 0
        pi = np.linalg.lstsq(M, rhs, rcond=None)[0]
    pi = np.clip(pi, 0.0, None)
    pi = pi / pi.sum()
    # one exact-balance sweep: pi P is stationary to machine precision
    for _ in range(4):
        pi = pi @ P
        pi = pi / pi.sum()
    return pi


def _backward_matrix(d: int, k: int, values: np.ndarray) -> np.ndarray:
    """R[x, z] = values(x . z[-1]) over the successor pairs z = x[1:].b."""
    w = np.arange(d ** (k + 1))
    R = np.zeros((d**k, d**k))
    R[drop_last(w, d), drop_first(w, d, k + 1)] = values
    return R


def _forward_markov(d: int, k: int, values: np.ndarray) -> MarkovMeasure:
    """The stationary Markov measure whose backward conditionals are ``values`` >= 0 on (k+1)-words.

    Its masses solve R pi = pi directly (``_stationary`` of R^T), R = ``_backward_matrix``, as zeros
    can make the chain periodic or partly transient; P(x -> z) = R[x, z] pi[z] / pi[x].  Roundoff
    mass on a state with none on its successors is dropped; massless states move uniformly.
    """
    R = _backward_matrix(d, k, values)
    pi = _stationary(R.T)
    while np.any((pi > 0.0) & (R @ pi == 0.0)):
        pi = np.where(R @ pi == 0.0, 0.0, pi)
        pi = pi / pi.sum()
    with np.errstate(divide="ignore", invalid="ignore"):
        P = R * pi[None, :] / pi[:, None]
        P = P / P.sum(axis=1, keepdims=True)
    void = pi == 0.0
    if void.any():
        P[void] = _backward_matrix(d, k, np.full(d ** (k + 1), 1.0 / d))[void]
    return MarkovMeasure(d=d, k=k, P=P, pi=pi)


def equilibrium_markov(J: Jacobian) -> MarkovMeasure:
    """Unique stationary Markov measure whose backward conditionals equal J: ``_forward_markov``."""
    return _forward_markov(J.d, J.k, J.values)


def _mass_log_weights(mu: MarkovMeasure) -> tuple[np.ndarray, np.ndarray]:
    """(masses, Q-values) over the (k+1)-words of positive mass, whose tails have mass."""
    masses = mu.cylinder_masses(mu.k + 1)
    w = np.flatnonzero(masses > 0.0)
    return masses[w], mu._backward(w)


def ks_entropy(mu: MarkovMeasure) -> float:
    """Kolmogorov-Shannon entropy: -sum mass(w) log Q(w) over (k+1)-words."""
    masses, Q = _mass_log_weights(mu)
    return float(-(masses @ np.log(Q)))


def q_entropy_markov(mu: MarkovMeasure, q: QParam | float) -> float:
    """Dynamical q-entropy sum mass(w) log_q(1/Q(w)); Shannon at q = 1.

    For q in (0,1) this dominates the Kolmogorov-Shannon entropy (log_q
    dominates log on [1, infinity)), with the ordering reversed for q > 1.
    """
    qp = QParam.of(q)
    if qp.classical:
        return ks_entropy(mu)
    masses, Q = _mass_log_weights(mu)
    return float(masses @ log_q(1.0 / Q, qp))


def relative_q_entropy(
    mu1: MarkovMeasure, mu2: MarkovMeasure, q: QParam | float
) -> float:
    """q-deformed relative entropy int log_q(1/J2) dmu1 - int log_q(1/J1) dmu1.

    At q = 1 this is the Kullback-Leibler divergence rate and is nonnegative.
    For q != 1 it can be negative: the map r -> sum_w mass1(w) log_q(1/r(w))
    is minimized at the escort r proportional to mass1^{1/(2-q)}, not at
    mass1 itself, so nearby measures on the escort side sit below zero.
    """
    if (mu1.d, mu1.k) != (mu2.d, mu2.k):
        raise ValueError("measures must share alphabet and memory")
    qp = QParam.of(q)
    masses = mu1.cylinder_masses(mu1.k + 1)
    w = np.flatnonzero(masses > 0.0)
    diff = log_q(1.0 / mu2._backward(w), qp) - log_q(1.0 / mu1._backward(w), qp)  # log at q = 1
    return float(masses[w] @ diff)


def _variational_objective(
    t: np.ndarray, masses: np.ndarray, d: int, q: QParam
) -> tuple[float, np.ndarray, np.ndarray]:
    """(value, gradient, Hessian in t) of sum masses * log_q(sum_a u(a x) / u(x)), u = exp(t).

    At the log-ratios y, grad y_w = sigma_{prefix(w)} - e_w with sigma_j the softmax of t over the
    words a j, so the Hessian is G^T diag(m phi'') G + sum_j c_j (diag sigma_j - sigma_j sigma_j^T),
    phi = log_q o exp, G's rows grad y_w and c_j the sum of m phi' over the words with prefix j.
    """
    # u = exp(t) stays in log space: exp(t - max t) underflows to 0 once the
    # spread of t passes about 745
    t = t.reshape(d, -1)  # major axis: first symbol of the r-word
    top = t.max(axis=0)
    # log of the sums over the first symbol, indexed by (r-1)-words
    log_s = top + np.log(np.exp(t - top).sum(axis=0))
    # the prefix w[:r-1] of the r-word of flat lexicographic index i has index i // d
    n = t.size
    prefix = np.arange(n) // d
    log_ratio = log_s[prefix] - t.reshape(-1)
    if q.classical:
        value, weight, curv = masses @ log_ratio, masses, np.zeros(n)
    else:
        value = masses @ (np.expm1((1.0 - q.q) * log_ratio) / (1.0 - q.q))
        # phi'(y) = e^{(1-q) y} and phi''(y) = (1-q) e^{(1-q) y} at each word
        weight = masses * np.exp((1.0 - q.q) * log_ratio)
        curv = (1.0 - q.q) * weight
    # t[a, j] enters log_s[j], which every word with prefix j shares
    c = weight.reshape(-1, d).sum(axis=1)
    sigma = np.exp(t - log_s)
    S = np.zeros((len(log_s), n))  # row j: sigma_j over the full table
    S[np.arange(n) % len(log_s), np.arange(n)] = sigma.ravel()
    G = S[prefix] - np.eye(n)
    hess = G.T @ (curv[:, None] * G) + np.diag((sigma * c).ravel()) - S.T @ (c[:, None] * S)
    return float(value), (sigma * c).ravel() - weight, hess


def q_entropy_variational(mu: MarkovMeasure, q: QParam | float, u_memory: int = 2) -> float:
    """Infimum of int log_q(sum_a u(a x) / u(x)) dmu over memory-r test functions.

    The candidate u runs over strictly positive locally constant functions of
    memory ``u_memory`` (u = exp(t) for a real table t; the objective is
    scale invariant, so t is pinned to 0 on the first word).  For q <= 1 the
    objective is convex in t: log_q(e^y) = expm1((1-q) y)/(1-q) is convex
    and nondecreasing in y, the log-ratio is a log-sum-exp minus a linear
    term, and the masses are nonnegative (Boyd & Vandenberghe, Convex
    Optimization, 2004, section 3.2.4).  Every local minimum is then global,
    so one damped Newton run from the flat table with the exact Hessian
    returns the infimum.

    For q <= 1 the value is bounded between the Kolmogorov-Shannon entropy
    and the closed-form q-entropy, but for a generic Gibbs measure with q < 1
    it sits strictly below ``q_entropy_markov`` - the Jacobian is not the
    minimizer (the objective decreases along escort-type reweightings of J).
    For q > 1 the infimum is minus infinity (log_q is unbounded below at
    ratios near zero), so QLogDomainError is raised before optimizing.
    """
    if u_memory < 1 or u_memory > 4:
        raise SizeGuardError("u_memory must be between 1 and 4")
    return variational_entropy_of_masses(mu.cylinder_masses(u_memory), mu.d, u_memory, q)


def variational_entropy_of_masses(
    masses: np.ndarray, d: int, u_memory: int, q: QParam | float
) -> float:
    """Same infimum evaluated directly on r-cylinder masses.

    Accepts mass vectors of arbitrary (not necessarily Markov) invariant
    measures, e.g. convex mixtures of Markov measures.  Raises
    QLogDomainError for q > 1, as ``q_entropy_variational`` does.
    """
    qp = QParam.of(q)
    masses = np.asarray(masses, dtype=float)
    if masses.shape != (d**u_memory,):
        raise ValueError("mass vector must enumerate all u_memory-cylinders")
    if qp.q > 1.0 and not qp.classical:
        raise QLogDomainError(f"variational q-entropy is -inf for q = {qp.q} > 1")

    # damped Newton from the flat table with t[0] = 0, by least squares as at q = 1 the objective
    # is flat along coboundaries; near roundoff the value stops falling, so a lower gradient counts
    t = np.zeros(d**u_memory)
    value, grad, hess = _variational_objective(t, masses, d, qp)
    fmin, gmin = value, np.abs(grad[1:]).max()
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite trial is rejected
        for _ in range(100):
            step = np.concatenate(([0.0], np.linalg.lstsq(hess[1:, 1:], -grad[1:], rcond=None)[0]))
            for lam in 0.5 ** np.arange(40):
                trial = _variational_objective(t + lam * step, masses, d, qp)
                gmax = np.abs(trial[1][1:]).max()
                if math.isfinite(trial[0]) and (trial[0] <= value + 1e-4 * lam * (grad @ step)
                                                or gmax < np.abs(grad[1:]).max()):
                    break
            else:
                break
            if not (trial[0] < fmin or gmax < gmin):
                break  # at roundoff the value and the gradient only cycle
            t, (value, grad, hess) = t + lam * step, trial
            fmin, gmin = min(fmin, value), min(gmin, gmax)
    gmax = float(np.abs(grad[1:]).max())
    if not gmax <= 1e-10:
        raise NonConvergenceError(f"variational q-entropy: final gradient {gmax:.3g} > 1e-10")
    return value
