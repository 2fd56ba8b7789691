"""Classical (extensive) thermodynamic formalism on the full shift.

Transfer matrices for locally constant potentials, leading eigendata as
the q-tilde = 1 fixed point of the cut-off map (``qfun._cutoff_root`` under
``qfun._relative_value_iteration``, the kernel of the deformed solver and the
q-pressure scan), normalization to a Jacobian, stationary Markov equilibrium
states, and the entropy zoo: Kolmogorov-Shannon entropy, dynamical q-entropy,
relative q-entropy, and the variational (infimum) form of the q-entropy,
a convex program for q <= 1.

Conventions.  A potential of memory ``m`` acts on states that are words of
length ``k = max(m - 1, 1)``.  The transfer operator

    (L_A f)(x) = sum_a e^{A(a x)} f(a x)

maps memory-k functions to memory-k functions, and is represented by the
matrix ``M[x, y] = e^{A(prefix_m(y1 x))}`` over pairs of k-words with the
overlap condition ``y[1:] == x[:k-1]``.  The Jacobian of the associated
equilibrium state lives on (k+1)-words and is the backward conditional
probability of the first symbol given the tail.

Imports numpy only: the variational q-entropy loads scipy (one BFGS run).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergenceError, QLogDomainError, SizeGuardError
from .qfun import QParam, _cutoff_root, _relative_value_iteration, log_q
from .shift import Potential, drop_first, drop_last, prefix_index, prepend, word_index

_STATE_GUARD = 4096


@dataclass(frozen=True)
class TransferMatrix:
    """Matrix form of the transfer operator on memory-k functions."""

    d: int
    k: int
    m: int
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


def transfer_matrix(A: Potential) -> TransferMatrix:
    """Build the transfer matrix of a locally constant potential.

    Raises
    ------
    SizeGuardError
        when memory exceeds 6 or the state space exceeds the size guard.
    """
    d, m, k = A.d, A.memory, _guarded_context_length(A)
    _, pre_idx, A_vals = _context_tables(A, k)
    # math.exp per entry: np.exp may differ from it in the last bit
    entries = [math.exp(v) for v in A_vals.ravel().tolist()]
    M = np.zeros((d**k, d**k))
    M[np.arange(d**k)[:, None], pre_idx] = np.reshape(entries, A_vals.shape)
    return TransferMatrix(d=d, k=k, m=m, matrix=M)


def _log_fixed_point(vals: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, float]:
    """(f, c) with T(f) = f + c, f[0] = 0, for T(f)(x) = log sum_j exp(vals[x, j] + f[idx[x, j]]).

    T is the cut-off map at q-tilde = 1, so e^f is the leading eigenvector
    and e^c the leading eigenvalue of the matrix with entries e^vals.
    Relative value iteration brackets c and stops at hi - lo <= 1e-14*max(1, |hi|);
    c is the bracket's midpoint.  NonConvergenceError after 5,000 iterations.
    """
    for f, lo, hi in _relative_value_iteration(lambda f: _cutoff_root(vals + f[idx], 1.0), len(vals)):
        if hi - lo <= 1e-14 * max(1.0, abs(hi)):
            return f, 0.5 * (lo + hi)


def leading_eig(M: TransferMatrix) -> tuple[float, np.ndarray, np.ndarray]:
    """Leading eigenvalue with right (h) and left (nu) eigenvectors.

    Reads M on the transfer-matrix pattern: row x holds M[x, prefix_k(a x)]
    and column y holds M[(y b)[1:], y].  Each eigenvector is the fixed point
    of ``_log_fixed_point`` on the logs of those entries; the eigen residuals
    are then checked against ``1e-12 lambda max(1, max(h))``.  ``nu`` has
    total mass one and sum(h * nu) = 1.
    """
    d, k, A = M.d, M.k, M.matrix
    rows = np.arange(d**k)[:, None]
    right = drop_last(prepend(np.arange(1, d + 1), rows, d, k), d)
    left = drop_first(rows * d + np.arange(d), d, k + 1)
    with np.errstate(divide="ignore"):  # log 0 = -inf: an entry off the pattern's support
        f, c = _log_fixed_point(np.log(A[rows, right]), right)
        g, _ = _log_fixed_point(np.log(A[left, rows]), left)
    lam, h, nu = math.exp(c), np.exp(f), np.exp(g)
    nu = nu / nu.sum()
    h = h / float(h @ nu)
    if lam <= 0.0 or np.any(h <= 0.0) or np.any(nu <= 0.0):
        raise NonConvergenceError("leading eigendata is not strictly positive")
    for resid in (np.max(np.abs(A @ h - lam * h)), np.max(np.abs(A.T @ nu - lam * nu))):
        if resid > 1e-12 * lam * max(1.0, float(np.max(h))):
            raise NonConvergenceError("eigen residual above tolerance after convergence")
    return lam, h, nu


def classical_pressure(A: Potential) -> float:
    """log of the leading transfer-operator eigenvalue."""
    _, pre_idx, A_vals = _context_tables(A, _guarded_context_length(A))
    return _log_fixed_point(A_vals, pre_idx)[1]


def normalize(A: Potential) -> tuple[Potential, float, np.ndarray]:
    """Normalize a potential into log-Jacobian form.

    Returns ``(logJ, lambda, h)`` where ``logJ = A + log h - log h o sigma
    - log lambda`` as a memory-(k+1) table; ``exp(logJ)`` sums to one over
    the first symbol for every context.  h is in the gauge h(first context) = 1.
    """
    d, k = A.d, _guarded_context_length(A)
    words, pre_idx, A_vals = _context_tables(A, k)
    log_h, c = _log_fixed_point(A_vals, pre_idx)
    vals = np.empty(d ** (k + 1))
    vals[words] = A_vals + log_h[pre_idx] - log_h[:, None] - c
    return Potential(d=d, memory=k + 1, values=vals), math.exp(c), np.exp(log_h)


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


def _forward_markov(d: int, k: int, R: np.ndarray, pi: np.ndarray) -> MarkovMeasure:
    """The measure with masses pi and P(x -> z) = R[x, z] pi[z] / pi[x], R >= 0.

    Roundoff mass on a state with none on its successors is dropped; massless states move uniformly.
    """
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
    """Unique stationary Markov measure whose backward conditionals equal J.

    The masses solve R pi = pi directly (``_stationary`` of the row-stochastic R^T).
    """
    R = _backward_matrix(J.d, J.k, J.values)
    return _forward_markov(J.d, J.k, R, _stationary(R.T))


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
    t: np.ndarray, masses: np.ndarray, d: int, r: int, q: QParam
) -> tuple[float, np.ndarray]:
    """(value, gradient in t) of sum masses * log_q(sum_a u(a x) / u(x)), u = exp(t)."""
    # u = exp(t) stays in log space: exp(t - max t) underflows to 0 once the
    # spread of t passes about 745
    t = t.reshape(d, -1)  # major axis: first symbol of the r-word
    top = t.max(axis=0)
    # log of the sums over the first symbol, indexed by (r-1)-words
    log_s = top + np.log(np.exp(t - top).sum(axis=0))
    # at an r-word with flat lexicographic index i, the prefix w[:r-1] has
    # index i // d, so the log-ratio table is repeat(log_s, d) - t
    log_ratio = (log_s[0] if r == 1 else np.repeat(log_s, d)) - t.reshape(-1)
    if q.classical:
        value, weight = masses @ log_ratio, masses
    else:
        value = masses @ (np.expm1((1.0 - q.q) * log_ratio) / (1.0 - q.q))
        # d/dy log_q(e^y) = e^{(1-q) y} at each word
        weight = masses * np.exp((1.0 - q.q) * log_ratio)
    # t[a, j] enters log_s[j], which every word with prefix j shares
    c = weight.sum(keepdims=True) if r == 1 else weight.reshape(-1, d).sum(axis=1)
    return float(value), (np.exp(t - log_s) * c).ravel() - weight


def q_entropy_variational(mu: MarkovMeasure, q: QParam | float, u_memory: int = 2) -> float:
    """Infimum of int log_q(sum_a u(a x) / u(x)) dmu over memory-r test functions.

    The candidate u runs over strictly positive locally constant functions of
    memory ``u_memory`` (u = exp(t) for a real table t; the objective is
    scale invariant, so t is pinned to 0 on the first word).  For q <= 1 the
    objective is convex in t: log_q(e^y) = expm1((1-q) y)/(1-q) is convex
    and nondecreasing in y, the log-ratio is a log-sum-exp minus a linear
    term, and the masses are nonnegative (Boyd & Vandenberghe, Convex
    Optimization, 2004, section 3.2.4).  Every local minimum is then global,
    so one quasi-Newton run from the flat table with the exact gradient
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

    from scipy.optimize import minimize  # brute-force oracle only: off the import path

    def objective(t: np.ndarray) -> tuple[float, np.ndarray]:
        value, grad = _variational_objective(np.concatenate(([0.0], t)), masses, d, u_memory, qp)
        return value, grad[1:]

    res = minimize(
        objective,
        np.zeros(d**u_memory - 1),
        jac=True,
        method="BFGS",
        options={"maxiter": 500, "gtol": 1e-10},
    )
    # BFGS often ends on precision loss at a converged point, so the final
    # gradient, not its success flag, decides (measured worst: about 1e-8)
    gmax = float(np.max(np.abs(res.jac)))
    if not gmax <= 1e-6:
        raise NonConvergenceError(f"variational q-entropy: final gradient {gmax:.3g} > 1e-6")
    return float(res.fun)
