"""Variational oracles over finite-memory Markov measures.

These certify the solver constants independently.  The dynamical q-pressure,
sup of H_q(mu) + int A dmu, is the gain of an entropy-regularized
average-reward problem, bracketed by ``ruelle._relative_value_iteration``,
one call for a whole stack of potentials.  One closed-form
chart, ``_binary_chart``, gives the cylinder masses and backward conditionals
of the binary memory-1 Markov measures; it tabulates the q-entropy over their
two free transition probabilities and samples its midpoint gaps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import QThermoError
from .qfun import QParam, _regularized_max, log_q
from .ruelle import (
    MarkovMeasure,
    _backward_matrix,
    _forward_markov,
    _relative_value_iteration,
    _stacked_system,
    _stationary,
    q_entropy_markov,
    variational_entropy_of_masses,
)
from .shift import Potential

_EPS = 1e-4


@dataclass(frozen=True)
class ScanResult:
    """A scan's value and argmax, ``bracket`` = (lo, hi) certifying lo <= sup <= hi and
    ``iterations``, the Bellman evaluations until it closed, the closing one counted.
    ``grid_n`` (echoed), ``refined`` (True) and ``excluded_fraction`` (0.0) stay for readers."""

    value: float
    argmax: MarkovMeasure
    grid_n: int
    refined: bool
    excluded_fraction: float
    bracket: tuple[float, float]
    iterations: int


def _binary_chart(p: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The memory-1 binary Markov measures with P(1->2) = p and P(2->1) = r,
    elementwise: ``mass``, the 2-cylinder masses of the words 11, 12, 21, 22,
    and ``Q``, their backward conditionals P_ij pi_i / pi_j, stacked on a new
    first axis."""
    pi1 = r / (p + r)
    pi2 = p / (p + r)
    mass = np.stack([pi1 * (1 - p), pi1 * p, pi2 * r, pi2 * (1 - r)])
    Q = np.stack([(1 - p), p * pi1 / pi2, r * pi2 / pi1, (1 - r)])
    return mass, Q


def _binary_q_entropy(p: np.ndarray, r: np.ndarray, q: QParam) -> np.ndarray:
    """H_q = sum mass log_q(1/Q) of ``_binary_chart(p, r)``, elementwise."""
    mass, Q = _binary_chart(p, r)
    return np.sum(mass * log_q(1.0 / Q, q), axis=0)


def q_pressure_scan(A: Potential, q: QParam | float, grid_n: int) -> ScanResult:
    """sup of H_q(mu) + int A dmu over Markov measures: ``q_pressure_scans`` of A alone."""
    return q_pressure_scans([A], q, grid_n)[0]


def q_pressure_scans(As: list[Potential], q: QParam | float, grid_n: int) -> list[ScanResult]:
    """sup of H_q(mu) + int A dmu over Markov measures on the contexts of A, for each A of a stack.

    A measure, written by its backward Jacobian Q(a | x), is a policy of an
    average-reward problem whose gain is the sup.  The Bellman map
    T(h)(x) = max_Q sum_a Q_a (v_a + log_q(1/Q_a)), v_a = A(a x) + h(prefix_k(a x)),
    is ``qfun._regularized_max``, monotone and commuting with constants, so one
    relative value iteration (Puterman 1994, 8.5.5) brackets every sup, stopping
    each row at hi - lo <= 1e-12*max(1, |hi|) bit for bit as its scan alone
    would.  ``argmax`` is the stationary measure of the last maximizing
    Jacobian (sparse at q > 1); ``value``, its objective, reproduces exactly.
    ValueError for an empty stack or at the first A whose d or context length
    differs; guards as for ``ruelle.transfer_matrix``; NonConvergenceError at 5,000.
    """
    sys = _stacked_system(As, QParam(1.0), "q_pressure_scans")  # its context tables
    d, k, qp, V = sys.d, sys.k, QParam.of(q), sys.A_vals.reshape(-1, sys.n, sys.d)
    H, brackets, steps, _ = _relative_value_iteration(
        V, sys.pre_idx, lambda v: _regularized_max(v, qp.q)[1])
    vals = np.empty((len(As), d ** (k + 1)))
    vals[:, sys.words] = _regularized_max(V + H[:, sys.pre_idx], qp.q)[0]
    out = []
    for A, row, bracket, it in zip(As, vals, brackets, steps):
        R = _backward_matrix(d, k, row)
        # zeros can make the chain periodic or partly transient, so its masses
        # are solved for directly
        mu = _forward_markov(d, k, R, _stationary(R.T))
        value = float(q_entropy_markov(mu, qp) + mu.integrate(A))
        out.append(ScanResult(value, mu, grid_n=grid_n, refined=True, excluded_fraction=0.0,
                              bracket=bracket, iterations=it))
    return out


@dataclass(frozen=True)
class EntropySurface:
    """q-entropy of binary Markov measures over the (P12, P21) square."""

    probs: np.ndarray  # shared grid for both axes
    values: np.ndarray  # values[i, j] = H_q at P12 = probs[i], P21 = probs[j]

    def max_point(self) -> tuple[float, float, float]:
        i, j = np.unravel_index(int(np.argmax(self.values)), self.values.shape)
        return float(self.probs[i]), float(self.probs[j]), float(self.values[i, j])


def entropy_surface(q: QParam | float, grid_n: int) -> EntropySurface:
    """Tabulate H_q over the two free transition probabilities.

    An even grid_n is increased by one so the symmetric center (0.5, 0.5)
    lies exactly on the lattice; the surface maximum is then reported at the
    true maximizer rather than a neighboring grid point.
    """
    qp = QParam.of(q)
    if grid_n % 2 == 0:
        grid_n += 1
    t = np.linspace(_EPS, 1.0 - _EPS, grid_n)
    p, r = np.meshgrid(t, t, indexing="ij")
    return EntropySurface(probs=t, values=_binary_q_entropy(p, r, qp))


def midpoint_concavity_report(q: QParam | float, seed: int = 0) -> dict[str, float]:
    """Random midpoint gaps H((x+y)/2) - (H(x)+H(y))/2 in coordinate space.

    Reports the minimum and mean gap over 1,000 random segments; no sign is
    asserted here because concavity of the entropy in the measure does not
    imply concavity in the transition-probability coordinates for every q
    (the chart is nonlinear).
    """
    # row s holds segment s's x then y: the stream of two 2-draws per segment
    u = np.random.default_rng(seed).uniform(0.05, 0.95, (1000, 4))
    x, y = u[:, :2], u[:, 2:]
    pts = np.stack([x, y, (x + y) / 2.0])
    hx, hy, hm = _binary_q_entropy(pts[..., 0], pts[..., 1], QParam.of(q))
    gaps = hm - 0.5 * (hx + hy)
    return {
        "min_gap": float(gaps.min()),
        "mean_gap": float(gaps.mean()),
        "negative_fraction": float((gaps < -1e-10).mean()),
    }


@dataclass(frozen=True)
class AffinityReport:
    """Distribution of mixture-entropy defects against the affine combination."""

    samples: int
    min_defect: float
    max_defect: float
    mean_defect: float
    failures: int


def entropy_affinity_report(
    q: QParam | float, samples: int, u_memory: int = 2, seed: int = 0
) -> AffinityReport:
    """H_q(mixture) - affine combination, all via the same variational functional.

    A convex mixture of Markov measures is generally not Markov, so every
    term (mixture and both endpoints) is evaluated through the variational
    infimum on 2-cylinder masses with the same single minimization; the
    comparison then tests concavity of that one functional, which holds
    because it is an infimum of mass-affine objectives.  Positive defects
    indicate non-affinity; no strict positivity is asserted.  A sample raising
    a ``QThermoError`` counts as a failure; other exceptions propagate.
    """
    qp = QParam.of(q)
    rng = np.random.default_rng(seed)

    def masses(prm: np.ndarray) -> np.ndarray:
        P = np.array([[1.0 - prm[0], prm[0]], [prm[1], 1.0 - prm[1]]])
        return MarkovMeasure.from_transitions(2, 1, P).cylinder_masses(u_memory)

    defects = []
    failures = 0
    for _ in range(samples):
        prm1 = rng.uniform(0.1, 0.9, 2)
        prm2 = rng.uniform(0.1, 0.9, 2)
        lam = rng.uniform(0.1, 0.9)
        m1, m2 = masses(prm1), masses(prm2)
        try:
            h_mix = variational_entropy_of_masses(lam * m1 + (1 - lam) * m2, 2, u_memory, qp)
            h1 = variational_entropy_of_masses(m1, 2, u_memory, qp)
            h2 = variational_entropy_of_masses(m2, 2, u_memory, qp)
        except QThermoError:
            failures += 1
            continue
        defects.append(h_mix - (lam * h1 + (1 - lam) * h2))
    arr = np.array(defects) if defects else np.array([np.nan])
    return AffinityReport(
        samples=samples,
        min_defect=float(arr.min()),
        max_defect=float(arr.max()),
        mean_defect=float(arr.mean()),
        failures=failures,
    )
