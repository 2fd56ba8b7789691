import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qthermo import ruelle
from qthermo.errors import NonConvergenceError, QLogDomainError
from qthermo.qfun import QParam, _cutoff_root, log_q
from qthermo.ruelle import (
    Jacobian,
    MarkovMeasure,
    _context_tables,
    _relative_value_iteration,
    _stacked_system,
    _System,
    _topical_root,
    classical_pressure,
    equilibrium_markov,
    ks_entropy,
    leading_eig,
    normalize,
    q_entropy_markov,
    q_entropy_variational,
    random_jacobian,
    relative_q_entropy,
    transfer_matrix,
    variational_entropy_of_masses,
)
from qthermo.shift import Potential, all_words, word_index


def _rand_markov(rng, d=2):
    P = rng.uniform(0.1, 0.9, (d, d))
    P /= P.sum(axis=1, keepdims=True)
    return MarkovMeasure.from_transitions(d, 1, P)


def test_pressure_zero_potential():
    A = Potential.constant(2, 0.0)
    assert classical_pressure(A) == pytest.approx(math.log(2.0), abs=1e-12)


def test_pressure_memory1_closed_form():
    A = Potential(d=2, memory=1, values=np.array([0.0, 1.0]))
    assert classical_pressure(A) == pytest.approx(math.log(1.0 + math.e), abs=1e-10)


def test_leading_eig_known_matrix():
    A = Potential(d=2, memory=2, values=np.log(np.array([1.0, 2.0, 3.0, 4.0])))
    lam, h, nu = leading_eig(transfer_matrix(A))
    M = np.array([[1.0, 3.0], [2.0, 4.0]])  # column a, row = arriving state
    ev = np.max(np.linalg.eigvals(M).real)
    assert lam == pytest.approx(ev, rel=1e-12)
    assert np.all(h > 0) and np.all(nu > 0)
    assert lam > 0


def test_normalize_rows_and_rohklin():
    rng = np.random.default_rng(1)
    for _ in range(50):
        m = int(rng.integers(1, 4))
        A = Potential(d=2, memory=m, values=rng.normal(0.0, 1.0, 2**m))
        logJ, lam, h = normalize(A)
        rows = np.exp(logJ.values).reshape(2, -1).sum(axis=0)
        assert np.max(np.abs(rows - 1.0)) <= 1e-10
        # normalized potential has zero pressure
        assert abs(classical_pressure(logJ)) <= 1e-10


@pytest.mark.parametrize("draw", [8, 11])
def test_normalize_closes_the_eigen_residual_at_1024_states(draw):
    # two of the 20 d=4 memory-6 draws of default_rng(1) whose power-iterated
    # eigendata once failed the eigen post-check
    rng = np.random.default_rng(1)
    for _ in range(draw):
        rng.normal(0.0, 0.5, 4**6)
    logJ, _, _ = normalize(Potential(d=4, memory=6, values=rng.normal(0.0, 0.5, 4**6)))
    rows = np.exp(logJ.values).reshape(4, -1).sum(axis=0)
    assert np.max(np.abs(rows - 1.0)) <= 1e-10


def _eigvals_pressure(A):
    return math.log(np.max(np.abs(np.linalg.eigvals(transfer_matrix(A).matrix))))


@pytest.mark.parametrize("sigma", [0.5, 3.0])
@pytest.mark.parametrize(
    "d, memory", [(d, m) for d in (2, 3, 4) for m in range(1, 7) if d ** max(m - 1, 1) <= 256]
)
def test_classical_pressure_matches_eigvals(d, memory, sigma):
    rng = np.random.default_rng([d, memory, int(10 * sigma)])
    A = Potential(d=d, memory=memory, values=rng.normal(0.0, sigma, d**memory))
    c = classical_pressure(A)
    assert abs(c - _eigvals_pressure(A)) <= 1e-12 * max(1.0, abs(c))
    rows = np.exp(normalize(A)[0].values).reshape(d, -1).sum(axis=0)
    assert np.max(np.abs(rows - 1.0)) <= 1e-12


def _wide_draws():
    """Three N(0, 5) draws each at (d, memory) = (2, 5), (2, 6), (3, 4), (4, 3), in that order."""
    rng = np.random.default_rng(0)
    return [
        Potential(d=d, memory=m, values=rng.normal(0.0, 5.0, d**m))
        for d, m in ((2, 5), (2, 6), (3, 4), (4, 3))
        for _ in range(3)
    ]


@pytest.mark.parametrize("draw", range(12))
def test_classical_pressure_of_a_wide_draw(draw):
    # |lambda_2 / lambda_1| is near 1 on most of these, where power iteration
    # needs far more than 20,000 steps
    A = _wide_draws()[draw]
    start = time.perf_counter()
    c = classical_pressure(A)
    assert time.perf_counter() - start < 1.0
    assert abs(c - _eigvals_pressure(A)) <= 1e-10


def _nearly_reducible_draws():
    """The second (2, 5) wide draw, |lambda_3 / lambda_1| = 0.9984, and a
    d = 2 memory-4 N(0, 3) draw with |lambda_2 / lambda_1| = 0.9933."""
    rng = np.random.default_rng([10, 2, 4, 30])
    return [_wide_draws()[1], Potential(d=2, memory=4, values=rng.normal(0.0, 3.0, 16))]


@pytest.mark.parametrize("draw", [0, 1])
def test_classical_pressure_of_a_nearly_reducible_draw(draw):
    # relative value iteration alone needs about 5,000 iterations or more to
    # close a 1e-12 bracket here; the loop's Newton steps close it from width
    # 1e-3 (on the first draw in 7 steps, 105 evaluations in all)
    A = _nearly_reducible_draws()[draw]
    start = time.perf_counter()
    c = classical_pressure(A)
    assert time.perf_counter() - start < 1.0
    assert abs(c - _eigvals_pressure(A)) <= 1e-12 * max(1.0, abs(c))


def test_leading_eig_at_1024_states():
    # above the Newton size rule: relative value iteration alone closes the root
    A = Potential(d=4, memory=6, values=np.random.default_rng(6).normal(0.0, 0.5, 4**6))
    M = transfer_matrix(A)
    lam, h, nu = leading_eig(M)
    ev = np.linalg.eigvals(M.matrix)
    top = ev[np.argmax(np.abs(ev))]
    assert abs(top.imag) <= 1e-9
    assert abs(math.log(lam) - math.log(top.real)) <= 1e-12 * max(1.0, abs(math.log(lam)))
    assert abs(float(nu.sum()) - 1.0) <= 1e-12 and abs(float(h @ nu) - 1.0) <= 1e-12


def test_stationary_of_a_reducible_chain():
    # two closed classes: the bordered system is singular, and its
    # minimum-norm solution is the uniform law
    mu = MarkovMeasure.from_transitions(2, 1, np.eye(2))
    assert np.allclose(mu.pi, [0.5, 0.5], rtol=0.0, atol=1e-15)
    P = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]])
    mu = MarkovMeasure.from_transitions(3, 1, P)
    assert np.allclose(mu.pi, [1.0 / 3.0] * 3, rtol=0.0, atol=1e-15)
    assert np.max(np.abs(mu.pi @ P - mu.pi)) <= 1e-12


def test_entropies_of_a_measure_with_a_zero_transition():
    # pi = (1/3, 2/3); the word 11 has no mass, Q(12) = Q(22) = 1/2, Q(21) = 1
    mu = MarkovMeasure.from_transitions(2, 1, [[0.0, 1.0], [0.5, 0.5]])
    masses, Q = np.array([1.0, 1.0, 1.0]) / 3.0, np.array([0.5, 1.0, 0.5])
    assert ks_entropy(mu) == pytest.approx(-(masses @ np.log(Q)), abs=1e-15)
    assert ks_entropy(mu) == pytest.approx(2.0 / 3.0 * math.log(2.0), abs=1e-15)
    assert q_entropy_markov(mu, 0.5) == pytest.approx(
        masses @ log_q(1.0 / Q, 0.5), abs=1e-15
    )
    assert relative_q_entropy(mu, mu, 0.5) == 0.0


def test_pressure_coboundary_invariance():
    rng = np.random.default_rng(2)
    A = Potential(d=2, memory=2, values=rng.normal(0.0, 1.0, 4))
    f = rng.normal(0.0, 1.0, 2)
    # A + f(sigma x) - f(x) as a memory-2 table
    vals = A.values.copy()
    for i, (a, b) in enumerate([(1, 1), (1, 2), (2, 1), (2, 2)]):
        vals[i] += f[b - 1] - f[a - 1]
    B = Potential(d=2, memory=2, values=vals)
    assert classical_pressure(B) == pytest.approx(classical_pressure(A), abs=1e-9)


def test_random_jacobian_rows():
    for seed in range(5):
        J = random_jacobian(2, 1, seed=seed)
        rows = J.values.reshape(2, -1).sum(axis=0)
        assert np.max(np.abs(rows - 1.0)) <= 1e-12
    # reproducible
    assert np.array_equal(random_jacobian(2, 1, seed=3).values, random_jacobian(2, 1, seed=3).values)


def test_equilibrium_is_stationary():
    rng = np.random.default_rng(3)
    for _ in range(20):
        mu = _rand_markov(rng)
        assert np.max(np.abs(mu.pi @ mu.P - mu.pi)) <= 1e-10
        assert mu.pi.sum() == pytest.approx(1.0, abs=1e-12)


def test_equilibrium_markov_of_jacobian():
    J = random_jacobian(2, 1, seed=0)
    mu = equilibrium_markov(J)
    # P(log J) = 0 and the equilibrium realizes it: h(mu) + int log J dmu = 0
    val = ks_entropy(mu) + mu.integrate(J.as_log_potential())
    assert abs(val) <= 1e-10


def test_ks_entropy_uniform():
    P = np.full((2, 2), 0.5)
    mu = MarkovMeasure.from_transitions(2, 1, P)
    assert ks_entropy(mu) == pytest.approx(math.log(2.0), abs=1e-12)


def test_q_entropy_classical_limit():
    rng = np.random.default_rng(4)
    for _ in range(20):
        mu = _rand_markov(rng)
        assert q_entropy_markov(mu, 1.0) == pytest.approx(ks_entropy(mu), abs=1e-12)


def test_q_entropy_uniform_matches_static():
    P = np.full((2, 2), 0.5)
    mu = MarkovMeasure.from_transitions(2, 1, P)
    # uniform Bernoulli: H_q = log_q(2)
    assert q_entropy_markov(mu, 0.5) == pytest.approx(2.0 * (math.sqrt(2.0) - 1.0), abs=1e-12)


@pytest.mark.xfail(
    strict=True,
    reason="for q in (0,1) the Markov q-entropy dominates the KS entropy "
    "(uniform d=2, q=1/2: H_q = 0.8284 > h = 0.6931), so h >= H_q is the "
    "reversed direction and cannot hold",
)
def test_ks_entropy_dominates_q_entropy():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        mu = _rand_markov(rng)
        q = float(rng.uniform(0.2, 0.8))
        assert ks_entropy(mu) >= q_entropy_markov(mu, q) - 1e-12


def test_entropy_ordering_actual_direction():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        mu = _rand_markov(rng)
        q = float(rng.uniform(0.2, 0.8))
        assert q_entropy_markov(mu, q) >= ks_entropy(mu) - 1e-12
        q2 = float(rng.uniform(1.2, 1.8))
        assert q_entropy_markov(mu, q2) <= ks_entropy(mu) + 1e-12


def test_relative_entropy_vanishes_on_diagonal():
    rng = np.random.default_rng(5)
    for _ in range(20):
        mu = _rand_markov(rng)
        assert abs(relative_q_entropy(mu, mu, 0.5)) <= 1e-12


@pytest.mark.xfail(
    strict=True,
    reason="the deformed relative entropy takes negative values on pairs of "
    "Markov measures (draw 18 under seed 0 gives -0.0444 at q=1/2); "
    "nonnegativity fails off the Bernoulli/identical-pair cases",
)
def test_relative_entropy_nonnegative():
    rng = np.random.default_rng(0)
    for _ in range(200):
        mu = _rand_markov(rng)
        nu = _rand_markov(rng)
        assert relative_q_entropy(mu, nu, 0.5) >= -1e-12


@pytest.mark.xfail(
    strict=True,
    reason="the variational infimum over memory-2 densities sits strictly "
    "below the closed-form Markov q-entropy (P=[[0.7,0.3],[0.6,0.4]], "
    "q=1/2: 0.76069 vs 0.78388), so agreement within 1e-6 is impossible",
)
def test_variational_entropy_matches_closed_form():
    P = np.array([[0.7, 0.3], [0.6, 0.4]])
    mu = MarkovMeasure.from_transitions(2, 1, P)
    hv = q_entropy_variational(mu, 0.5)
    assert hv == pytest.approx(q_entropy_markov(mu, 0.5), abs=1e-6)


def test_variational_entropy_frozen_gap():
    # the infimum over bounded-memory densities upper-bounds nothing: it sits
    # below the closed form, and the frozen gap documents by how much
    P = np.array([[0.7, 0.3], [0.6, 0.4]])
    mu = MarkovMeasure.from_transitions(2, 1, P)
    hv = q_entropy_variational(mu, 0.5)
    hm = q_entropy_markov(mu, 0.5)
    assert hv == pytest.approx(0.7606929671171309, abs=1e-6)
    assert hv <= hm - 0.02


def test_variational_entropy_classical_case():
    # at q=1 the infimum is attained at u = log J and equals the KS entropy
    P = np.array([[0.7, 0.3], [0.6, 0.4]])
    mu = MarkovMeasure.from_transitions(2, 1, P)
    assert q_entropy_variational(mu, 1.0) == pytest.approx(ks_entropy(mu), abs=1e-12)


def _ratio_objective(t, masses, d, r, q):
    # the objective as first written: exp(t - max t) in linear space, then log_q
    u = np.exp(t - t.max()).reshape(d, -1)
    s = u.sum(axis=0)
    flat_u = u.reshape(-1)
    ratios = (s[0] / flat_u) if r == 1 else (np.repeat(s, d) / flat_u)
    return float(masses @ log_q(ratios, q))


def test_variational_objective_is_finite_at_a_wide_spread():
    # a spread of 760 underflows exp(t - max t) to 0 in linear space
    value = ruelle._variational_objective(
        np.array([0.0, 760.0, 0.0, 0.0]), np.full(4, 0.25), 2, 2, QParam(0.5)
    )[0]
    assert math.isfinite(value) and value > 0.0
    rng = np.random.default_rng(11)
    h = 1e-6
    for d, r in ((2, 1), (2, 2), (3, 1), (2, 3), (3, 2)):
        for q in (0.3, 0.5, 0.9, 1.0):
            for _ in range(50):
                t = rng.normal(0.0, 3.0, d**r)
                masses = rng.dirichlet(np.ones(d**r))
                want = _ratio_objective(t, masses, d, r, QParam(q))
                got, grad = ruelle._variational_objective(t, masses, d, r, QParam(q))
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
                # the exact gradient against a central difference, whose
                # roundoff grows with the value (up to about 1e4 here)
                fd = [
                    (ruelle._variational_objective(t + e, masses, d, r, QParam(q))[0]
                     - ruelle._variational_objective(t - e, masses, d, r, QParam(q))[0])
                    / (2 * h)
                    for e in h * np.eye(d**r)
                ]
                assert grad == pytest.approx(np.array(fd), rel=0, abs=1e-6 * max(1.0, got))


def _ref_variational(mu, q, r):
    # the multistart the single run replaced: finite-difference BFGS from the
    # flat table, from the Jacobian when shapes allow and from 20 seeded
    # random tables, keeping the smallest value
    from scipy.optimize import minimize

    masses, d, qp = mu.cylinder_masses(r), mu.d, QParam(q)

    def objective(t):
        return ruelle._variational_objective(np.concatenate(([0.0], t)), masses, d, r, qp)[0]

    n_free = d**r - 1
    starts = [np.zeros(n_free)]
    if r == mu.k + 1:
        logQ = np.log(mu.jacobian().values)
        starts.append(logQ[1:] - logQ[0])
    rng = np.random.default_rng(0)
    starts.extend(rng.normal(0.0, 1.5, size=n_free) for _ in range(20))
    return min(
        float(minimize(objective, t0, method="BFGS", options={"maxiter": 500}).fun)
        for t0 in starts
    )


def test_single_run_matches_the_multistart():
    # the objective is convex for q <= 1, so one exact-gradient run from the
    # flat table is never above the 22-start minimum.  At d = 3, r = 3 the
    # finite-difference reference takes about 2 s a draw and stops up to 3e-9
    # above the infimum, so there only the exact q = 1 value is checked
    rng = np.random.default_rng(17)
    for d, r in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)):
        for q in (0.3, 0.7, 1.0):
            mu = _rand_markov(rng, d)
            got = q_entropy_variational(mu, q, u_memory=r)
            if q == 1.0 and r >= 2:
                assert got == pytest.approx(ks_entropy(mu), abs=1e-12)
            if d**r <= 9:
                ref = _ref_variational(mu, q, r)
                assert ref - 1e-9 <= got <= ref + 1e-12


def test_cylinder_masses_sum_to_one():
    rng = np.random.default_rng(6)
    mu = _rand_markov(rng)
    for r in (1, 2, 3):
        masses = mu.cylinder_masses(r)
        assert masses.sum() == pytest.approx(1.0, abs=1e-12)


def test_markov_measure_integrate():
    P = np.array([[0.25, 0.75], [0.5, 0.5]])
    mu = MarkovMeasure.from_transitions(2, 1, P)
    A = Potential(d=2, memory=1, values=np.array([1.0, -1.0]))
    assert mu.integrate(A) == pytest.approx(float(mu.pi @ np.array([1.0, -1.0])), abs=1e-12)


def test_jacobian_log_potential_roundtrip():
    J = random_jacobian(2, 2, seed=7)
    logA = J.as_log_potential()
    J2 = Jacobian.from_log_potential(logA)
    assert np.max(np.abs(J2.values - J.values)) <= 1e-14


def test_variational_entropy_rejects_q_above_one(monkeypatch):
    # for q > 1 log_q is unbounded below at ratios near zero, so the infimum
    # is -inf; both entry points refuse before the optimizer runs
    def no_optimizer(*args, **kwargs):
        raise AssertionError("optimizer reached")

    monkeypatch.setattr("scipy.optimize.minimize", no_optimizer)
    mu = MarkovMeasure.from_transitions(2, 1, np.array([[0.7, 0.3], [0.6, 0.4]]))
    with pytest.raises(QLogDomainError):
        q_entropy_variational(mu, 1.5)
    with pytest.raises(QLogDomainError):
        variational_entropy_of_masses(mu.cylinder_masses(2), 2, 2, 1.5)


def test_variational_entropy_refuses_an_unconverged_minimizer(monkeypatch):
    # the final gradient decides, not scipy's success flag
    from types import SimpleNamespace

    def stalled(fun, x0, **kwargs):
        return SimpleNamespace(fun=0.0, jac=np.full_like(x0, 1e-3), success=True)

    monkeypatch.setattr("scipy.optimize.minimize", stalled)
    mu = MarkovMeasure.from_transitions(2, 1, np.array([[0.7, 0.3], [0.6, 0.4]]))
    with pytest.raises(NonConvergenceError):
        variational_entropy_of_masses(mu.cylinder_masses(2), 2, 2, 0.5)


# -- the one fixed-point loop against independent oracles ---------------------


def _plain_bracket(sys):
    """The loop's bracket of sys's lone row with no tangent, run to its stop: damped steps only."""
    _, (bracket,), _ = _relative_value_iteration(sys.A_vals[None], sys.pre_idx, lambda v: _cutoff_root(v, sys.qt))
    return bracket


@given(
    d=st.sampled_from([2, 3]),
    memory=st.integers(1, 3),
    qt=st.sampled_from([0.3, 0.5, 0.7, 1.0, 1.5, 2.5]),
    sigma=st.sampled_from([0.3, 1.0, 3.0]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_root_is_the_fixed_point_of_the_cutoff_map(d, memory, qt, sigma, seed):
    A = Potential(d=d, memory=memory, values=np.random.default_rng(seed).normal(0.0, sigma, d**memory))
    sys = _System(A, QParam(qt))
    (phi,), (c,) = _topical_root(sys)
    gap = _cutoff_root(sys.A_vals + phi[sys.pre_idx], sys.qt) - phi
    lo, hi = gap.min(), gap.max()  # min(T(phi) - phi) <= c* <= max(T(phi) - phi)
    assert hi - lo <= 1e-12 * max(1.0, abs(c)) and lo <= c <= hi
    try:
        plain_lo, plain_hi = _plain_bracket(sys)
    except NonConvergenceError:  # a rare slow draw for damped steps alone: the span is the check
        return
    tol = 1e-14 * max(1.0, abs(c))  # a bracket certifies c* up to the roundoff of the kernel's t
    assert lo <= plain_hi + tol and plain_lo <= hi + tol
    if qt == 1.0:  # c is log lambda of the transfer matrix
        assert abs(c - _eigvals_pressure(A)) <= 1e-12 * max(1.0, abs(c))


def test_stacked_rows_run_as_alone_when_one_finishes():
    # at q-tilde = 1 the kernel is the row-wise log-sum-exp and its tangent the softmax, so a
    # stacked row must reproduce its lone run to the bit, with Newton steps and without
    rng = np.random.default_rng(3)
    V = np.stack([_context_tables(Potential(2, 2, rng.normal(0.0, s, 4)), 1)[2] for s in (0.3, 3.0, 1.0, 2.0)])
    pre_idx = _context_tables(Potential.constant(2, 0.0, 2), 1)[1]

    def kernel(v):
        return _cutoff_root(v, 1.0)

    def softmax(v, t):
        W = np.exp(v - t[..., None])
        return W / W.sum(axis=-1, keepdims=True)

    runs = {}
    for tangent in (None, softmax):
        H, brackets, steps = runs[tangent] = _relative_value_iteration(V, pre_idx, kernel, tangent)
        for i in range(len(V)):
            alone = _relative_value_iteration(V[i : i + 1], pre_idx, kernel, tangent)
            assert (H[i].tobytes(), brackets[i], steps[i]) == (alone[0][0].tobytes(), alone[1][0], alone[2][0])
        for lo, hi in brackets:
            assert hi - lo <= 1e-12 * max(1.0, abs(hi))
    assert all(a < b for a, b in zip(runs[softmax][2], runs[None][2]))
    for Vi in V:  # Newton is tried first at relative width 1e-3, then each time the width halved
        widths = []

        def spy(v, t, Vi=Vi):
            h = np.empty(t.shape[1])
            h[pre_idx] = v[0] - Vi  # every context is a prefix
            gap = t[0] - h
            widths.append((gap.max() - gap.min()) / max(1.0, abs(gap.max())))
            return softmax(v, t)

        _relative_value_iteration(Vi[None], pre_idx, kernel, spy)
        assert len(widths) > 1 and widths[0] <= 1e-3
        assert all(b <= 0.5 * a + 1e-14 for a, b in zip(widths, widths[1:]))  # 1e-14: h read back from v


def test_rows_without_a_finite_newton_step_take_the_damped_one():
    # a tangent that returns NaN on the first row of each call: that row falls back to the
    # damped step while the others in the same solve take Newton's
    rng = np.random.default_rng(8)
    As = [Potential(2, 2, rng.normal(0.0, s, 4)) for s in (0.3, 3.0, 1.0, 2.0, 0.8, 1.5)]
    sys = _stacked_system(As, QParam(0.7), "the test")
    calls = []

    def kernel(v):
        return _cutoff_root(v, sys.qt)

    def broken(v, t):
        W = np.maximum(1.0 + (1.0 - sys.qt) * (v - t[..., None]), 0.0) ** (sys.power - 1)
        W = W / W.sum(axis=-1, keepdims=True)
        W[0] = np.nan
        calls.append(len(v))
        return W

    H, brackets, _ = _relative_value_iteration(sys.A_vals, sys.pre_idx, kernel, broken)
    _, plain, _ = _relative_value_iteration(sys.A_vals, sys.pre_idx, kernel)
    assert max(calls) > 1 and np.isfinite(H).all()
    for (lo, hi), (plain_lo, plain_hi) in zip(brackets, plain):
        tol = 1e-14 * max(1.0, abs(hi))  # the roundoff of the kernel's t
        assert hi - lo <= 1e-12 * max(1.0, abs(hi))
        assert lo <= plain_hi + tol and plain_lo <= hi + tol


def test_relative_value_iteration_names_its_open_rows():
    # T(h) = V + h leaves every gap at V: no row's bracket ever closes
    V = np.array([[[0.0], [1.0]], [[0.0], [0.5]]])
    pre_idx = np.array([[0], [1]])
    with pytest.raises(NonConvergenceError, match=r"left 2 of 2 rows open .* relative width 1$"):
        _relative_value_iteration(V, pre_idx, lambda v: v[..., 0])


# -- the word-index tables against tuple enumeration --------------------------
#
# Each reference below walks all_words tuples and looks indices up with
# word_index; the library builds the same tables by index arithmetic and must
# agree bit for bit.


def _ref_transfer_matrix(A):
    d, k = A.d, max(A.memory - 1, 1)
    words = all_words(d, k)
    M = np.zeros((len(words), len(words)))
    for ix, x in enumerate(words):
        for a in range(1, d + 1):
            y = (a,) + x[: k - 1]
            M[ix, word_index(y, d)] = math.exp(A.value(y + x[k - 1 :]))
    return M


def _ref_normalized_values(A):
    A_vals, pre_idx = _ref_system_tables(A)
    sys = _System(A, QParam(1.0)).with_values(A_vals)
    assert np.array_equal(sys.pre_idx, pre_idx)
    (log_h,), (c,) = _topical_root(sys)
    d, k = A.d, max(A.memory - 1, 1)
    words = all_words(d, k + 1)
    vals = np.empty(len(words))
    for i, w in enumerate(words):
        vals[i] = (
            A.value(w)
            + log_h[word_index(w[:k], d)]
            - log_h[word_index(w[1:], d)]
            - c
        )
    return vals


def _ref_equilibrium(J):
    d, k = J.d, J.k
    words = all_words(d, k)
    R = np.zeros((len(words), len(words)))
    for ix, x in enumerate(words):
        for b in range(1, d + 1):
            R[ix, word_index(x[1:] + (b,), d)] = J.value(x + (b,))
    pi = ruelle._stationary(R.T)
    P = R * pi[None, :] / pi[:, None]
    return P / P.sum(axis=1, keepdims=True), pi


def _ref_jacobian(mu):
    d, k = mu.d, mu.k
    words = all_words(d, k + 1)
    vals = np.empty(len(words))
    for i, w in enumerate(words):
        a, b = word_index(w[:k], d), word_index(w[1:], d)
        vals[i] = mu.P[a, b] * mu.pi[a] / mu.pi[b]
    return vals


def _ref_cylinder_masses(mu, r):
    d, k = mu.d, mu.k
    if r <= k:
        return mu.pi.reshape((d,) * k).sum(axis=tuple(range(r, k))).reshape(-1)
    masses = mu.pi.copy()
    for step in range(r - k):
        nxt = np.zeros(d ** (k + step + 1))
        for i, w in enumerate(all_words(d, k + step)):
            state = word_index(w[-k:], d)
            for b in range(1, d + 1):
                j = word_index(w[len(w) - k + 1 :] + (b,), d)
                nxt[i * d + (b - 1)] = masses[i] * mu.P[state, j]
        masses = nxt
    return masses


def _ref_system_tables(A):
    d, k = A.d, max(A.memory - 1, 1)
    contexts = all_words(d, k)
    A_vals = np.empty((len(contexts), d))
    pre_idx = np.empty((len(contexts), d), dtype=int)
    for j, x in enumerate(contexts):
        for a in range(1, d + 1):
            w = (a,) + x
            A_vals[j, a - 1] = A.value(w)
            pre_idx[j, a - 1] = word_index(w[:k], d)
    return A_vals, pre_idx


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("memory", [1, 2, 3, 4])
def test_index_tables_match_tuple_enumeration(d, memory):
    rng = np.random.default_rng(100 * d + memory)
    A = Potential(d=d, memory=memory, values=rng.uniform(-1.0, 1.0, d**memory))
    k = max(memory - 1, 1)

    assert np.array_equal(transfer_matrix(A).matrix, _ref_transfer_matrix(A))
    assert np.array_equal(normalize(A)[0].values, _ref_normalized_values(A))

    J = random_jacobian(d, k, seed=memory)
    mu = equilibrium_markov(J)
    P, pi = _ref_equilibrium(J)
    assert np.array_equal(mu.P, P)
    assert np.array_equal(mu.pi, pi)
    assert np.array_equal(mu.jacobian().values, _ref_jacobian(mu))
    for r in range(1, k + 4):
        assert np.array_equal(mu.cylinder_masses(r), _ref_cylinder_masses(mu, r))

    sys = _System(A, QParam(0.5))
    A_vals, pre_idx = _ref_system_tables(A)
    assert np.array_equal(sys.A_vals, A_vals)
    assert np.array_equal(sys.pre_idx, pre_idx)

    n = 5  # enough windows for the add order to show in the last bit
    table = A.birkhoff_table(n)
    ref = np.array([A.birkhoff_sum(w) for w in all_words(d, n + memory - 1)])
    assert np.array_equal(table, ref)
