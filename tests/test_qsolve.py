import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qthermo import qsolve
from qthermo.errors import NonConvergenceError, QExpDomainError, SizeGuardError
from qthermo.qfun import QParam, _cutoff_root, log_q
from qthermo.qsolve import (
    _lattice_starts,
    _neg_log_q_inv,
    _newton,
    _stacked_system,
    _System,
    _topical_root,
    _trivial_c,
    a_q_transform,
    bridge_general_g,
    bridge_half,
    derivative_identity_report,
    explimeq_family,
    jana_closed_form,
    positive_branch,
    positive_branches,
    pressure_derivative,
    q_equilibria,
    q_equilibrium,
    qruelle_residual,
    qruelle_solve,
    supex_closed_form,
    two_symbol_roots,
)
from qthermo.ruelle import (
    Jacobian,
    _classify,
    classical_pressure,
    classical_pressures,
    equilibrium_markov,
    leading_eig,
    normalize,
    normalizes,
    random_jacobian,
    transfer_matrix,
)
from qthermo.shift import Potential, prefix_index
from qthermo.variational import q_pressure_scan

JANA = Potential(d=2, memory=2, values=np.array([0.0, 2.0, 3.5, 0.0]))


def test_zero_potential_unique_root_strict():
    # strict odd-order q-tilde: single root c = -log_q(1/d), phi = 0
    for qt in (2.0 / 3.0, 1.5):
        roots = qruelle_solve(Potential.constant(2, 0.0), qt)
        assert len(roots) == 1
        r = roots[0]
        assert r.c == pytest.approx(-float(log_q(0.5, qt)), abs=1e-12)
        assert np.max(np.abs(r.phi)) <= 1e-10
        assert r.residual <= 1e-10
    assert -float(log_q(0.5, 1.5)) == pytest.approx(2.0 * (math.sqrt(2.0) - 1.0), abs=1e-12)


def test_zero_potential_census_even_order():
    # q-tilde = 1/2 squares the base, so extra sign branches appear
    roots = qruelle_solve(Potential.constant(2, 0.0), 0.5)
    cs = sorted(r.c for r in roots)
    assert len(roots) == 2
    assert cs[0] == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-9)
    assert cs[1] == pytest.approx(2.0 + math.sqrt(2.0), abs=1e-9)
    assert all(abs(r.phi[1]) <= 1e-9 for r in roots)
    # exactly one branch has strictly positive summands
    assert sorted(r.summands_positive for r in roots) == [False, True]


def test_zero_potential_boundary_roots_flagged():
    default = qruelle_solve(Potential.constant(2, 0.0), 0.5)
    with_b = qruelle_solve(Potential.constant(2, 0.0), 0.5, allow_boundary=True)
    assert len(with_b) == len(default) + 2
    extra = [r for r in with_b if r.boundary]
    assert len(extra) == 2
    for r in extra:
        assert r.c == pytest.approx(2.0, abs=1e-9)
        assert abs(abs(r.phi[1]) - 2.0) <= 1e-8
    assert not any(r.boundary for r in default)


def test_jana_two_branches_true_constants():
    roots = qruelle_solve(JANA, 0.5)
    assert len(roots) == 2
    cs = sorted(r.c for r in roots)
    assert cs[0] == pytest.approx(3.0442810861169263, abs=1e-9)
    assert cs[1] == pytest.approx(3.7057189138830737, abs=1e-9)
    for r in roots:
        assert r.phi[0] == 0.0
        assert r.phi[1] == pytest.approx(-0.75, abs=1e-9)
        assert r.residual <= 1e-10
        assert not r.summands_positive


@pytest.mark.xfail(
    strict=True,
    reason="the target branch constant 3.85405 solves only the first of the "
    "two context equations; solving the full system gives c = 3.70572 and "
    "c = 3.04428 (both with phi2 = (a12-a21)/2 = -0.75)",
)
def test_jana_target_constant():
    roots = qruelle_solve(JANA, 0.5)
    assert any(abs(r.c - 3.85405) <= 1e-4 for r in roots)


def test_jana_closed_form_pairs():
    pairs = jana_closed_form(2.0, 3.5)
    assert len(pairs) == 2
    cs = {round(c, 6) for _, c in pairs}
    assert cs == {round(3.8540496217739157, 6)}
    phis = sorted(p for p, _ in pairs)
    assert phis[0] == pytest.approx(-2.3959503782260843, abs=1e-12)
    assert phis[1] == pytest.approx(-0.8959503782260843, abs=1e-12)


@pytest.mark.xfail(
    strict=True,
    reason="the pair (phi2, c) = (-0.89595, 3.85405) leaves a residual of "
    "0.1308 on the second context equation; only the first is satisfied",
)
def test_jana_closed_form_full_residual():
    phi2, c = jana_closed_form(2.0, 3.5)[0]
    res = qruelle_residual(JANA, 0.5, np.array([0.0, phi2]), c)
    assert float(np.max(np.abs(res))) <= 1e-4


def test_jana_closed_form_residual_split():
    # first context equation is satisfied, second is off by a frozen margin
    phi2, c = jana_closed_form(2.0, 3.5)[0]
    res = np.abs(qruelle_residual(JANA, 0.5, np.array([0.0, phi2]), c))
    assert res[0] <= 1e-6
    assert res[1] == pytest.approx(0.1307642965739002, abs=1e-6)


def test_two_symbol_roots_solve_the_system():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a12 = float(rng.uniform(0.0, 3.0))
        a21 = float(rng.uniform(0.0, 3.0))
        sbar = 0.5 * (a12 + a21)
        if 8.0 - sbar**2 <= 0.01:
            continue
        phi2, cs = two_symbol_roots(a12, a21)
        A = Potential(d=2, memory=2, values=np.array([0.0, a12, a21, 0.0]))
        for c in cs:
            res = qruelle_residual(A, 0.5, np.array([0.0, phi2]), c)
            assert float(np.max(np.abs(res))) <= 1e-10


def test_supex_closed_form_and_solver():
    phi2, c = supex_closed_form(2.0, 5.5, 0.0, 0.0, 0.0)
    assert c == pytest.approx(5.75, abs=1e-12)
    assert phi2 == pytest.approx(2.718245836551854, abs=1e-9)
    A = Potential(d=2, memory=1, values=np.array([2.0, 5.5]))
    roots = qruelle_solve(A, 0.5)
    assert any(abs(r.c - 5.75) <= 1e-9 for r in roots)
    # solver gauge puts phi=0 on the first context; shift and compare
    best = min(roots, key=lambda r: abs(r.c - 5.75))
    assert abs(-best.phi[1] - phi2) <= 1e-7 or abs(best.phi[1] + 0.78175416) <= 1e-6


def test_supex_derivative():
    A = Potential(d=2, memory=1, values=np.array([2.0, 5.5]))
    for b, want in (((1.0, 0.0), 0.5), ((0.0, 1.0), 0.5), ((1.0, 1.0), 1.0)):
        B = Potential(d=2, memory=1, values=np.array(b))
        d = pressure_derivative(A, B, 1.5)
        assert d == pytest.approx(want, abs=1e-6)


@pytest.mark.parametrize(
    "qt,q1,q2,expected",
    [
        (2.0 / 3.0, 0.3, 0.6, (0.857533, 0.52199, 0.655413, 0.991701)),
        (4.0 / 5.0, 0.2, 0.3, (2.18972, 0.30612, 1.15786, 1.37610)),
    ],
)
def test_explimeq_family(qt, q1, q2, expected):
    a12, a22, phi2, c = explimeq_family(qt, q1, q2)
    for got, want in zip((a12, a22, phi2, c), expected):
        assert got == pytest.approx(want, abs=1e-5)
    A = Potential(d=2, memory=2, values=np.array([0.0, a12, 0.0, a22]))
    res = qruelle_residual(A, qt, np.array([0.0, phi2]), c)
    assert float(np.max(np.abs(res))) <= 1e-12
    roots = qruelle_solve(A, qt)
    rec = min(max(abs(r.c - c), abs(r.phi[1] - phi2)) for r in roots)
    assert rec <= 1e-6
    assert any(r.summands_positive for r in roots)


def test_explimeq_rejects_bad_parameters():
    with pytest.raises(ValueError):
        explimeq_family(0.5, 0.0, 0.5)
    with pytest.raises(ValueError):
        explimeq_family(0.5, 0.3, 1.0)


def test_residual_domain_error_names_context():
    A = Potential.constant(2, 0.0)
    with pytest.raises(QExpDomainError) as err:
        qruelle_residual(A, 2.0 / 3.0, np.zeros(2), 10.0)
    assert "context" in str(err.value)


def test_accepted_roots_satisfy_reported_residual():
    rng = np.random.default_rng(8)
    for _ in range(5):
        A = Potential(d=2, memory=2, values=rng.normal(0.0, 0.7, 4))
        for r in qruelle_solve(A, 0.5):
            res = qruelle_residual(A, 0.5, r.phi, r.c)
            assert float(np.max(np.abs(res))) <= 1e-10


def test_c_set_invariant_under_coboundary():
    # replacing A by A + f(sigma .) - f(.) re-gauges phi but keeps every c
    f = np.array([0.0, 0.6])
    vals = JANA.values.copy()
    for i, (a, b) in enumerate([(1, 1), (1, 2), (2, 1), (2, 2)]):
        vals[i] += f[b - 1] - f[a - 1]
    pert = Potential(d=2, memory=2, values=vals)
    cs0 = sorted(r.c for r in qruelle_solve(JANA, 0.5))
    cs1 = sorted(r.c for r in qruelle_solve(pert, 0.5))
    assert len(cs0) == len(cs1)
    assert np.max(np.abs(np.array(cs0) - np.array(cs1))) <= 1e-8


def test_positive_branch_jacobian_identity():
    # -log_q(1/J) = A + phi - phi.sigma - c as tables, on positive branches
    a12, a22, phi2, c = explimeq_family(2.0 / 3.0, 0.3, 0.6)
    A = Potential(d=2, memory=2, values=np.array([0.0, a12, 0.0, a22]))
    root = next(r for r in qruelle_solve(A, 2.0 / 3.0) if r.summands_positive)
    J = root.jacobian
    lhs = -log_q(1.0 / J.values, QParam(2.0 - 2.0 / 3.0))
    rhs = np.empty(4)
    for i, (a, b) in enumerate([(1, 1), (1, 2), (2, 1), (2, 2)]):
        rhs[i] = A.values[i] + root.phi[a - 1] - root.phi[b - 1] - root.c
    assert float(np.max(np.abs(lhs - rhs))) <= 1e-10


def test_q_equilibrium_zero_potential():
    p, mu, branch = q_equilibrium(Potential.constant(2, 0.0), 0.5)
    assert p == pytest.approx(2.0 * (math.sqrt(2.0) - 1.0), abs=1e-10)
    assert np.allclose(mu.P, 0.5, atol=1e-9)
    assert branch.summands_positive


def test_q_equilibrium_bowen_round_trip():
    J = random_jacobian(2, 1, seed=3)
    A = _neg_log_q_inv(J, QParam(0.5))
    p, mu, branch = q_equilibrium(A, 0.5)
    assert abs(p) <= 1e-10
    muJ = equilibrium_markov(J)
    assert float(np.max(np.abs(mu.P - muJ.P))) <= 1e-10


def test_q_equilibrium_needs_positive_branch():
    with pytest.raises(NonConvergenceError):
        q_equilibrium(JANA, 1.5)


@pytest.mark.xfail(
    strict=True,
    reason="the closed-form Markov q-entropy does not satisfy the claimed "
    "variational principle: for A = -log_q(1/J) (seed 0, q=1/2) the scan "
    "supremum of H_q + int A exceeds the solved constant c = 0 by about "
    "0.05, far beyond grid resolution",
)
def test_positive_branch_matches_scan():
    J = random_jacobian(2, 1, seed=0)
    A = _neg_log_q_inv(J, QParam(0.5))
    p, mu, branch = q_equilibrium(A, 0.5)
    scan = q_pressure_scan(A, 0.5, 400)
    assert abs(scan.value - p) <= 1e-3
    assert float(np.max(np.abs(scan.argmax.P - mu.P))) <= 1e-2


def test_scan_dominates_positive_branch_constant():
    # one directional half survives: the scan value is never below c
    J = random_jacobian(2, 1, seed=0)
    A = _neg_log_q_inv(J, QParam(0.5))
    p, _, _ = q_equilibrium(A, 0.5)
    scan = q_pressure_scan(A, 0.5, 200)
    assert scan.value >= p - 1e-6


def test_a_q_transform():
    A = Potential(d=2, memory=1, values=np.array([0.4, -0.3]))
    same = a_q_transform(A, 1.0)
    assert np.array_equal(same.values, A.values)
    Aq = a_q_transform(A, 0.5)
    assert np.allclose(Aq.values, np.log1p(0.5 * A.values) / 0.5)
    # the transform shrinks the potential, hence the pressure
    assert classical_pressure(A) >= classical_pressure(Aq) - 1e-12
    with pytest.raises(QExpDomainError):
        a_q_transform(Potential(d=2, memory=1, values=np.array([-2.5, 0.0])), 0.5)


def test_bridge_half_zero_potential():
    B, phiB, cB = bridge_half(Potential.constant(2, 0.0))
    assert cB == pytest.approx(math.log(2.0), abs=1e-12)
    assert np.max(np.abs(phiB)) <= 1e-12
    assert np.allclose(B.values, 2.0 + math.log(2.0) - 2.0 * math.sqrt(2.0), atol=1e-12)
    res = qruelle_residual(B, 1.5, phiB, cB)
    assert float(np.max(np.abs(res))) <= 1e-9


def test_bridge_half_random_inputs():
    rng = np.random.default_rng(0)
    for _ in range(10):
        A = Potential(d=2, memory=1, values=rng.uniform(-1.5, 1.5, 2))
        B, phiB, cB = bridge_half(A)
        res = qruelle_residual(B, 1.5, phiB, cB)
        assert float(np.max(np.abs(res))) <= 1e-9


def test_bridge_half_domain_guard():
    with pytest.raises(QExpDomainError):
        bridge_half(Potential(d=2, memory=1, values=np.array([-2.0, 0.5])))
    # the error names the first entry out of the domain, not the one farthest out
    with pytest.raises(QExpDomainError) as info:
        bridge_half(Potential(d=2, memory=1, values=np.array([-2.5, -3.0])))
    assert info.value.argument == -2.5


def test_bridge_general_matches_half_form():
    rng = np.random.default_rng(1)
    for _ in range(100):
        a = float(rng.uniform(-1.9, 3.0))
        a1, a2, C = rng.normal(size=3)
        r = a1 - a2 - C
        g = bridge_general_g(a, a1, a2, C, 0.5)
        # scalar identity: exp_{3/2}(g + r) = exp_{1/2}(a) e^r
        lhs = (1.0 - 0.5 * (g + r)) ** -2.0
        rhs = (1.0 + 0.5 * a) ** 2.0 * math.exp(r)
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_derivative_identity_report_frozen():
    J = random_jacobian(2, 1, seed=3)
    A = _neg_log_q_inv(J, QParam(0.5))
    B = Potential(d=2, memory=1, values=np.array([0.4, -0.2]))
    rep = derivative_identity_report(A, B)
    assert rep.dPds == pytest.approx(0.3530849904, abs=1e-7)
    assert rep.defect <= 1e-6
    assert rep.quotient == pytest.approx(rep.dPds, abs=1e-6)


# -- q = 1 through the same root kernel: the classical eigen-equation


@st.composite
def _classical_case(draw):
    d = draw(st.sampled_from([2, 3, 4]))
    memory = draw(st.integers(1, 4))
    sigma = draw(st.floats(0.1, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return (
        Potential(d=d, memory=memory, values=rng.normal(0.0, sigma, d**memory)),
        Potential(d=d, memory=memory, values=rng.normal(0.0, 1.0, d**memory)),
    )


@pytest.mark.parametrize("qt", [1.0, QParam(1.0 + 1e-9)])
@given(case=_classical_case())
@settings(max_examples=40, deadline=None)
def test_classical_q_tilde_is_the_eigen_equation(case, qt):
    A, B = case
    c = classical_pressure(A)
    roots = qruelle_solve(A, qt)
    assert len(roots) == 1
    (root,) = roots
    assert root.summands_positive and not root.boundary
    assert abs(root.c - c) <= 1e-12 * max(1.0, abs(c))
    logJ = normalize(A)[0]
    assert np.max(np.abs(root.jacobian.values - np.exp(logJ.values))) <= 1e-12
    assert np.max(np.abs(qruelle_residual(A, qt, root.phi, root.c))) <= 1e-10

    p, mu, _ = q_equilibrium(A, 2.0 - QParam.of(qt).q)
    assert p == root.c
    want = equilibrium_markov(Jacobian.from_log_potential(logJ))
    # the measure is its (k+1)-cylinder masses; a transition out of a state
    # of tiny mass is a ratio of masses and need not agree as closely
    r = logJ.memory
    assert np.max(np.abs(mu.cylinder_masses(r) - want.cylinder_masses(r))) <= 1e-12
    # the classical derivative of the pressure: dP/ds = int B dmu_A
    assert abs(pressure_derivative(A, B, 1.0) - mu.integrate(B)) <= 1e-12


def test_size_guard():
    with pytest.raises(SizeGuardError):
        qruelle_solve(Potential(d=2, memory=5, values=np.zeros(32)), 0.5)


@pytest.mark.parametrize("seed", [0, 3])
def test_higher_memory_constant_direction(seed):
    # A of memory 2, B of memory 3: the root is lifted to the 2-contexts
    A = _neg_log_q_inv(random_jacobian(2, 1, seed=seed), QParam(0.5))
    b = 0.7
    B = Potential(d=2, memory=3, values=np.full(8, b))
    assert pressure_derivative(A, B, 0.5) == pytest.approx(b, abs=1e-12)
    rep = derivative_identity_report(A, B)
    assert rep.dPds == pytest.approx(b, abs=1e-12)
    assert rep.quotient == pytest.approx(b, abs=1e-8)


@pytest.mark.parametrize("seed", [0, 3])
def test_higher_memory_coboundary_direction(seed):
    A = _neg_log_q_inv(random_jacobian(2, 1, seed=seed), QParam(0.5))
    # g(w[:2]) - g(w[1:]) on the 3-words w
    g = np.random.default_rng(seed).normal(0.0, 1.0, 4)
    w = np.arange(8)
    B = Potential(d=2, memory=3, values=g[w // 2] - g[w % 4])
    assert abs(pressure_derivative(A, B, 0.5)) <= 1e-12
    rep = derivative_identity_report(A, B)
    assert abs(rep.dPds) <= 1e-12
    assert abs(rep.quotient) <= 1e-8


# -- Richardson oracle for dc/ds: central differences at +-h and +-h/2 of the
# roots of A + s*B, each found by one Newton solve from the s = 0 root; in the
# strict case h is at most a tenth of the root's smallest base, so the shifted
# systems stay well inside the domain.  The quotients carry a roundoff of
# about 2e-16 / h, so draws that would need h < 1e-6 (smallest base below
# 1e-5) are skipped: there the oracle's own error nears the 1e-8 tolerance


def _richardson_slope(A, B, q_tilde, root):
    k = A.context_length()
    sys = _System(A, q_tilde, k=max(k, B.context_length()))
    B_vals = sys.values_of(B)
    phi = root.phi[prefix_index(np.arange(sys.n), sys.d, sys.k, k)]
    h = 1e-4
    if sys.order is None:
        h = min(h, 0.1 * float(sys.bases(sys.arguments(phi[None], np.array([root.c]))).min()))
        assume(h >= 1e-6)
    c = {}
    for s in (h, -h, h / 2, -h / 2):
        _, C, ok = _newton(sys.with_values(sys.A_vals + s * B_vals), phi[None], np.array([root.c]))
        assert ok[0]
        c[s] = C[0]
    d1 = (c[h] - c[-h]) / (2.0 * h)
    d2 = (c[h / 2] - c[-h / 2]) / h
    return (4.0 * d2 - d1) / 3.0


@given(
    cell=st.sampled_from([(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2)]),
    qt=st.floats(0.3, 1.7).filter(lambda x: abs(x - 1.0) >= 0.05),
    sigma=st.floats(0.1, 1.0),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_derivative_matches_richardson_oracle(cell, qt, sigma, seed, data):
    d, memory = cell
    memory_b = data.draw(st.integers(1, memory + 1))
    rng = np.random.default_rng(seed)
    A = Potential(d=d, memory=memory, values=rng.normal(0.0, sigma, d**memory))
    B = Potential(d=d, memory=memory_b, values=rng.normal(0.0, 1.0, d**memory_b))
    q = 2.0 - qt
    q_tilde = QParam(q).dual  # the q-tilde pressure_derivative solves at
    roots = qruelle_solve(A, q_tilde)
    assume(roots)
    branch = data.draw(st.integers(0, len(roots) - 1))
    want = _richardson_slope(A, B, q_tilde, roots[branch])
    assert pressure_derivative(A, B, q, branch_index=branch) == pytest.approx(want, abs=1e-8)


# -- per-start reference: one scalar damped Newton per start, as the solver
# ran before its starts were batched; the batched solver must match it bit
# for bit


def _ref_evaluate(sys, phi, c):
    base = 1.0 + (1.0 - sys.qt) * (sys.A_vals + phi[sys.pre_idx] - phi[:, None] - c)
    if sys.order is not None:
        return base**sys.order, base ** (sys.order - 1)
    if np.any(base <= 1e-300):
        return None
    p = 1.0 / (1.0 - sys.qt)
    return base**p, base ** (p - 1.0)


def _ref_defect(sys, phi, c):
    out = _ref_evaluate(sys, phi, c)
    return None if out is None else out[0].sum(axis=1) - 1.0


def _ref_newton(sys, phi, c, tol=1e-12, iters=60):
    phi = phi.copy()
    F = _ref_defect(sys, phi, c)
    if F is None:
        return None
    fnorm = float(np.max(np.abs(F)))
    for _ in range(iters):
        if fnorm <= tol:
            return phi, c
        E, dE = _ref_evaluate(sys, phi, c)
        Jfull = np.zeros((sys.n, sys.n + 1))
        np.add.at(Jfull, (np.arange(sys.n)[:, None], sys.pre_idx), dE)
        Jfull[np.arange(sys.n), np.arange(sys.n)] -= dE.sum(axis=1)
        Jfull[:, sys.n] = -dE.sum(axis=1)
        Jmat = np.delete(Jfull, 0, axis=1)
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
            F_t = _ref_defect(sys, phi_t, c_t)
            if F_t is not None:
                fn_t = float(np.max(np.abs(F_t)))
                if fn_t < fnorm or fn_t <= tol:
                    phi, c, F, fnorm = phi_t, c_t, F_t, fn_t
                    break
            lam *= 0.5
        else:
            return None
    return (phi, c) if fnorm <= tol else None


def _ref_solve(A, q_tilde, max_starts=2000):
    qp = QParam.of(q_tilde)
    sys = _System(A, qp)
    c0 = _trivial_c(sys.d, qp)
    # the fixed-point candidate is the library's; the lattice runs at every
    # q-tilde, so at non-polynomial q-tilde it checks that the solver, which
    # skips the lattice there, misses no root
    (phi,), (c,) = _topical_root(sys)
    candidates = [(phi, c)]
    phi_levels = (-3.0, -1.5, 0.0, 1.5, 3.0)
    c_levels = (c0, c0 + 2.0, c0 - 2.0, c0 + 4.0, c0 - 4.0)
    lattice = itertools.product(itertools.product(phi_levels, repeat=sys.n - 1), c_levels)
    for free_phi, c_start in itertools.islice(lattice, max_starts):
        res = _ref_newton(sys, np.concatenate(([0.0], free_phi)), c_start)
        if res is not None:
            candidates.append(res)
    roots = []
    for phi, c in candidates:
        defect = _ref_defect(sys, phi, c)
        if defect is None or float(np.max(np.abs(defect))) > 1e-10:
            continue
        if any(abs(c - c2) < 1e-7 and np.max(np.abs(phi - p2)) < 1e-7 for p2, c2 in roots):
            continue
        roots.append((phi, c))
    roots.sort(key=lambda r: (-r[1], tuple(r[0])))
    out = []
    for phi, c in roots:
        base = 1.0 + (1.0 - sys.qt) * (sys.A_vals + phi[sys.pre_idx] - phi[:, None] - c)
        positive = float(np.min(base)) > 1e-12
        boundary = bool(np.any(np.abs(base) <= 1e-12))
        if boundary:
            continue
        residual = float(np.max(np.abs(_ref_defect(sys, phi, c))))
        out.append((phi, float(c), residual, positive, boundary))
    return out


def _assert_same_roots(A, qt, max_starts=2000):
    got = qruelle_solve(A, qt)
    want = _ref_solve(A, qt, max_starts=max_starts)
    assert len(got) == len(want)
    for r, (phi, c, residual, positive, boundary) in zip(got, want):
        assert np.array_equal(r.phi, phi)
        assert r.c == c
        assert r.residual == residual
        assert r.summands_positive == positive
        assert r.boundary == boundary


_PIN_CASES = [(2, m) for m in (1, 2, 3)] + [(3, m) for m in (1, 2)]


@pytest.mark.parametrize("qt", [0.5, 0.7, 0.75, 1.5])
@pytest.mark.parametrize("d,memory", _PIN_CASES)
def test_solver_matches_per_start_reference(d, memory, qt):
    rng = np.random.default_rng([d, memory, int(qt * 100)])
    for sigma in (0.25, 0.8):
        A = Potential(d=d, memory=memory, values=rng.normal(0.0, sigma, d**memory))
        _assert_same_roots(A, qt)


@pytest.mark.parametrize("qt", [0.5, 0.7, 0.75, 1.5])
def test_solver_matches_per_start_reference_memory_4(qt, monkeypatch):
    # 5^8 lattice points: a small cap truncates the lattice
    monkeypatch.setattr(qsolve, "_MAX_STARTS", 150)
    rng = np.random.default_rng([2, 4, int(qt * 100)])
    A = Potential(d=2, memory=4, values=rng.normal(0.0, 0.25, 16))
    _assert_same_roots(A, qt, max_starts=150)


@pytest.mark.parametrize("cap", [150, 2000])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 9, 27, 64])
def test_lattice_starts_are_the_tuple_enumeration(n, cap):
    # n = 64 (d = 4, memory 4) is past 5**27, where an int64 power of 5 overflows
    c0 = math.log(3.0)
    phi_levels = (-3.0, -1.5, 0.0, 1.5, 3.0)
    c_levels = (c0, c0 + 2.0, c0 - 2.0, c0 + 4.0, c0 - 4.0)
    # itertools.product first reads its arguments whole, so the outer product over the
    # 5**(n - 1) phi tuples is written as the lazy loop it equals
    lattice = ((phi, c) for phi in itertools.product(phi_levels, repeat=n - 1) for c in c_levels)
    want = list(itertools.islice(lattice, cap))
    if n <= 7:
        nested = itertools.product(itertools.product(phi_levels, repeat=n - 1), c_levels)
        assert want == list(itertools.islice(nested, cap))
    PHI, C = _lattice_starts(n, c0, cap)
    assert PHI.shape == (len(want), n) and C.shape == (len(want),)
    assert not PHI[:, 0].any()
    assert [(tuple(phi[1:]), c) for phi, c in zip(PHI.tolist(), C.tolist())] == want


def test_solver_runs_the_lattice_on_27_contexts(monkeypatch):
    # d = 3, memory 4: the starts are index arithmetic, never the 5**26 phi tuples
    monkeypatch.setattr(qsolve, "_MAX_STARTS", 150)
    A = Potential(d=3, memory=4, values=np.random.default_rng(0).normal(0.0, 0.3, 81))
    roots = qruelle_solve(A, 0.5)
    assert len(roots) > 1
    assert all(r.residual <= 1e-10 for r in roots)
    assert [r.c for r in roots] == sorted((r.c for r in roots), reverse=True)
    (positive,) = [r for r in roots if r.summands_positive]
    assert np.array_equal(positive.phi, positive_branch(A, 0.5).phi)


def test_singular_row_takes_the_least_squares_step(monkeypatch):
    # at qt = 1/2 the summand derivative is the base itself; with the bases of
    # the first context all zero, that row of the Jacobian vanishes
    A = Potential(d=2, memory=2, values=np.array([0.0, 0.5, 0.0, 0.3]))
    sys = _System(A, QParam(0.5))
    starts = [(np.array([0.0, 0.4]), 2.1), (np.array([0.0, 0.0]), 2.0), (np.array([0.0, -1.0]), 2.5)]
    assert not np.any(_ref_evaluate(sys, *starts[1])[1][0])
    refs = [_ref_newton(sys, phi, c) for phi, c in starts]
    assert refs[1] is not None  # the least-squares step leads to a root

    lstsq_calls = []
    lstsq = np.linalg.lstsq

    def counting_lstsq(*args, **kwargs):
        lstsq_calls.append(args[0].shape)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
    PHI = np.array([phi for phi, _ in starts])
    C = np.array([c for _, c in starts])
    out_phi, out_c, converged = _newton(sys, PHI, C)
    assert lstsq_calls  # the stacked solve raised and the singular row fell back
    for i, ref in enumerate(refs):
        assert converged[i] == (ref is not None)
        if ref is not None:
            assert np.array_equal(out_phi[i], ref[0])
            assert out_c[i] == ref[1]
    # the other rows come out as they do without the singular row beside them
    alone_phi, alone_c, alone_ok = _newton(sys, PHI[[0, 2]], C[[0, 2]])
    assert np.array_equal(alone_ok, converged[[0, 2]])
    assert np.array_equal(alone_phi, out_phi[[0, 2]])
    assert np.array_equal(alone_c, out_c[[0, 2]])


# -- the positive branch as the fixed point of the cut-off map


@given(
    cell=st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]),
    qt=st.one_of(
        st.sampled_from([0.5, 0.75]),  # polynomial: the lattice runs too
        st.floats(0.3, 1.7).filter(lambda x: abs(x - 1.0) >= 0.05),
    ),
    sigma=st.floats(0.1, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_positive_root_is_the_cutoff_fixed_point(cell, qt, sigma, seed):
    d, memory = cell
    A = Potential(d=d, memory=memory, values=np.random.default_rng(seed).normal(0.0, sigma, d**memory))
    sys = _System(A, QParam(qt))
    roots = qruelle_solve(A, qt)
    positive = [r for r in roots if r.summands_positive]
    assert len(positive) <= 1
    if sys.order is None:
        assert len(roots) <= 1
        assert all(r.summands_positive for r in roots)
    for r in positive:
        T = _cutoff_root(sys.A_vals + r.phi[sys.pre_idx], sys.qt)
        assert np.max(np.abs(T - r.phi - r.c)) <= 1e-10
    (phi,), (c,) = _topical_root(sys)
    assert _classify(sys, phi, c)[0] == bool(positive)
    # positive_branch is the list's positive root, found without the lattice
    branch = positive_branch(A, qt)
    assert (branch is None) == (not positive)
    if positive:
        (r,) = positive
        assert np.array_equal(branch.phi, r.phi)
        assert branch.c == r.c and branch.residual == r.residual
        assert np.array_equal(branch.jacobian.values, r.jacobian.values)
        assert branch.summands_positive and not branch.boundary and branch.branch_id == 0


def test_fixed_point_certifies_a_draw_without_positive_root():
    # the second N(0, 0.25) draw of default_rng([14, 1]) at qt = 1/2: at the
    # fixed point the 12-summand of context 2 is cut off, so its equation is
    # met by the 22-summand alone and c = A(22); no root has positive bases
    rng = np.random.default_rng([14, 1])
    rng.normal(0.0, 0.25, 4)
    A = Potential(d=2, memory=2, values=rng.normal(0.0, 0.25, 4))
    sys = _System(A, QParam(0.5))
    (phi,), (c,) = _topical_root(sys)
    positive = _classify(sys, phi, c)[0]
    assert abs(c - A.values[3]) <= 1e-12
    assert not positive
    assert not any(r.summands_positive for r in qruelle_solve(A, 0.5))
    assert positive_branch(A, 0.5) is None
    with pytest.raises(NonConvergenceError):
        q_equilibrium(A, 1.5)


# the 764th draw of default_rng(1) drawing d, memory, q-tilde, sigma, then the values
_CUTOFF_DRAW = Potential(d=3, memory=3, values=np.array([
    -1.8829424506807695, 2.7278197333865273, 1.3479187476632135, 0.24256799241106153,
    -4.0178917043428655, 2.0560969000599423, 1.0044757238706667, -2.806594167850003,
    2.878664592285677, -1.8858588890248078, 3.2657369976572665, 0.3787887440000056,
    -1.3102758341215297, 6.13528011993367, 4.216364416393569, 2.091499256250895,
    -2.697117693353194, -1.149334647006714, 1.6720292474700185, -1.5842809701396177,
    -1.9438315354332114, 1.3077599583913229, 0.8741637718401147, -3.855165101409547,
    2.4697490567237343, 0.09962139710922807, 6.132462880060668]))


def test_positive_branch_on_a_root_touching_the_cutoff():
    # at the fixed point summands are cut off (the least strict base is -5.14), and the
    # equation of one context is met by the 14th entry's summand alone: c = A[13]
    A = _CUTOFF_DRAW
    assert positive_branch(A, 0.7) is None
    sys = _System(A, QParam(0.7))
    (phi,), (c,) = _topical_root(sys)
    gap = _cutoff_root(sys.A_vals + phi[sys.pre_idx], sys.qt) - phi
    assert gap.max() - gap.min() <= 1e-12
    assert abs(c - 6.13528011993367) <= 1e-12 and A.values[13] == 6.13528011993367
    assert (1.0 + 0.3 * sys.arguments(phi[None], np.array([c]))).min() < -5.0


@pytest.mark.xfail(
    strict=True,
    raises=NonConvergenceError,
    reason="the scan has no Newton step yet: on the cut-off draw its damped iteration narrows "
    "only to relative width 6.0e-6 in 5,000 steps",
)
def test_scan_on_the_cutoff_draw():
    res = q_pressure_scan(_CUTOFF_DRAW, 1.3, 8)
    lo, hi = res.bracket
    assert hi - lo <= 1e-12 * max(1.0, abs(hi))


@pytest.mark.parametrize("qt,seed", [(1.03, 0), (0.97, 24)])
def test_cutoff_map_stops_at_its_roundoff_floor(qt, seed):
    # near qt = 1 the Newton step of some context stalls above 1e-15*|t|
    # while the sum no longer falls; a step test alone would never stop
    A = Potential(d=3, memory=2, values=np.random.default_rng(seed).normal(0.0, 1.0, 9))
    sys = _System(A, QParam(qt))
    (phi,), (c,) = _topical_root(sys)
    assert _classify(sys, phi, c)[0]
    T = _cutoff_root(sys.A_vals + phi[sys.pre_idx], sys.qt)
    assert np.max(np.abs(T - phi - c)) <= 1e-12
    assert np.max(np.abs(sys.defect(sys.arguments(phi[None], np.array([c]))))) <= 1e-12


@pytest.mark.parametrize("d,memory", [(2, 1), (2, 2), (3, 2), (2, 3)])
def test_fixed_point_tends_to_the_classical_eigenfunction(d, memory):
    # at qt = 1 - eps the fixed point is the Perron eigendata (log h, log lambda)
    # of the classical transfer matrix up to O(eps)
    A = Potential(d=d, memory=memory, values=np.random.default_rng([d, memory]).normal(0.0, 0.5, d**memory))
    lam, h, _ = leading_eig(transfer_matrix(A))
    log_h = np.log(h) - math.log(h[0])
    gaps = []
    for eps in (1e-2, 5e-3, 2.5e-3):
        sys = _System(A, QParam(1.0 - eps))
        (phi,), (c,) = _topical_root(sys)
        assert _classify(sys, phi, c)[0]
        gaps.append(abs(c - math.log(lam)))
        assert gaps[-1] <= eps
        assert np.max(np.abs(phi - log_h)) <= 0.1 * eps
    for wide, narrow in zip(gaps, gaps[1:]):
        assert wide / narrow == pytest.approx(2.0, rel=1e-2)


@given(
    d=st.sampled_from([2, 3]),
    memory=st.integers(1, 3),
    qt=st.sampled_from([0.5, 0.7, 1.0, 1.5]),
    size=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_stacked_roots_are_their_lone_calls(d, memory, qt, size, seed):
    rng = np.random.default_rng(seed)
    # memories 1 and 2 share context length 1, so such a stack may mix them
    mems = rng.choice([1, 2], size) if memory <= 2 else np.full(size, memory)
    As = [Potential(d=d, memory=int(m), values=rng.normal(0.0, 0.8, d ** int(m))) for m in mems]
    sys = _stacked_system(As, QParam(qt), "the test")
    try:
        lone = [_topical_root(_System(A, QParam(qt), sys.k)) for A in As]
    except NonConvergenceError:  # a rare slow draw: the stack must raise alike
        with pytest.raises(NonConvergenceError):
            _topical_root(sys)
        return
    PHI, C = _topical_root(sys)
    assert [(phi.tobytes(), c) for phi, c in zip(PHI, C)] == [(phi.tobytes(), c) for (phi,), (c,) in lone]
    assert classical_pressures(As) == [classical_pressure(A) for A in As]
    for (logJ, lam, h), A in zip(normalizes(As), As):
        one = normalize(A)
        assert (logJ.values.tobytes(), lam, h.tobytes()) == (one[0].values.tobytes(), one[1], one[2].tobytes())
    branches = positive_branches(As, qt)
    for branch, A in zip(branches, As):
        one = positive_branch(A, qt)
        assert (branch is None) == (one is None)
        if one is not None:
            assert (branch.phi.tobytes(), branch.c, branch.residual) == (one.phi.tobytes(), one.c, one.residual)
            assert branch.jacobian.values.tobytes() == one.jacobian.values.tobytes()
    if all(branches):
        for (p, mu, branch), A in zip(q_equilibria(As, 2.0 - qt), As):
            one = q_equilibrium(A, 2.0 - qt)
            assert (p, mu.P.tobytes(), mu.pi.tobytes()) == (one[0], one[1].P.tobytes(), one[1].pi.tobytes())
            assert branch.jacobian.values.tobytes() == one[2].jacobian.values.tobytes()


@pytest.mark.parametrize(
    "call",
    [classical_pressures, normalizes, lambda As: positive_branches(As, 0.5), lambda As: q_equilibria(As, 1.5)],
    ids=["classical_pressures", "normalizes", "positive_branches", "q_equilibria"],
)
def test_stacked_entry_points_refuse_an_empty_or_mixed_stack(call):
    with pytest.raises(ValueError, match="needs at least one potential"):
        call([])
    A2 = Potential(d=2, memory=2, values=np.array([0.0, 1.0, 0.5, 0.2]))
    with pytest.raises(ValueError, match=r"potential 1 has \(d, k\) = \(3, 1\), not \(2, 1\)"):
        call([A2, Potential.constant(3, 0.0)])
    with pytest.raises(ValueError, match=r"potential 2 has \(d, k\) = \(2, 2\), not \(2, 1\)"):
        call([A2, A2, Potential.constant(2, 0.0, memory=3)])
