import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from qthermo import cli, variational
from qthermo.errors import SizeGuardError
from qthermo.qfun import QParam, _regularized_max, log_q
from qthermo.qsolve import _neg_log_q_inv, positive_branch
from qthermo.ruelle import (
    MarkovMeasure,
    _context_tables,
    classical_pressure,
    q_entropy_markov,
    random_jacobian,
)
from qthermo.shift import Potential, all_words
from qthermo.variational import (
    _binary_chart,
    _binary_q_entropy,
    entropy_affinity_report,
    entropy_surface,
    midpoint_concavity_report,
    q_pressure_scan,
    q_pressure_scans,
)

A_01 = Potential(d=2, memory=1, values=np.array([0.0, 1.0]))


def _ref_scan(A, q, grid_n=100):
    """The former brute-force scan: the best point of a grid over the memory-1
    binary Markov measures (P(1->2), P(2->1)) in (1e-4, 1 - 1e-4), polished by
    Nelder-Mead.  A has d = 2 and memory <= 2; a memory-1 A is read on the
    2-cylinders by repeating its values."""
    qp = QParam.of(q)
    v = A.values if A.memory == 2 else np.repeat(A.values, 2)
    assert A.d == 2 and v.shape == (4,)

    def objective(p, r):
        mass = _binary_chart(p, r)[0]
        return _binary_q_entropy(p, r, qp) + np.tensordot(v, mass, axes=1)

    t = np.linspace(1e-4, 1.0 - 1e-4, grid_n)
    obj = objective(*np.meshgrid(t, t, indexing="ij"))
    i, j = np.unravel_index(int(np.argmax(obj)), obj.shape)

    def polish(params):
        return float(objective(*np.clip(params, 1e-4, 1.0 - 1e-4)))

    best = np.array([t[i], t[j]])
    res = minimize(
        lambda x: -polish(x),
        best,
        method="Nelder-Mead",
        options={"maxiter": 400, "xatol": 1e-10, "fatol": 1e-13},
    )
    return max(polish(best), polish(res.x))


def test_scan_zero_potential_is_max_q_entropy():
    res = q_pressure_scan(Potential.constant(2, 0.0), 0.5, 100)
    assert res.value == pytest.approx(2.0 * (math.sqrt(2.0) - 1.0), abs=1e-12)
    # the maximum is flat, so the refined argmax sits within optimizer
    # tolerance of the uniform measure while the value is pinned exactly
    assert res.argmax.pi == pytest.approx([0.5, 0.5], abs=1e-6)
    assert res.refined


def test_scan_refined_is_a_python_bool():
    assert type(q_pressure_scan(A_01, 0.5, 40).refined) is bool


def test_scan_classical_limit_matches_transfer_matrix():
    res = q_pressure_scan(A_01, 1.0, 100)
    assert res.value == pytest.approx(classical_pressure(A_01), abs=1e-9)
    assert res.value == pytest.approx(math.log(1.0 + math.e), abs=1e-9)


def test_scan_reevaluates_exactly_at_argmax():
    res = q_pressure_scan(A_01, 0.5, 80)
    again = q_entropy_markov(res.argmax, QParam(0.5)) + res.argmax.integrate(A_01)
    assert again == res.value


def test_scan_monotone_in_potential():
    lo = q_pressure_scan(A_01, 0.5, 80)
    hi = q_pressure_scan(
        Potential(d=2, memory=1, values=np.array([0.2, 1.1])), 0.5, 80
    )
    assert hi.value >= lo.value


def test_scan_translation_covariance():
    base = q_pressure_scan(A_01, 0.5, 80)
    shifted = q_pressure_scan(
        Potential(d=2, memory=1, values=A_01.values + 0.7), 0.5, 80
    )
    assert shifted.value - base.value == pytest.approx(0.7, abs=1e-9)


def test_scan_coboundary_invariance():
    # A and A + f(next) - f(first) integrate identically against every
    # stationary measure, so the scans agree pointwise
    rng = np.random.default_rng(5)
    vals = rng.uniform(-0.3, 0.8, 4)
    f = np.array([0.3, -0.4])
    vals2 = vals.copy()
    for i, (a, b) in enumerate(all_words(2, 2)):
        vals2[i] += f[b - 1] - f[a - 1]
    r1 = q_pressure_scan(Potential(d=2, memory=2, values=vals), 0.5, 80)
    r2 = q_pressure_scan(Potential(d=2, memory=2, values=vals2), 0.5, 80)
    assert abs(r1.value - r2.value) <= 1e-9


@pytest.mark.xfail(
    strict=True,
    reason="for q < 1 the deformed entropy dominates the Shannon entropy, so "
    "the deformed variational sup strictly exceeds the classical pressure "
    "(by 0.279 at q = 0.3); the two sides cannot agree",
)
def test_scan_bounded_by_classical_pressure_for_q_below_one():
    for q in (0.3, 0.7):
        res = q_pressure_scan(A_01, q, 100)
        assert res.value <= classical_pressure(A_01) + 1e-9


def test_scan_exceeds_classical_by_frozen_margin():
    # the companion measurement to the xfail above
    excess = {0.3: 0.2786079805697421, 0.7: 0.091852639388037}
    for q, expect in excess.items():
        res = q_pressure_scan(A_01, q, 100)
        assert res.value - classical_pressure(A_01) == pytest.approx(
            expect, abs=1e-6
        )
        assert res.value >= classical_pressure(A_01) - 1e-9


def test_scan_memory3_constant():
    res = q_pressure_scan(Potential.constant(2, 0.4, memory=3), 0.5, 8)
    target = float(log_q(2.0, QParam(0.5))) + 0.4
    assert res.value == pytest.approx(target, abs=1e-8)


def test_scan_memory3_reduces_to_memory1():
    # a 3-word potential that only reads its first symbol
    vals3 = np.array([0.0 if w[0] == 1 else 1.0 for w in all_words(2, 3)])
    r3 = q_pressure_scan(Potential(d=2, memory=3, values=vals3), 0.5, 8)
    r1 = q_pressure_scan(A_01, 0.5, 100)
    assert r3.value == pytest.approx(r1.value, abs=1e-8)


def test_scan_guards():
    with pytest.raises(SizeGuardError):
        q_pressure_scan(Potential.constant(2, 0.0, memory=7), 0.5, 10)
    with pytest.raises(SizeGuardError):  # 5**6 contexts
        q_pressure_scan(Potential.constant(5, 0.0, memory=7), 0.5, 10)


@given(
    d_memory=st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]),
    q=st.one_of(st.just(1.0), st.floats(0.2, 3.0)),
    sigma=st.floats(0.1, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_scan_value_lies_in_its_closed_bracket(d_memory, q, sigma, seed):
    d, memory = d_memory
    A = Potential(
        d=d, memory=memory, values=np.random.default_rng(seed).normal(0.0, sigma, d**memory)
    )
    res = q_pressure_scan(A, q, 8)
    lo, hi = res.bracket
    assert lo - 1e-11 <= res.value <= hi + 1e-11
    assert hi - lo <= 1e-12 * max(1.0, abs(hi))
    # H_q >= h for q < 1 and H_q <= h for q > 1 on every measure
    P = classical_pressure(A)
    if QParam(q).classical:
        assert res.value == pytest.approx(P, abs=1e-12)
    elif q < 1.0:
        assert res.value >= P - 1e-10
    else:
        assert res.value <= P + 1e-10
    if d == 2 and memory <= 2:
        assert res.value >= _ref_scan(A, q) - 1e-10


def test_scan_finds_a_sparse_maximizer_on_the_boundary():
    # at q = 4 the words 11 and 22 get no mass: the maximizer alternates 1212...,
    # with zero entropy and mean (1 + 2)/2, which the interior grid only approaches
    A = Potential(d=2, memory=2, values=np.array([0.0, 1.0, 2.0, 0.0]))
    res = q_pressure_scan(A, 4.0, 8)
    assert res.argmax.P[0, 0] == 0.0 and res.argmax.P[1, 1] == 0.0
    assert res.value == pytest.approx(1.5, abs=1e-12)
    again = q_entropy_markov(res.argmax, QParam(4.0)) + res.argmax.integrate(A)
    assert again == res.value
    assert res.value >= _ref_scan(A, 4.0)


def test_scan_matches_the_reference_above_q_two():
    A = Potential(d=2, memory=2, values=np.array([0.0, 1.5, -1.0, 0.5]))
    res = q_pressure_scan(A, 2.5, 8)
    assert res.value == pytest.approx(_ref_scan(A, 2.5), abs=1e-9)
    assert res.value == pytest.approx(0.7163796831419573, abs=1e-12)


@pytest.mark.parametrize("q", [2.0, 2.5, 3.0])
def test_scan_maximizer_with_two_closed_classes(q):
    # the maximizing policy fixes both 11... and 22...; A(11) is the larger
    # loop, so the sup is A(11), attained by the point mass on 111...
    A = Potential(d=2, memory=2, values=np.random.default_rng(44788).normal(0.0, 2.0, 4))
    res = q_pressure_scan(A, q, 8)
    lo, hi = res.bracket
    assert res.value == A.values[0]
    assert np.array_equal(res.argmax.pi, [1.0, 0.0])
    assert hi - lo <= 1e-12 * max(1.0, abs(hi))


def test_scan_memory3_maximizer_with_two_closed_classes():
    rng = np.random.default_rng(775)
    rng.normal(0.0, 5.0, 4)
    A = Potential(d=2, memory=3, values=rng.normal(0.0, 5.0, 8))
    res = q_pressure_scan(A, 3.0, 8)
    lo, hi = res.bracket
    assert lo - 1e-11 <= res.value <= hi + 1e-11
    assert res.value <= classical_pressure(A) + 1e-10
    again = q_entropy_markov(res.argmax, QParam(3.0)) + res.argmax.integrate(A)
    assert again == res.value


def _single_row_scan_bracket(A, q):
    """The scan's former one-potential loop: (bracket, Bellman evaluations) of
    damped relative value iteration on a 1-d h, to hi - lo <= 1e-12*max(1, |hi|)."""
    _, pre_idx, A_vals = _context_tables(A, A.context_length())
    h = np.zeros(A.d ** A.context_length())
    for step in range(1, 5001):
        gap = _regularized_max(A_vals + h[pre_idx], q)[1] - h
        lo, hi = float(gap.min()), float(gap.max())
        if hi - lo <= 1e-12 * max(1.0, abs(hi)):
            return (lo, hi), step
        h = h + 0.5 * gap
        h -= h[0]
    raise AssertionError("no closed bracket")


@pytest.mark.parametrize("memory, q", [(1, 0.5), (2, 0.5), (2, 1.5), (3, 2.5), (2, 1.0)])
def test_stack_of_one_is_the_single_row_loop(memory, q):
    values = np.random.default_rng(memory).normal(0.0, 0.8, 2**memory)
    A = Potential(d=2, memory=memory, values=values)
    (res,) = q_pressure_scans([A], q, 8)
    assert (res.bracket, res.iterations) == _single_row_scan_bracket(A, q)
    one = q_pressure_scan(A, q, 8)
    assert (one.value, one.bracket, one.iterations) == (res.value, res.bracket, res.iterations)
    assert np.array_equal(one.argmax.P, res.argmax.P)


@given(
    d=st.sampled_from([2, 3]),
    memory=st.integers(1, 3),
    q=st.sampled_from([0.5, 1.0, 1.5, 2.5]),
    size=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_stacked_scan_rows_match_their_single_scans(d, memory, q, size, seed):
    rng = np.random.default_rng(seed)
    # memories 1 and 2 share context length 1, so such a stack may mix them
    mems = rng.choice([1, 2], size) if memory <= 2 else np.full(size, memory)
    As = [Potential(d=d, memory=int(m), values=rng.normal(0.0, 0.8, d ** int(m))) for m in mems]
    for A, res in zip(As, q_pressure_scans(As, q, 8)):
        one = q_pressure_scan(A, q, 8)  # each slice of the cut-off root stops as it would alone
        assert (res.value, res.bracket, res.iterations) == (one.value, one.bracket, one.iterations)
        lo, hi = res.bracket
        assert lo - 1e-12 <= res.value <= hi + 1e-12
        assert hi - lo <= 1e-12 * max(1.0, abs(hi))


def test_stacked_scan_refuses_an_empty_or_mixed_stack():
    with pytest.raises(ValueError, match="at least one"):
        q_pressure_scans([], 0.5, 8)
    A2 = Potential(d=2, memory=2, values=np.array([0.0, 1.0, 0.5, 0.2]))
    with pytest.raises(ValueError, match=r"potential 2 has \(d, k\) = \(3, 1\), not \(2, 1\)"):
        q_pressure_scans([A2, A_01, Potential.constant(3, 0.0), A2], 0.5, 8)
    with pytest.raises(ValueError, match=r"potential 1 has \(d, k\) = \(2, 2\), not \(2, 1\)"):
        q_pressure_scans([A_01, Potential.constant(2, 0.0, memory=3)], 0.5, 8)


def test_scan_iterations_on_the_catalog_draws():
    # criterion 5: the first 20 N(0, 0.8) memory-2 draws with a positive branch, at q = 3/2
    rng = np.random.default_rng(0)
    As = []
    while len(As) < 20:
        A = Potential(d=2, memory=2, values=rng.normal(0.0, 0.8, 4))
        if positive_branch(A, 0.5) is not None:
            As.append(A)
    steps = [r.iterations for r in q_pressure_scans(As, 1.5, 400)]
    assert (sum(steps), max(steps)) == (889, 126)
    # criterion 6: A = -log_q(1/J) of the Jacobians of seeds 0-19, at q = 1/2
    As = [_neg_log_q_inv(random_jacobian(2, 1, seed=s), QParam(0.5)) for s in range(20)]
    steps = [r.iterations for r in q_pressure_scans(As, 0.5, 400)]
    assert (sum(steps), max(steps), int(np.argmax(steps))) == (1563, 767, 6)


def test_binary_chart_is_the_markov_measure():
    # the closed-form chart against the library's Markov measure of (p, r)
    rng = np.random.default_rng(1)
    for p, r in rng.uniform(0.01, 0.99, (20, 2)):
        mu = MarkovMeasure.from_transitions(2, 1, np.array([[1 - p, p], [r, 1 - r]]))
        mass = _binary_chart(p, r)[0]
        assert mass == pytest.approx(mu.cylinder_masses(2), abs=1e-15)
        for q in (0.5, 1.0, 2.5):
            assert float(_binary_q_entropy(p, r, QParam(q))) == pytest.approx(
                q_entropy_markov(mu, QParam(q)), abs=1e-14
            )


@pytest.mark.parametrize("q", [0.5, 0.9])
def test_surface_center_maximum(q):
    surf = entropy_surface(q, 200)
    p12, p21, val = surf.max_point()
    assert (p12, p21) == (0.5, 0.5)
    assert val == pytest.approx(float(log_q(2.0, QParam(q))), abs=1e-12)


def test_surface_even_grid_is_bumped_to_odd():
    assert len(entropy_surface(0.5, 200).probs) == 201
    assert len(entropy_surface(0.5, 51).probs) == 51


def test_surface_classical_is_shannon():
    surf = entropy_surface(1.0, 50)

    def hb(x):
        return -(x * math.log(x) + (1.0 - x) * math.log1p(-x))

    for i, j in [(10, 30), (3, 3), (44, 12)]:
        p, r = surf.probs[i], surf.probs[j]
        pi1, pi2 = r / (p + r), p / (p + r)
        assert surf.values[i, j] == pytest.approx(
            pi1 * hb(p) + pi2 * hb(r), abs=1e-12
        )


def test_surface_csv_format(tmp_path):
    # the CLI writes the surface's CSV
    surf = entropy_surface(0.5, 5)
    path = tmp_path / "surf.csv"
    assert cli.main(["entropy-surface", "--q", "0.5", "--grid", "5", "--csv", str(path),
                     "--output", str(tmp_path / "surf.json")]) == 0
    raw = path.read_bytes()
    assert b"\r" not in raw  # LF endings only
    lines = raw.decode().splitlines()
    assert lines[0] == "p12,p21,h_q"
    assert len(lines) == 1 + 5 * 5
    p12, p21, h = lines[1 + 2 * 5 + 2].split(",")
    assert float(p12) == surf.probs[2]
    assert float(p21) == surf.probs[2]
    assert float(h) == pytest.approx(surf.values[2, 2], rel=1e-11)


def test_midpoint_gaps_stay_positive():
    # concavity in the transition coordinates is not guaranteed a priori,
    # but over the sampled region every midpoint gap is positive
    rep5 = midpoint_concavity_report(0.5)
    assert rep5["negative_fraction"] == 0.0
    assert rep5["min_gap"] == pytest.approx(5.2911982559189497e-05, rel=1e-12)
    rep9 = midpoint_concavity_report(0.9)
    assert rep9["negative_fraction"] == 0.0
    assert rep9["min_gap"] == pytest.approx(6.35523020371398e-05, rel=1e-12)
    assert rep5["mean_gap"] > rep5["min_gap"]


def test_midpoint_single_draw_is_the_per_segment_stream():
    # midpoint_concavity_report draws all 1,000 segments at once; on PCG64 that
    # is the stream of an x draw then a y draw per segment, and it leaves the
    # generator in the same state
    per_segment = np.random.default_rng(0)
    rows = [
        np.concatenate([per_segment.uniform(0.05, 0.95, 2), per_segment.uniform(0.05, 0.95, 2)])
        for _ in range(1000)
    ]
    single = np.random.default_rng(0)
    assert np.array_equal(single.uniform(0.05, 0.95, (1000, 4)), np.array(rows))
    assert single.bit_generator.state == per_segment.bit_generator.state


def test_affinity_report_positive_defects():
    rep = entropy_affinity_report(0.5, 10)
    assert rep.samples == 10
    assert rep.failures == 0
    assert rep.min_defect > 0.0
    assert rep.min_defect <= rep.mean_defect <= rep.max_defect


def test_affinity_report_counts_library_errors_as_failures():
    # at q = 3/2 every functional evaluation raises QLogDomainError
    rep = entropy_affinity_report(1.5, 4)
    assert rep.failures == rep.samples == 4


def test_affinity_report_propagates_programming_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("not a library error")

    monkeypatch.setattr(variational, "variational_entropy_of_masses", broken)
    with pytest.raises(TypeError, match="not a library error"):
        entropy_affinity_report(0.5, 2)
