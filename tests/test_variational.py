import math

import numpy as np
import pytest

from qthermo import variational
from qthermo.errors import SizeGuardError
from qthermo.qfun import QParam, log_q
from qthermo.ruelle import classical_pressure, q_entropy_markov
from qthermo.shift import Potential, all_words
from qthermo.variational import (
    entropy_affinity_report,
    entropy_surface,
    midpoint_concavity_report,
    q_pressure_scan,
)

A_01 = Potential(d=2, memory=1, values=np.array([0.0, 1.0]))


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
        q_pressure_scan(Potential.constant(3, 0.0), 0.5, 10)
    with pytest.raises(SizeGuardError):
        q_pressure_scan(Potential.constant(2, 0.0, memory=3), 0.5, 300)


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
    surf = entropy_surface(0.5, 5)
    path = tmp_path / "surf.csv"
    surf.to_csv(str(path))
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
    assert rep5["min_gap"] == pytest.approx(5.2911982559189497e-05, rel=1e-3)
    rep9 = midpoint_concavity_report(0.9)
    assert rep9["negative_fraction"] == 0.0
    assert rep9["min_gap"] == pytest.approx(6.35523020371398e-05, rel=1e-3)
    assert rep5["mean_gap"] > rep5["min_gap"]


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
