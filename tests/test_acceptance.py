"""End-to-end acceptance gates, one test (one pass/fail line) per criterion.

Each test asserts the literal criterion at its stated tolerance via the
frozen regression catalog in qthermo.cli.  Three criteria are marked
xfail(strict): their literal targets are mathematically unattainable, and
each carries a green companion test pinning what the implementation
actually delivers so any drift still fails loudly.
"""

import numpy as np
import pytest

from qthermo import cli
from qthermo.qfun import QParam
from qthermo.qsolve import _neg_log_q_inv, positive_branch, q_equilibrium
from qthermo.ruelle import equilibrium_markov, q_entropy_markov, random_jacobian
from qthermo.shift import Potential


def _assert_criterion(res):
    assert res.target_pass, f"measured: {res.measured} (note: {res.note})"


def test_criterion_01_static_equilibrium_closed_form():
    _assert_criterion(cli.criterion_1())


@pytest.mark.xfail(
    strict=True,
    reason="the target root pair c = 3.85405, phi2 in {-0.89595, -2.39595} "
    "solves only one of the two context equations: substituted into the "
    "other it leaves residual 0.1308, far above the 1e-10 bound.  The "
    "system's true roots are c in {3.0443, 3.7057}, both with phi2 = -0.75.",
)
def test_criterion_02_two_branch_solve():
    _assert_criterion(cli.criterion_2())


def test_criterion_02_true_roots():
    res = cli.criterion_2()
    assert res.matches_expected, f"measured: {res.measured}"
    assert res.measured["branches"] == 2
    assert res.measured["phi2"] == pytest.approx(-0.75, abs=1e-9)


def test_criterion_03_one_free_component_system():
    _assert_criterion(cli.criterion_3())


def test_criterion_04_explicit_family_rows():
    _assert_criterion(cli.criterion_4())


@pytest.mark.xfail(
    strict=True,
    reason="the closed-form Markov q-entropy is not the variational entropy "
    "of the deformed pressure: its sup over Markov measures strictly "
    "exceeds the solver constant on every random draw (gaps 3.7e-4 to "
    "4.1e-2), so scan-vs-constant agreement at 1e-3 cannot hold.",
)
def test_criterion_05_scan_matches_constant_on_random_draws():
    _assert_criterion(cli.criterion_5())


def test_criterion_05_frozen_gaps():
    res = cli.criterion_5()
    assert res.matches_expected, f"measured: {res.measured}"
    assert res.measured["min_gap"] > -1e-9  # scan never falls below c
    # the digits the CLI prints
    assert cli._clean(res.measured) == {
        "max_gap": 0.0408210374408, "min_gap": 0.000369576442618, "mean_gap": 0.0225624440808
    }


@pytest.mark.xfail(
    strict=True,
    reason="the constant and the equilibrium round-trip exactly, but the "
    "bundled scan clause fails for the same reason as the random-draw "
    "comparison: the entropy scan exceeds the recovered constant by "
    "8.2e-3 to 8.1e-2 on the twenty seeds.",
)
def test_criterion_06_jacobian_round_trip():
    _assert_criterion(cli.criterion_6())


def test_criterion_06_recovery_clauses():
    res = cli.criterion_6()
    assert res.matches_expected, f"measured: {res.measured}"
    assert res.measured["max_abs_c"] <= 1e-8
    assert res.measured["max_tv"] <= 1e-8
    assert res.measured["min_gap"] > -1e-9


def test_criteria_05_06_equilibrium_attains_c_in_the_closed_form_objective():
    # H_q(mu_J) + int A dmu_J = c exactly on the draws of both protocols, so
    # their scan gaps say that mu_J does not maximize the closed-form objective
    draws = []
    rng = np.random.default_rng(0)
    while len(draws) < 20:  # criterion 5
        A = Potential(d=2, memory=2, values=rng.normal(0.0, 0.8, 4))
        branch = positive_branch(A, 0.5)
        if branch is not None:
            draws.append((A, 1.5, branch.c, equilibrium_markov(branch.jacobian)))
    for seed in range(20):  # criterion 6
        A = _neg_log_q_inv(random_jacobian(2, 1, seed=seed), QParam(0.5))
        c, mu, _ = q_equilibrium(A, 0.5)
        draws.append((A, 0.5, c, mu))
    for A, q, c, mu in draws:
        assert abs(q_entropy_markov(mu, q) + mu.integrate(A) - c) <= 1e-12


def test_criterion_07_identity_suite():
    _assert_criterion(cli.criterion_7())


def test_criterion_08_entropy_surface_maxima():
    _assert_criterion(cli.criterion_8())


def test_criterion_09_asymptotic_pressure():
    _assert_criterion(cli.criterion_9())


def test_criterion_09_measured_values_are_pinned():
    # the values of the moment recursion taken one n at a time, which the blocked
    # product reproduces bit for bit
    measured = cli.criterion_9().measured
    assert measured == pytest.approx({
        "closed_form_rel": 6.2501718364237054e-15, "estimate_const": 0.693149202792149,
        "estimate_01": 0.6931517078316085, "base_point_diff": 8.027782949504569e-07,
    }, rel=1e-14, abs=0.0)


def test_criterion_10_deformed_sum_subadditivity():
    _assert_criterion(cli.criterion_10())


def test_criterion_11_classical_pressure_and_normalization():
    _assert_criterion(cli.criterion_11())


def test_criterion_12_bridge_identities():
    _assert_criterion(cli.criterion_12())


def test_criterion_13_entropy_bijections():
    res = cli.criterion_13()
    _assert_criterion(res)
    # the digits the CLI prints
    assert cli._clean(res.measured) == {
        "bijection": 4.4408920985e-16, "meson_vericat": 5.55111512313e-17
    }


def test_criterion_14_derivative_identity():
    _assert_criterion(cli.criterion_14())


def test_regression_catalog_is_complete():
    report = cli.run_regression()
    assert [c["criterion"] for c in report["criteria"]] == list(range(1, 15))
    assert report["target_failures"] == sorted(cli.KNOWN_DEFECT_CRITERIA)
    assert report["drifted"] == []
    assert report["ok"] is True


# (criterion, title, known_defect, note) as the catalog reports them
CATALOG = [
    (1, "static equilibrium closed form", False, ""),
    (2, "two-branch solve, zero-diagonal two-symbol system", True,
     "the target (phi2, c) pair satisfies only the first context equation; "
     "the true roots share phi2 = (a12-a21)/2"),
    (3, "memory-1 closed form and pressure derivative", False, ""),
    (4, "exactly solvable family generator and recovery", False, ""),
    (5, "scan value vs solver constant, random potentials", True,
     "the closed-form Markov q-entropy overshoots the constant: its "
     "variational sup is generically strictly above c, while H_q(mu_J) + int A dmu_J = c "
     "exactly at the q-equilibrium mu_J, so mu_J does not maximize the closed-form objective"),
    (6, "Jacobian round trip and scan gap", True,
     "constant and equilibrium recover exactly; the closed-form "
     "entropy scan exceeds the constant on every draw, while H_q(mu_J) + int A dmu_J = c "
     "exactly at the q-equilibrium mu_J, so mu_J does not maximize the closed-form objective"),
    (7, "deformed-calculus identity suite", False, ""),
    (8, "entropy surface maximum at the uniform measure", False, ""),
    (9, "asymptotic pressure estimates", False, ""),
    (10, "sub-additivity of deformed Birkhoff logs", False, ""),
    (11, "classical transfer-operator oracle", False, ""),
    (12, "bridge identities", False, ""),
    (13, "Renyi bijection and independence-rate value", False, ""),
    (14, "first-order pressure identity", False, ""),
]


def test_catalog_metadata_is_pinned():
    report = cli.run_regression()
    assert [
        (c["criterion"], c["title"], c["known_defect"], c["note"]) for c in report["criteria"]
    ] == CATALOG
    assert [fn.__name__ for fn in cli.ALL_CRITERIA] == [f"criterion_{i}" for i in range(1, 15)]
    assert cli.KNOWN_DEFECT_CRITERIA == {2, 5, 6}
