"""Command-line front end and the cross-module regression suite.

Subcommands evaluate the deformed calculus, static and dynamical pressures,
the multi-branch solver, asymptotic pressure, and the variational scans, and
serialize results deterministically: JSON with 12-significant-digit floats
and stable key order, CSV with a header row and LF line endings.  Exit codes:
0 success, 2 domain or parse errors, 3 solver non-convergence.

``paper-regression`` replays the frozen regression catalog.  Each criterion
body returns its measured values; ``@_criterion`` times it and judges them:
``target_pass`` is the literal target plus the wall-clock gate, and
``matches_expected`` is agreement with this package's frozen values.  Three
entries reproduce known defects in their source values, so the exit status
is 0 exactly when every criterion matches its frozen values and every other
meets its target, and any drift, on the defective entries too, is flagged.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
import time
from array import array

import numpy as np

from . import qfun, staticq, variational
from .errors import NonConvergenceError, QThermoError
from .qfun import QParam, _per_entry, exp_q, log_q
from .qsolve import (
    _g_half,
    _neg_log_q_inv,
    bridge_general_g,
    bridge_half,
    derivative_identity_report,
    explimeq_family,
    positive_branches,
    pressure_derivative,
    q_equilibria,
    qruelle_residual,
    qruelle_solve,
    supex_closed_form,
)
from .ruelle import (
    Jacobian,
    classical_pressure,
    classical_pressures,
    equilibrium_markov,
    ks_entropy,
    normalize,
    normalizes,
    q_entropy_markov,
    random_jacobian,
)
from .shift import Potential
from .subadd import asymptotic_fit, asymptotic_pressure, log_frak_L_sequence, phi_n
from .variational import entropy_surface, midpoint_concavity_report, q_pressure_scan


def _sig12(x: float) -> float:
    if not math.isfinite(x):
        raise QThermoError(f"non-finite value {x} in output; refusing to serialize")
    return float(f"{x:.12g}")


def _clean(obj):
    """Round floats to 12 significant digits recursively; reject NaN/Inf."""
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return _sig12(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_clean(v) for v in obj.tolist()]
    return obj


def _emit(payload: dict, output: str | None) -> None:
    text = json.dumps(_clean(payload), ensure_ascii=False, indent=2) + "\n"
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_csv(path: str, header: tuple[str, ...], rows) -> None:
    """One header line, then each row with numbers at 12 significant digits and None empty."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("" if x is None else f"{x:.12g}" for x in row) + "\n")


def _load_potential(path: str | None) -> Potential:
    if not path:
        raise QThermoError("a --potential file is required for this subcommand")
    try:
        with open(path, encoding="utf-8") as fh:
            return Potential.from_json(fh.read())
    except FileNotFoundError as exc:
        raise QThermoError(f"potential file not found: {path}") from exc
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        raise QThermoError(f"could not parse potential {path}: {exc}") from exc


def _resolve_q(args: argparse.Namespace, as_tilde: bool) -> QParam:
    """Exactly one of q / q-tilde, or both consistent with q_tilde = 2 - q."""
    q, qt = args.q, args.q_tilde
    if q is None and qt is None:
        raise QThermoError("one of --q or --q-tilde is required")
    if q is not None and qt is not None and abs(qt - (2.0 - q)) > 1e-12:
        raise QThermoError(f"inconsistent parameters: q-tilde {qt} != 2 - q = {2.0 - q}")
    if as_tilde:
        return QParam(qt if qt is not None else 2.0 - q)
    return QParam(q if q is not None else 2.0 - qt)


# ----------------------------------------------------------------------------
# subcommand handlers: each reads the parsed options and returns the payload

_QFUN_OPS = {"exp": qfun.exp_q, "log": qfun.log_q, "dexp": qfun.dexp_q, "dlog": qfun.dlog_q}


def _cmd_qfun(args: argparse.Namespace) -> dict:
    qp = _resolve_q(args, as_tilde=False)
    if args.u is None:
        raise QThermoError("--u is required")
    value = float(_QFUN_OPS[args.op](args.u, qp))
    return {"op": args.op, "q": qp.q, "u": args.u, "value": value}


def _finite_or_none(v):  # null in the JSON for a non-finite float
    return None if isinstance(v, float) and not math.isfinite(v) else v


def _cmd_selftest(args: argparse.Namespace) -> dict:
    report = qfun.identity_suite(samples=args.samples, seed=args.seed)
    rows = [{**r, "max_violation": _finite_or_none(r["max_violation"])} for r in report.as_rows()]
    return {"seed": args.seed, "samples": args.samples, "max_violation": _finite_or_none(report.worst),
            "passed": report.passed(1e-9), "identities": rows}


def _cmd_static_pressure(args: argparse.Namespace) -> dict:
    qp = _resolve_q(args, as_tilde=False)
    if len(args.payoff) < 2:
        raise QThermoError("--a requires at least two comma-separated payoffs")
    eq = staticq.static_q_pressure(args.payoff, args.beta, qp)
    return {
        "q": qp.q,
        "beta": args.beta,
        "a": list(args.payoff),
        "pressure": eq.pressure,
        "p_star": eq.p_star,
    }


def _cmd_sweep_beta(args: argparse.Namespace) -> dict:
    qp = _resolve_q(args, as_tilde=False)
    betas = np.linspace(args.beta_min, args.beta_max, args.beta_steps)
    rows = staticq.beta_sweep(args.payoff, qp, betas)
    if args.sequence_csv:
        _write_csv(args.sequence_csv, ("beta", "pressure"), rows)
    finite = [(b, p) for b, p in rows if p is not None]
    return {
        "q": qp.q,
        "a": list(args.payoff),
        "beta_min": args.beta_min,
        "beta_max": args.beta_max,
        "steps": args.beta_steps,
        "csv_path": args.sequence_csv,
        "defined_fraction": len(finite) / len(rows),
    }


def _cmd_entropy(args: argparse.Namespace) -> dict:
    qp = _resolve_q(args, as_tilde=False)
    if not args.probs:
        raise QThermoError("--p requires a comma-separated probability vector")
    p = np.asarray(args.probs, dtype=float)
    hq = staticq.q_entropy_vec(p, qp)
    out = {
        "q": qp.q,
        "p": p,
        "h_q": hq,
        "shannon": staticq.q_entropy_vec(p, 1.0),
        "renyi_q": staticq.renyi_entropy(p, qp),
        "renyi_from_h_q": staticq.renyi_from_q_entropy(hq, qp),
    }
    if p.size == 2 and qp.q < 1.0:
        out["meson_vericat"] = staticq.meson_vericat_bernoulli(p, qp)
    return out


def _cmd_ruelle(args: argparse.Namespace) -> dict:
    A = _load_potential(args.potential)
    logJ, lam, h = normalize(A)
    J = np.exp(logJ.values)
    mu = equilibrium_markov(Jacobian.from_log_potential(logJ))
    out = {
        "pressure": math.log(lam),
        "lambda": lam,
        "eigenvector_h": h,
        "jacobian": J,
        "stationary_pi": mu.pi,
        "ks_entropy": ks_entropy(mu),
    }
    if args.q is not None or args.q_tilde is not None:
        qp = _resolve_q(args, as_tilde=False)
        out["q"] = qp.q
        out["q_entropy_markov"] = q_entropy_markov(mu, qp)
    return out


def _cmd_solve(args: argparse.Namespace) -> dict:
    A = _load_potential(args.potential)
    qp = _resolve_q(args, as_tilde=True)
    roots = qruelle_solve(A, qp, allow_boundary=args.allow_boundary)
    if not roots:
        raise NonConvergenceError("no roots found")
    chosen = roots if args.all_branches else roots[: 1]
    return {
        "q_tilde": qp.q,
        "allow_boundary": args.allow_boundary,
        "branch_count": len(roots),
        "branches": [
            {k: getattr(r, k) for k in
             ("branch_id", "c", "phi", "residual", "summands_positive", "boundary")}
            for r in chosen
        ],
    }


def _cmd_derivative(args: argparse.Namespace) -> dict:
    A = _load_potential(args.potential)
    if not args.direction:
        raise QThermoError("--direction potential file is required")
    B = _load_potential(args.direction)
    qp = _resolve_q(args, as_tilde=False)
    out = {"q": qp.q, "branch": args.branch}
    if abs(qp.q - 0.5) > 1e-12:
        out["dPds"] = pressure_derivative(A, B, qp, branch_index=args.branch)
    else:  # the identity report solves the q = 1/2 branch once and carries its dPds
        rep = derivative_identity_report(A, B, branch_index=args.branch)
        out.update(dPds=rep.dPds, identity_quotient=rep.quotient, identity_defect=rep.defect)
    return out


def _cmd_asym_pressure(args: argparse.Namespace) -> dict:
    A = _load_potential(args.potential)
    qp = _resolve_q(args, as_tilde=False)
    coef, seq = asymptotic_fit(A, qp, args.x0, args.n_max)
    if args.sequence_csv:
        _write_csv(args.sequence_csv, ("n", "log_L_n_over_n"), seq)
    return {
        "q": qp.q,
        "n_max": args.n_max,
        "x0": list(args.x0),
        "estimate": float(coef[0]),
        "fit_params": {"constant": coef[0], "log_n_over_n": coef[1], "one_over_n": coef[2]},
        "sequence_csv_path": args.sequence_csv,
    }


def _cmd_scan(args: argparse.Namespace) -> dict:
    A = _load_potential(args.potential)
    qp = _resolve_q(args, as_tilde=False)
    res = q_pressure_scan(A, qp, args.grid)
    return {
        "q": qp.q,
        "grid_n": res.grid_n,
        "value": res.value,
        "refined": res.refined,
        "excluded_fraction": res.excluded_fraction,
        "argmax_P": res.argmax.P,
        "argmax_pi": res.argmax.pi,
    }


def _cmd_entropy_surface(args: argparse.Namespace) -> dict:
    qp = _resolve_q(args, as_tilde=False)
    surf = entropy_surface(qp, args.grid)
    if args.sequence_csv:
        ps = surf.probs.tolist()
        _write_csv(args.sequence_csv, ("p12", "p21", "h_q"),
                   ((p, r, h) for p, hs in zip(ps, surf.values.tolist()) for r, h in zip(ps, hs)))
    p12, p21, mx = surf.max_point()
    report = midpoint_concavity_report(qp, seed=args.seed)
    return {
        "q": qp.q,
        "grid_n": len(surf.probs),
        "seed": args.seed,
        "csv_path": args.sequence_csv,
        "max": {"p12": p12, "p21": p21, "value": mx},
        "midpoint_gaps": report,
    }


# ----------------------------------------------------------------------------
# regression catalog: frozen criteria with both literal and measured gates


@dataclasses.dataclass(frozen=True)
class CriterionResult:
    """One catalog entry as ``paper-regression`` reports it, fields in key order."""

    criterion: int
    title: str
    target_pass: bool
    matches_expected: bool
    known_defect: bool
    seconds: float
    measured: dict
    note: str


# index -> (criterion, known_defect) in catalog order, filled by @_criterion
_CATALOG: dict = {}


def _criterion(index: int, title: str, gate, target, frozen=None, note: str = "",
               known_defect: bool = False):
    """Register a cached catalog criterion whose body returns its measured dict.

    The body is timed here: ``target_pass`` is ``target(m) and gate(dt)`` and
    ``matches_expected`` is ``frozen(m)``, ``target`` when omitted, so a slow
    pass never reads as drift.  A missed gate re-runs the body, at most twice,
    and dt is the fastest run, so one preemption of a short body cannot fail
    it.  Each gate is written ``gate=lambda dt: dt < X`` in the decorator
    lines, which ``inspect.getsource`` of the body includes.
    Keys of ``m`` that begin with ``_`` feed the checks and are not reported,
    and a non-finite float reports as None while the checks see it.  A known
    defect's literal target is reproducibly unattainable, so ``run_regression``
    reads its ``matches_expected`` alone.
    """
    frozen = frozen or target

    def register(body):
        @functools.lru_cache(maxsize=None)
        @functools.wraps(body)
        def criterion() -> CriterionResult:
            dt = math.inf
            for _ in range(3):
                t0 = time.perf_counter()
                m = body()
                dt = min(dt, time.perf_counter() - t0)
                if gate(dt):
                    break
            measured = {k: _finite_or_none(v) for k, v in m.items() if not k.startswith("_")}
            return CriterionResult(index, title, bool(target(m) and gate(dt)), bool(frozen(m)),
                                   known_defect, dt, measured, note)

        _CATALOG[index] = (criterion, known_defect)
        return criterion

    return register


@_criterion(
    1, "static equilibrium closed form", gate=lambda dt: dt < 1e-3,
    target=lambda m: abs(m["pressure"] - 1.6895) <= 5e-4
    and abs(m["p1"] - 0.3172) <= 5e-4 and abs(m["p2"] - 0.6828) <= 5e-4,
    frozen=lambda m: abs(m["pressure"] - 1.689655762197444) <= 1e-9
    and abs(m["p1"] - 0.31729336931746177) <= 1e-9,
)
def criterion_1():
    """Static equilibrium closed form at q=1/3, beta=1.2, a=(0.5, 0.8)."""
    eq = staticq.static_q_pressure((0.5, 0.8), 1.2, 1.0 / 3.0)
    return {"pressure": eq.pressure, "p1": float(eq.p_star[0]), "p2": float(eq.p_star[1])}


@_criterion(
    2,
    "two-branch solve, zero-diagonal two-symbol system",
    gate=lambda dt: dt < 1.0,
    target=lambda m: m["branches"] == 2
    and abs(m["c_low"] - 3.85405) <= 1e-4 and abs(m["c_high"] - 3.85405) <= 1e-4
    and all(min(abs(p - v) for v in (-0.89595, -2.39595)) <= 1e-4
            for p in (m["phi2"], m["_phi2_high"]))
    and m["_max_residual"] <= 1e-10,
    frozen=lambda m: m["branches"] == 2
    and abs(m["c_low"] - 3.0442810861169263) <= 1e-7
    and abs(m["c_high"] - 3.7057189138830737) <= 1e-7
    and abs(m["phi2"] + 0.75) <= 1e-7 and abs(m["_phi2_high"] + 0.75) <= 1e-7
    and m["_max_residual"] <= 1e-10,
    note="the target (phi2, c) pair satisfies only the first context equation; "
    "the true roots share phi2 = (a12-a21)/2",
    known_defect=True,
)
def criterion_2():
    """Two-branch solve of the zero-diagonal two-symbol system at qt=1/2."""
    A = Potential(d=2, memory=2, values=np.array([0.0, 2.0, 3.5, 0.0]))
    roots = qruelle_solve(A, 0.5)
    cs = sorted(r.c for r in roots) or [math.nan]
    phi2s = sorted(r.phi[1] for r in roots) or [math.nan]
    return {
        "c_low": cs[0], "c_high": cs[-1], "phi2": phi2s[0], "branches": len(roots),
        "_phi2_high": phi2s[-1], "_max_residual": np.max([r.residual for r in roots] or [math.nan]),
    }


@_criterion(
    3, "memory-1 closed form and pressure derivative", gate=lambda dt: dt < 2.0,
    target=lambda m: abs(m["c"] - 5.75) <= 1e-8 and abs(m["phi2"] - 2.71825) <= 1e-4
    and abs(m["dPds"] - 0.5) <= 1e-6,
    frozen=lambda m: abs(m["c"] - 5.75) <= 1e-12 and abs(m["phi2"] - 2.718245836551854) <= 1e-9
    and abs(m["c_solver"] - 5.75) <= 1e-9 and abs(m["dPds"] - 0.5) <= 1e-6,
)
def criterion_3():
    """Memory-1 closed form plus directional derivative of the constant."""
    phi2, c = supex_closed_form(2.0, 5.5, 0.0, 0.0, 0.0)
    A = Potential(d=2, memory=1, values=np.array([2.0, 5.5]))
    B = Potential(d=2, memory=1, values=np.array([1.0, 0.0]))
    d = pressure_derivative(A, B, 1.5)
    roots = qruelle_solve(A, 0.5)
    return {"phi2": phi2, "c": c, "dPds": d, "c_solver": roots[0].c if roots else math.nan}


@_criterion(
    4, "exactly solvable family generator and recovery", gate=lambda dt: dt < 1.0,
    target=lambda m: m["max_print_diff"] <= 1e-5 and m["max_recovery"] <= 1e-6,
    frozen=lambda m: m["max_recovery"] <= 1e-9,
)
def criterion_4():
    """Exactly solvable family: tabulated rows and solver recovery."""
    diffs, recs = [], []
    for qt, q1, q2, expected in (
        (2.0 / 3.0, 0.3, 0.6, (0.857533, 0.52199, 0.655413, 0.991701)),
        (4.0 / 5.0, 0.2, 0.3, (2.18972, 0.30612, 1.15786, 1.37610)),
    ):
        a12, a22, phi2, c = explimeq_family(qt, q1, q2)
        diffs.append(max(abs(x - y) for x, y in zip((a12, a22, phi2, c), expected)))
        A = Potential(d=2, memory=2, values=np.array([0.0, a12, 0.0, a22]))
        recs.append(min(
            (max(abs(r.c - c), abs(r.phi[1] - phi2)) for r in qruelle_solve(A, qt)),
            default=math.inf,
        ))
    return {"max_print_diff": np.max(diffs), "max_recovery": np.max(recs)}


@_criterion(
    5,
    "scan value vs solver constant, random potentials",
    gate=lambda dt: dt < 60.0,
    target=lambda m: abs(m["max_gap"]) <= 1e-3 and abs(m["min_gap"]) <= 1e-3,
    # frozen: the scan of the closed-form entropy strictly exceeds c
    frozen=lambda m: abs(m["max_gap"] - 0.04082103744076268) <= 1e-6
    and abs(m["min_gap"] - 0.00036957644261770284) <= 1e-6 and m["min_gap"] > -1e-9,
    note="the closed-form Markov q-entropy overshoots the constant: its "
    "variational sup is generically strictly above c, while H_q(mu_J) + int A dmu_J = c "
    "exactly at the q-equilibrium mu_J, so mu_J does not maximize the closed-form objective",
    known_defect=True,
)
def criterion_5():
    """Scan value against solver constant on random positive-branch potentials."""
    rng = np.random.default_rng(0)
    found = []  # (A, c) in draw order; a block of 4-draws is the stream of as many single ones
    while len(found) < 20:
        block = [Potential(d=2, memory=2, values=v) for v in rng.normal(0.0, 0.8, (20 - len(found), 4))]
        found += [(A, b.c) for A, b in zip(block, positive_branches(block, 0.5)) if b is not None]
    As, cs = zip(*found)
    gaps = np.array([s.value for s in variational.q_pressure_scans(As, 1.5, 400)]) - cs
    return {
        "max_gap": float(gaps.max()), "min_gap": float(gaps.min()), "mean_gap": float(gaps.mean())
    }


@_criterion(
    6,
    "Jacobian round trip and scan gap",
    gate=lambda dt: dt < 60.0,
    target=lambda m: m["max_abs_c"] <= 1e-8
    and abs(m["max_gap"]) <= 1e-3 and abs(m["min_gap"]) <= 1e-3 and m["max_tv"] <= 1e-2,
    frozen=lambda m: m["max_abs_c"] <= 1e-8 and m["max_tv"] <= 1e-8
    and abs(m["max_gap"] - 0.08131564719948108) <= 1e-6
    and abs(m["min_gap"] - 0.008248027056523798) <= 1e-6,
    note="constant and equilibrium recover exactly; the closed-form "
    "entropy scan exceeds the constant on every draw, while H_q(mu_J) + int A dmu_J = c "
    "exactly at the q-equilibrium mu_J, so mu_J does not maximize the closed-form objective",
    known_defect=True,
)
def criterion_6():
    """Round trip J -> A = -log_q(1/J) -> equilibrium, plus the scan gap."""
    Js = [random_jacobian(2, 1, seed=seed) for seed in range(20)]
    As = [_neg_log_q_inv(J, QParam(0.5)) for J in Js]
    ps, mus, _ = zip(*q_equilibria(As, 0.5))
    tvs = [0.5 * float(np.max(np.sum(np.abs(mu.P - equilibrium_markov(J).P), axis=1)))
           for mu, J in zip(mus, Js)]
    gaps = [s.value - p for s, p in zip(variational.q_pressure_scans(As, 0.5, 400), ps)]
    return {
        "max_abs_c": float(np.max(np.abs(ps))), "max_tv": float(np.max(tvs)),
        "max_gap": float(np.max(gaps)), "min_gap": float(np.min(gaps)),
    }


@_criterion(7, "deformed-calculus identity suite", gate=lambda dt: dt < 5.0,
            target=lambda m: m["max_violation"] <= 1e-9)
def criterion_7():
    """Deformed-calculus identity suite at 10^4 seeded points."""
    return {"max_violation": qfun.identity_suite(samples=10_000, seed=0).worst}


@_criterion(
    8, "entropy surface maximum at the uniform measure", gate=lambda dt: dt < 10.0,
    target=lambda m: all(p == 0.5 for p in m["_argmax"])
    and m["err_q0.5"] <= 1e-6 and m["err_q0.9"] <= 1e-6,
    frozen=lambda m: m["err_q0.5"] <= 1e-12 and m["err_q0.9"] <= 1e-12,
)
def criterion_8():
    """Entropy surface maximum at the uniform measure for q in {0.5, 0.9}."""
    m = {"_argmax": []}
    for q in (0.5, 0.9):
        p12, p21, mx = entropy_surface(q, 200).max_point()
        m["_argmax"] += [p12, p21]
        m[f"err_q{q}"] = abs(mx - float(log_q(2.0, q)))
    return m


@_criterion(
    9, "asymptotic pressure estimates", gate=lambda dt: dt < 30.0,
    target=lambda m: m["closed_form_rel"] <= 1e-12
    and abs(m["estimate_const"] - math.log(2.0)) <= 0.01
    and abs(m["estimate_01"] - math.log(2.0)) <= 0.02 and m["base_point_diff"] <= 1e-3,
    frozen=lambda m: abs(m["estimate_const"] - math.log(2.0)) <= 1e-4
    and abs(m["estimate_01"] - math.log(2.0)) <= 1e-4 and m["base_point_diff"] <= 1e-5,
)
def criterion_9():
    """Asymptotic pressure: closed form, two potentials, two base points."""
    q = QParam(0.5)
    A1 = Potential.constant(2, 1.0)
    worst = 0.0
    for n, log_L in enumerate(log_frak_L_sequence(A1, q, (), 50), start=1):
        closed = (2.0**n) * (1.0 + n / 2.0) ** 2
        worst = max(worst, abs(math.exp(log_L) - closed) / closed)
    est1, _ = asymptotic_pressure(A1, q, (), 2000)
    A01 = Potential(d=2, memory=1, values=np.array([0.0, 1.0]))
    est2, _ = asymptotic_pressure(A01, q, (), 2000)
    A2 = Potential(d=2, memory=2, values=np.array([0.25, 1.0, 0.5, 0.75]))
    b1, _ = asymptotic_pressure(A2, q, (1,), 2000)
    b2, _ = asymptotic_pressure(A2, q, (2,), 2000)
    return {
        "closed_form_rel": worst, "estimate_const": est1, "estimate_01": est2,
        "base_point_diff": abs(b1 - b2),
    }


@_criterion(10, "sub-additivity of deformed Birkhoff logs", gate=lambda dt: dt < 5.0,
            target=lambda m: m["max_violation"] <= 1e-12)
def criterion_10():
    """Sub-additivity of the deformed Birkhoff logs for nonnegative potentials."""

    def logs(A, flat, n, first):
        # phi_n of the n[i] symbols from flat[first[i]] on, one call per length
        out = np.empty(len(n))
        for length in np.unique(n):
            rows = np.flatnonzero(n == length)
            w = flat[first[rows, None] + np.arange(length + A.memory - 1)]
            out[rows] = phi_n(A, 0.5, w[:, :length], w[:, length:])
        return out

    rng = np.random.default_rng(0)
    worst = -math.inf
    for _ in range(5):
        m_pot = int(rng.integers(1, 3))
        vals = rng.uniform(0.0, 1.5, 2**m_pot)
        A = Potential(d=2, memory=m_pot, values=vals)
        mm, nn = rng.integers(1, 13, size=(10_000, 2)).T
        sizes = mm + nn + m_pot - 1
        # one draw is the same PCG64 stream as one draw per row
        flat = rng.integers(1, 3, int(sizes.sum()))
        starts = np.cumsum(sizes) - sizes
        f_total, f_m = logs(A, flat, mm + nn, starts), logs(A, flat, mm, starts + nn)
        worst = max(worst, float((f_total - f_m - logs(A, flat, nn, starts)).max()))
    return {"max_violation": worst}


@_criterion(
    11, "classical transfer-operator oracle", gate=lambda dt: dt < 5.0,
    target=lambda m: m["pressure_err"] <= 1e-10 and m["row_sum_err"] <= 1e-10
    and m["normalized_pressure"] <= 1e-10,
)
def criterion_11():
    """Classical transfer-operator oracle: pressure, rows, consistency."""
    A01 = Potential(d=2, memory=1, values=np.array([0.0, 1.0]))
    p_err = abs(classical_pressure(A01) - math.log(1.0 + math.e))
    rng = np.random.default_rng(1)
    groups = {1: [], 2: []}  # the draws by context length: one stack call per group
    for _ in range(100):
        m = int(rng.integers(1, 4))
        A = Potential(d=2, memory=m, values=rng.normal(0.0, 1.0, 2**m))
        groups[A.context_length()].append(A)
    row_worst = rohklin_worst = 0.0
    for As in groups.values():
        logJs = [logJ for logJ, _, _ in normalizes(As)]
        rows = np.exp([logJ.values for logJ in logJs]).reshape(len(As), 2, -1).sum(axis=1)
        row_worst = max(row_worst, float(np.max(np.abs(rows - 1.0))))
        rohklin_worst = max(rohklin_worst, max(map(abs, classical_pressures(logJs))))
    return {"pressure_err": p_err, "row_sum_err": row_worst, "normalized_pressure": rohklin_worst}


@_criterion(
    12, "bridge identities", gate=lambda dt: dt < 5.0,
    target=lambda m: m["scalar"] <= 1e-10 and m["residual"] <= 1e-9 and m["g_match"] <= 1e-9,
)
def criterion_12():
    """Bridge identities between the q = 1/2 and 3/2-deformed equations."""
    rng = np.random.default_rng(0)
    # the draws in their stream order, (a, a1, a2, C) per row; each identity is one array call
    scalar = np.array([(rng.uniform(-1.9, 3.0), *rng.normal(size=3)) for _ in range(1000)])
    res_worst = 0.0
    for _ in range(10):
        B, phiB, cB = bridge_half(Potential(d=2, memory=1, values=rng.uniform(-1.5, 1.5, 2)))
        res_worst = max(res_worst, float(np.max(np.abs(qruelle_residual(B, 1.5, phiB, cB)))))
    g_rows = np.array([(rng.uniform(-1.9, 3.0), *rng.normal(size=3)) for _ in range(100)])
    a, a1, a2, C = scalar.T
    r = a1 - a2 - C
    lhs = exp_q(_g_half(a1, a2, C, a) + r, 1.5)
    rhs = exp_q(a, 0.5) * _per_entry(math.exp, r)
    a, a1, a2, C = g_rows.T
    g_gaps = bridge_general_g(a, a1, a2, C, 0.5) - _g_half(a1, a2, C, a)
    return {"scalar": float(np.max(np.abs(lhs - rhs))), "residual": res_worst,
            "g_match": float(np.max(np.abs(g_gaps)))}


@_criterion(
    13, "Renyi bijection and independence-rate value", gate=lambda dt: dt < 2.0,
    target=lambda m: m["bijection"] <= 1e-10 and m["meson_vericat"] <= 1e-12,
)
def criterion_13():
    """Renyi bijection and the two-symbol independence-rate value."""
    rng = np.random.default_rng(0)
    rows = {k: array("d") for k in (2, 3, 4)}  # flat: each row's exponentials, then its q
    for _ in range(10_000):
        # numpy's dirichlet(ones(k)) and uniform(0.2, 1.8), draw for draw and bit for bit
        k = int(rng.integers(2, 5))
        e = rng.standard_exponential(k)
        q = 0.2 + 1.6 * rng.random()
        if abs(q - 1.0) < 1e-3:
            continue
        rows[k].extend((*e, q))
    worst = 0.0
    for k, flat in rows.items():  # one stacked call per function and k
        EQ = np.frombuffer(flat).reshape(-1, k + 1)  # dirichlet sums them left to right
        P, Q = EQ[:, :k] * (1.0 / np.add.accumulate(EQ[:, :k], axis=1)[:, -1:]), EQ[:, k]
        hq = staticq.q_entropy_vec(P, Q)
        gaps = np.abs(staticq.renyi_entropy(P, Q) - staticq.renyi_from_q_entropy(hq, Q))
        worst = max(worst, float(gaps.max()))
    mv_worst = 0.0
    for _ in range(50):
        p1 = float(rng.uniform(0.1, 0.9))
        q = float(rng.uniform(0.2, 0.8))
        mv = staticq.meson_vericat_bernoulli((p1, 1.0 - p1), q)
        mv_worst = max(
            mv_worst,
            abs(mv - (1.0 - q) * staticq.renyi_entropy((p1, 1.0 - p1), q)),
        )
    return {"bijection": worst, "meson_vericat": mv_worst}


@_criterion(14, "first-order pressure identity", gate=lambda dt: dt < 5.0,
            target=lambda m: m["defect"] <= 1e-4, frozen=lambda m: m["defect"] <= 1e-6)
def criterion_14():
    """First-order identity: dc/ds against the quotient of integrals."""
    J = random_jacobian(2, 1, seed=3)
    A = _neg_log_q_inv(J, QParam(0.5))
    B = Potential(d=2, memory=1, values=np.array([0.4, -0.2]))
    rep = derivative_identity_report(A, B)
    return {"dPds": rep.dPds, "quotient": rep.quotient, "defect": rep.defect}


ALL_CRITERIA = tuple(fn for fn, _ in _CATALOG.values())
KNOWN_DEFECT_CRITERIA = frozenset(i for i, (_, defect) in _CATALOG.items() if defect)


def run_regression() -> dict:
    criteria = [dataclasses.asdict(fn()) for fn in ALL_CRITERIA]
    return {
        "criteria": criteria,
        "target_failures": [c["criterion"] for c in criteria if not c["target_pass"]],
        "drifted": [c["criterion"] for c in criteria if not c["matches_expected"]],
        "ok": all(
            c["matches_expected"] and (c["known_defect"] or c["target_pass"]) for c in criteria
        ),
    }


# ----------------------------------------------------------------------------
# the subcommand table and the parser built from it


def _floats(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats: {text}") from exc


def _word(text: str) -> tuple[int, ...]:
    if not text:
        return ()
    if not text.isdigit():
        raise argparse.ArgumentTypeError(f"expected a digit string like 12: {text}")
    return tuple(int(ch) for ch in text)


def _opt(flag: str, **kwargs) -> tuple[str, dict]:
    return flag, kwargs


# the common options, each declared by the subcommands that read it, first
_Q = (_opt("--q", type=float), _opt("--q-tilde", type=float))
_SEED = _opt("--seed", type=int, default=0)
_OUTPUT = _opt("--output")  # read by main for every subcommand
_POTENTIAL = _opt("--potential")
_GRID = _opt("--grid", type=int, default=400)
_PAYOFF = (
    _opt("--a", type=_floats, default=[], dest="payoff"),
    _opt("--beta", type=float, default=1.0),
)
_CSV = _opt("--csv", dest="sequence_csv")

# name -> (one-line statement of what it computes, handler, the options it reads)
SUBCOMMANDS = {
    "qfun": (
        "pointwise exp_q(u) = (1+(1-q)u)^(1/(1-q)) and log_q(u) = (u^(1-q)-1)/(1-q) with derivatives",
        _cmd_qfun,
        (
            *_Q, _OUTPUT,
            _opt("--op", default="exp", choices=tuple(_QFUN_OPS)),
            _opt("--u", type=float),
        ),
    ),
    "selftest": (
        "max violation of the deformed-calculus identity suite at seeded random points",
        _cmd_selftest,
        (_SEED, _OUTPUT, _opt("--samples", type=int, default=10_000)),
    ),
    "static-pressure": (
        "sup_p { H_q(p) + beta <a,p> } over probability vectors, closed form p* ~ exp_{2-q}(beta a)",
        _cmd_static_pressure,
        (*_Q, _OUTPUT, *_PAYOFF),
    ),
    "sweep-beta": (
        "the static pressure curve beta -> sup_p { H_q(p) + beta <a,p> }",
        _cmd_sweep_beta,
        (
            *_Q, _OUTPUT,
            *_PAYOFF,
            _opt("--beta-min", type=float, default=0.0),
            _opt("--beta-max", type=float, default=2.0),
            _opt("--beta-steps", type=int, default=21),
            _CSV,
        ),
    ),
    "entropy": (
        "H_q(p) = sum_j p_j^q log_q(1/p_j), Renyi H^R_q = log(sum p^q)/(1-q), and their bijection",
        _cmd_entropy,
        (*_Q, _OUTPUT, _opt("--p", type=_floats, default=[], dest="probs")),
    ),
    "ruelle": (
        "classical pressure log lambda, normalized Jacobian rows sum_a J(a x) = 1, and equilibrium entropies",
        _cmd_ruelle,
        (*_Q, _OUTPUT, _POTENTIAL),
    ),
    "solve": (
        "all roots (phi, c) of sum_a exp_qt(A(a x)+phi((a x)|k)-phi(x)-c) = 1 per context x",
        _cmd_solve,
        (
            *_Q, _OUTPUT,
            _POTENTIAL,
            _opt("--all-branches", action="store_true"),
            _opt("--allow-boundary", action="store_true"),
        ),
    ),
    "derivative": (
        "d/ds at 0 of the branch constant c(s) for the family A + s B",
        _cmd_derivative,
        (*_Q, _OUTPUT, _POTENTIAL, _opt("--direction"), _opt("--branch", type=int, default=0)),
    ),
    "asym-pressure": (
        "lim (1/n) log sum_{|w|=n} exp_q(S_n A(w x0)) via exact moment or bucket sums and tail fit",
        _cmd_asym_pressure,
        (
            *_Q, _OUTPUT,
            _POTENTIAL,
            _opt("--n-max", type=int, default=2000),
            _opt("--x0", type=_word, default=()),
            _opt("--sequence-csv"),
        ),
    ),
    "scan": (
        "sup of H_q(mu) + int A dmu over Markov measures by relative value iteration "
        "(--grid is only echoed)",
        _cmd_scan,
        (*_Q, _OUTPUT, _POTENTIAL, _GRID),
    ),
    "entropy-surface": (
        "H_q(mu) tabulated over the two free transition probabilities of a binary Markov measure",
        _cmd_entropy_surface,
        (*_Q, _SEED, _OUTPUT, _GRID, _CSV),
    ),
    "paper-regression": (
        "replay of the frozen cross-module regression catalog with per-criterion timing",
        lambda args: run_regression(),
        (_OUTPUT,),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qthermo",
        description="Deformed thermodynamic formalism on the full shift.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (doc, _, options) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=doc, description=doc)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _, handler, _ = SUBCOMMANDS[args.subcommand]
    try:
        payload = handler(args)
        _emit(payload, args.output)
    except NonConvergenceError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (QThermoError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    # selftest reports "passed", paper-regression "ok"; either false exits 1
    return 0 if payload.get("passed", True) and payload.get("ok", True) else 1


if __name__ == "__main__":
    sys.exit(main())
