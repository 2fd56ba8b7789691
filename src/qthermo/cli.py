"""Command-line front end and the cross-module regression suite.

Subcommands evaluate the deformed calculus, static and dynamical pressures,
the multi-branch solver, asymptotic pressure, and the variational scans, and
serialize results deterministically: JSON with 12-significant-digit floats
and stable key order, CSV with a header row and LF line endings.  Exit codes:
0 success, 2 domain or parse errors, 3 solver non-convergence.

``paper-regression`` replays the frozen regression catalog.  Each criterion
records both the literal target expectation (``target_pass``) and agreement
with this package's frozen measured values (``matches_expected``); three
catalog entries reproduce known defects in their source values, so the exit
status is 0 exactly when every criterion matches the frozen expectation,
and any numerical drift — including on the defective entries — is flagged.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import qfun, staticq
from .errors import NonConvergenceError, QThermoError
from .qfun import QParam, exp_q, log_q
from .qsolve import (
    _g_half,
    _neg_log_q_inv,
    bridge_general_g,
    bridge_half,
    derivative_identity_report,
    explimeq_family,
    pressure_derivative,
    q_equilibrium,
    qruelle_residual,
    qruelle_solve,
)
from .ruelle import (
    Jacobian,
    classical_pressure,
    equilibrium_markov,
    ks_entropy,
    normalize,
    q_entropy_markov,
    random_jacobian,
)
from .shift import Potential
from .subadd import asymptotic_pressure, log_frak_L_sequence, phi_n
from .variational import entropy_surface, midpoint_concavity_report, q_pressure_scan

# one-line statement of what each subcommand computes
DOC_MAP = {
    "qfun": "pointwise exp_q(u) = (1+(1-q)u)^(1/(1-q)) and log_q(u) = (u^(1-q)-1)/(1-q) with derivatives",
    "selftest": "max violation of the deformed-calculus identity suite at seeded random points",
    "static-pressure": "sup_p { H_q(p) + beta <a,p> } over probability vectors, closed form p* ~ exp_{2-q}(beta a)",
    "sweep-beta": "the static pressure curve beta -> sup_p { H_q(p) + beta <a,p> }",
    "entropy": "H_q(p) = sum_j p_j^q log_q(1/p_j), Renyi H^R_q = log(sum p^q)/(1-q), and their bijection",
    "ruelle": "classical pressure log lambda, normalized Jacobian rows sum_a J(a x) = 1, and equilibrium entropies",
    "solve": "all roots (phi, c) of sum_a exp_qt(A(a x)+phi((a x)|k)-phi(x)-c) = 1 per context x",
    "derivative": "d/ds at 0 of the branch constant c(s) for the family A + s B",
    "asym-pressure": "lim (1/n) log sum_{|w|=n} exp_q(S_n A(w x0)) via exact bucket counts and tail fit",
    "scan": "sup of H_q(mu) + int A dmu over binary Markov measures on a transition-probability grid",
    "entropy-surface": "H_q(mu) tabulated over the two free transition probabilities of a binary Markov measure",
    "paper-regression": "replay of the frozen cross-module regression catalog with per-criterion timing",
}


@dataclass
class RunConfig:
    """Parsed invocation: subcommand plus the numeric and I/O options."""

    subcommand: str
    potential: str | None = None
    direction: str | None = None
    q: float | None = None
    q_tilde: float | None = None
    beta: float = 1.0
    payoff: list[float] = field(default_factory=list)
    probs: list[float] = field(default_factory=list)
    u: float | None = None
    op: str = "exp"
    grid: int = 400
    n_max: int = 2000
    x0: tuple[int, ...] = ()
    h_step: float = 1e-4
    branch: int = 0
    all_branches: bool = False
    allow_boundary: bool = False
    samples: int = 10_000
    seed: int = 0
    beta_min: float = 0.0
    beta_max: float = 2.0
    beta_steps: int = 21
    output: str | None = None
    sequence_csv: str | None = None


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


def _emit(payload: dict, cfg: RunConfig) -> None:
    text = json.dumps(_clean(payload), ensure_ascii=False, indent=2) + "\n"
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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


def _resolve_q(cfg: RunConfig, as_tilde: bool) -> QParam:
    """Exactly one of q / q-tilde, or both consistent with q_tilde = 2 - q."""
    q, qt = cfg.q, cfg.q_tilde
    if q is None and qt is None:
        raise QThermoError("one of --q or --q-tilde is required")
    if q is not None and qt is not None and abs(qt - (2.0 - q)) > 1e-12:
        raise QThermoError(f"inconsistent parameters: q-tilde {qt} != 2 - q = {2.0 - q}")
    if as_tilde:
        return QParam(qt if qt is not None else 2.0 - q)
    return QParam(q if q is not None else 2.0 - qt)


# ----------------------------------------------------------------------------
# subcommand handlers


def _cmd_qfun(cfg: RunConfig) -> dict:
    qp = _resolve_q(cfg, as_tilde=False)
    if cfg.u is None:
        raise QThermoError("--u is required")
    fn = {
        "exp": qfun.exp_q,
        "log": qfun.log_q,
        "dexp": qfun.dexp_q,
        "dlog": qfun.dlog_q,
    }.get(cfg.op)
    if fn is None:
        raise QThermoError(f"unknown op {cfg.op!r}; choose exp, log, dexp or dlog")
    return {"op": cfg.op, "q": qp.q, "u": cfg.u, "value": float(fn(cfg.u, qp))}


def _cmd_selftest(cfg: RunConfig) -> dict:
    report = qfun.identity_suite(samples=cfg.samples, seed=cfg.seed)
    return {
        "seed": cfg.seed,
        "samples": cfg.samples,
        "max_violation": report.worst_gated,
        "passed": report.passed(1e-9),
        "identities": report.as_rows(),
    }


def _cmd_static_pressure(cfg: RunConfig) -> dict:
    qp = _resolve_q(cfg, as_tilde=False)
    if len(cfg.payoff) < 2:
        raise QThermoError("--a requires at least two comma-separated payoffs")
    eq = staticq.static_q_pressure(cfg.payoff, cfg.beta, qp.q)
    return {
        "q": qp.q,
        "beta": cfg.beta,
        "a": list(cfg.payoff),
        "pressure": eq.pressure,
        "p_star": eq.p_star,
    }


def _cmd_sweep_beta(cfg: RunConfig) -> dict:
    qp = _resolve_q(cfg, as_tilde=False)
    betas = np.linspace(cfg.beta_min, cfg.beta_max, cfg.beta_steps)
    rows = staticq.beta_sweep(cfg.payoff, qp.q, betas)
    path = cfg.sequence_csv or "beta_sweep.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("beta,pressure\n")
        for b, p in rows:
            fh.write(f"{b:.12g},{'' if p is None else f'{p:.12g}'}\n")
    finite = [(b, p) for b, p in rows if p is not None]
    return {
        "q": qp.q,
        "a": list(cfg.payoff),
        "beta_min": cfg.beta_min,
        "beta_max": cfg.beta_max,
        "steps": cfg.beta_steps,
        "csv_path": path,
        "defined_fraction": len(finite) / len(rows),
    }


def _cmd_entropy(cfg: RunConfig) -> dict:
    qp = _resolve_q(cfg, as_tilde=False)
    if not cfg.probs:
        raise QThermoError("--p requires a comma-separated probability vector")
    p = np.asarray(cfg.probs, dtype=float)
    hq = staticq.q_entropy_vec(p, qp.q)
    shannon = float(-(p * np.log(p)).sum())
    out = {
        "q": qp.q,
        "p": p,
        "h_q": hq,
        "shannon": shannon,
        "renyi_q": staticq.renyi_entropy(p, qp.q),
        "renyi_from_h_q": staticq.renyi_from_q_entropy(hq, qp.q),
    }
    if p.size == 2:
        out["meson_vericat"] = staticq.meson_vericat_bernoulli(p, qp.q)
    return out


def _cmd_ruelle(cfg: RunConfig) -> dict:
    A = _load_potential(cfg.potential)
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
    if cfg.q is not None or cfg.q_tilde is not None:
        qp = _resolve_q(cfg, as_tilde=False)
        out["q"] = qp.q
        out["q_entropy_markov"] = q_entropy_markov(mu, qp)
    return out


def _cmd_solve(cfg: RunConfig) -> dict:
    A = _load_potential(cfg.potential)
    qp = _resolve_q(cfg, as_tilde=True)
    roots = qruelle_solve(A, qp, allow_boundary=cfg.allow_boundary)
    if not roots:
        raise NonConvergenceError("no roots found")
    chosen = roots if cfg.all_branches else roots[: 1]
    return {
        "q_tilde": qp.q,
        "allow_boundary": cfg.allow_boundary,
        "branch_count": len(roots),
        "branches": [
            {
                "branch_id": r.branch_id,
                "c": r.c,
                "phi": r.phi,
                "residual": r.residual,
                "summands_positive": r.summands_positive,
                "boundary": r.boundary,
            }
            for r in chosen
        ],
    }


def _cmd_derivative(cfg: RunConfig) -> dict:
    A = _load_potential(cfg.potential)
    if not cfg.direction:
        raise QThermoError("--direction potential file is required")
    B = _load_potential(cfg.direction)
    qp = _resolve_q(cfg, as_tilde=False)
    d = pressure_derivative(A, B, qp, h_step=cfg.h_step, branch_index=cfg.branch)
    out = {
        "q": qp.q,
        "h_step": cfg.h_step,
        "branch": cfg.branch,
        "dPds": d,
    }
    if abs(qp.q - 0.5) <= 1e-12:
        rep = derivative_identity_report(A, B, h_step=cfg.h_step, branch_index=cfg.branch)
        out["identity_quotient"] = rep.quotient
        out["identity_defect"] = rep.defect
    return out


def _cmd_asym_pressure(cfg: RunConfig) -> dict:
    A = _load_potential(cfg.potential)
    qp = _resolve_q(cfg, as_tilde=False)
    est, seq = asymptotic_pressure(A, qp, cfg.x0, cfg.n_max)
    path = cfg.sequence_csv or "asym_sequence.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("n,log_L_n_over_n\n")
        for n, v in seq:
            fh.write(f"{n},{v:.12g}\n")
    ns = np.array([n for n, _ in seq], dtype=float)
    vals = np.array([v for _, v in seq])
    lo = cfg.n_max // 2
    design = np.column_stack([np.ones(ns.size), np.log(ns) / ns, 1.0 / ns])[lo - 1 :]
    coef, *_ = np.linalg.lstsq(design, vals[lo - 1 :], rcond=None)
    return {
        "q": qp.q,
        "n_max": cfg.n_max,
        "x0": list(cfg.x0),
        "seed": cfg.seed,
        "estimate": est,
        "fit_params": {"constant": coef[0], "log_n_over_n": coef[1], "one_over_n": coef[2]},
        "sequence_csv_path": path,
    }


def _cmd_scan(cfg: RunConfig) -> dict:
    A = _load_potential(cfg.potential)
    qp = _resolve_q(cfg, as_tilde=False)
    res = q_pressure_scan(A, qp, cfg.grid)
    return {
        "q": qp.q,
        "grid_n": res.grid_n,
        "value": res.value,
        "refined": res.refined,
        "excluded_fraction": res.excluded_fraction,
        "argmax_P": res.argmax.P,
        "argmax_pi": res.argmax.pi,
    }


def _cmd_entropy_surface(cfg: RunConfig) -> dict:
    qp = _resolve_q(cfg, as_tilde=False)
    surf = entropy_surface(qp, cfg.grid)
    path = cfg.sequence_csv or "entropy_surface.csv"
    surf.to_csv(path)
    p12, p21, mx = surf.max_point()
    report = midpoint_concavity_report(qp, segments=1000, seed=cfg.seed)
    return {
        "q": qp.q,
        "grid_n": len(surf.probs),
        "seed": cfg.seed,
        "csv_path": path,
        "max": {"p12": p12, "p21": p21, "value": mx},
        "midpoint_gaps": report,
    }


# ----------------------------------------------------------------------------
# regression catalog: frozen criteria with both literal and measured gates


@dataclass(frozen=True)
class CriterionResult:
    index: int
    title: str
    target_pass: bool
    matches_expected: bool
    seconds: float
    measured: dict
    note: str = ""


JANA_VALUES = (0.0, 2.0, 3.5, 0.0)


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


@functools.lru_cache(maxsize=None)
def criterion_1() -> CriterionResult:
    """Static equilibrium closed form at q=1/3, beta=1.2, a=(0.5, 0.8)."""
    eq, dt = _timed(lambda: staticq.static_q_pressure((0.5, 0.8), 1.2, 1.0 / 3.0))
    target = (
        abs(eq.pressure - 1.6895) <= 5e-4
        and float(np.max(np.abs(eq.p_star - np.array([0.3172, 0.6828])))) <= 5e-4
        and dt < 1e-3
    )
    match = (
        abs(eq.pressure - 1.689655762197444) <= 1e-9
        and abs(eq.p_star[0] - 0.31729336931746177) <= 1e-9
    )
    return CriterionResult(
        1,
        "static equilibrium closed form",
        target,
        match,
        dt,
        {"pressure": eq.pressure, "p1": float(eq.p_star[0]), "p2": float(eq.p_star[1])},
    )


@functools.lru_cache(maxsize=None)
def criterion_2(a12: float = 2.0, a21: float = 3.5) -> CriterionResult:
    """Two-branch solve of the zero-diagonal two-symbol system at qt=1/2."""
    A = Potential(d=2, memory=2, values=np.array([0.0, a12, a21, 0.0]))

    def run():
        return qruelle_solve(A, 0.5)

    roots, dt = _timed(run)
    cs = sorted(r.c for r in roots)
    phi2s = sorted(r.phi[1] for r in roots)
    target = (
        len(roots) == 2
        and all(abs(r.c - 3.85405) <= 1e-4 for r in roots)
        and all(min(abs(r.phi[1] - v) for v in (-0.89595, -2.39595)) <= 1e-4 for r in roots)
        and all(r.residual <= 1e-10 for r in roots)
        and dt < 1.0
    )
    match = (
        len(roots) == 2
        and abs(cs[0] - 3.0442810861169263) <= 1e-7
        and abs(cs[1] - 3.7057189138830737) <= 1e-7
        and all(abs(p + 0.75) <= 1e-7 for p in phi2s)
        and all(r.residual <= 1e-10 for r in roots)
    )
    return CriterionResult(
        2,
        "two-branch solve, zero-diagonal two-symbol system",
        target,
        match,
        dt,
        {"c_low": cs[0] if roots else math.nan, "c_high": cs[-1] if roots else math.nan,
         "phi2": phi2s[0] if roots else math.nan, "branches": len(roots)},
        note="the target (phi2, c) pair satisfies only the first context equation; "
        "the true roots share phi2 = (a12-a21)/2",
    )


@functools.lru_cache(maxsize=None)
def criterion_3() -> CriterionResult:
    """Memory-1 closed form plus directional derivative of the constant."""
    from .qsolve import supex_closed_form

    def run():
        phi2, c = supex_closed_form(2.0, 5.5, 0.0, 0.0, 0.0)
        A = Potential(d=2, memory=1, values=np.array([2.0, 5.5]))
        B = Potential(d=2, memory=1, values=np.array([1.0, 0.0]))
        d = pressure_derivative(A, B, 1.5)
        roots = qruelle_solve(A, 0.5)
        return phi2, c, d, roots

    (phi2, c, d, roots), dt = _timed(run)
    c_solver = roots[0].c if roots else math.nan
    target = (
        abs(c - 5.75) <= 1e-8
        and abs(phi2 - 2.71825) <= 1e-4
        and abs(d - 0.5) <= 1e-6
        and dt < 2.0
    )
    match = (
        abs(c - 5.75) <= 1e-12
        and abs(phi2 - 2.718245836551854) <= 1e-9
        and abs(c_solver - 5.75) <= 1e-9
        and abs(d - 0.5) <= 1e-6
    )
    return CriterionResult(
        3,
        "memory-1 closed form and pressure derivative",
        target,
        match,
        dt,
        {"phi2": phi2, "c": c, "dPds": d, "c_solver": c_solver},
    )


@functools.lru_cache(maxsize=None)
def criterion_4() -> CriterionResult:
    """Exactly solvable family: tabulated rows and solver recovery."""

    def run():
        rows = []
        for qt, q1, q2, expected in (
            (2.0 / 3.0, 0.3, 0.6, (0.857533, 0.52199, 0.655413, 0.991701)),
            (4.0 / 5.0, 0.2, 0.3, (2.18972, 0.30612, 1.15786, 1.37610)),
        ):
            a12, a22, phi2, c = explimeq_family(qt, q1, q2)
            diff = max(
                abs(x - y) for x, y in zip((a12, a22, phi2, c), expected)
            )
            A = Potential(d=2, memory=2, values=np.array([0.0, a12, 0.0, a22]))
            roots = qruelle_solve(A, qt)
            rec = min(
                (max(abs(r.c - c), abs(r.phi[1] - phi2)) for r in roots),
                default=math.inf,
            )
            rows.append((diff, rec))
        return rows

    rows, dt = _timed(run)
    target = all(diff <= 1e-5 and rec <= 1e-6 for diff, rec in rows) and dt < 1.0
    match = all(rec <= 1e-9 for _, rec in rows)
    return CriterionResult(
        4,
        "exactly solvable family generator and recovery",
        target,
        match,
        dt,
        {"max_print_diff": max(r[0] for r in rows), "max_recovery": max(r[1] for r in rows)},
    )


@functools.lru_cache(maxsize=None)
def criterion_5() -> CriterionResult:
    """Scan value against solver constant on random positive-branch potentials."""

    def run():
        rng = np.random.default_rng(0)
        gaps = []
        while len(gaps) < 20:
            A = Potential(d=2, memory=2, values=rng.normal(0.0, 0.8, 4))
            pos = [r for r in qruelle_solve(A, 0.5) if r.summands_positive]
            if not pos:
                continue
            c = max(r.c for r in pos)
            gaps.append(q_pressure_scan(A, 1.5, 400).value - c)
        return np.array(gaps)

    gaps, dt = _timed(run)
    target = bool(np.max(np.abs(gaps)) <= 1e-3) and dt < 60.0
    # frozen: the scan of the closed-form entropy strictly exceeds c
    match = (
        abs(float(gaps.max()) - 0.04082103744076268) <= 1e-6
        and abs(float(gaps.min()) - 0.00036957644261770284) <= 1e-6
        and bool(np.min(gaps) > -1e-9)
    )
    return CriterionResult(
        5,
        "scan value vs solver constant, random potentials",
        target,
        match,
        dt,
        {"max_gap": float(gaps.max()), "min_gap": float(gaps.min()), "mean_gap": float(gaps.mean())},
        note="the closed-form Markov q-entropy overshoots the constant: its "
        "variational sup is generically strictly above c",
    )


@functools.lru_cache(maxsize=None)
def criterion_6() -> CriterionResult:
    """Round trip J -> A = -log_q(1/J) -> equilibrium, plus the scan gap."""

    def run():
        cs, tvs, gaps = [], [], []
        for seed in range(20):
            J = random_jacobian(2, 1, seed=seed)
            A = _neg_log_q_inv(J, QParam(0.5))
            p, mu, _ = q_equilibrium(A, 0.5)
            muJ = equilibrium_markov(J)
            cs.append(abs(p))
            tvs.append(0.5 * float(np.max(np.sum(np.abs(mu.P - muJ.P), axis=1))))
            gaps.append(q_pressure_scan(A, 0.5, 400).value - p)
        return np.array(cs), np.array(tvs), np.array(gaps)

    (cs, tvs, gaps), dt = _timed(run)
    target = (
        bool(np.max(cs) <= 1e-8)
        and bool(np.max(np.abs(gaps)) <= 1e-3)
        and bool(np.max(tvs) <= 1e-2)
        and dt < 60.0
    )
    match = (
        bool(np.max(cs) <= 1e-8)
        and bool(np.max(tvs) <= 1e-8)
        and abs(float(gaps.max()) - 0.08131564719948108) <= 1e-6
        and abs(float(gaps.min()) - 0.008248027056523798) <= 1e-6
    )
    return CriterionResult(
        6,
        "Jacobian round trip and scan gap",
        target,
        match,
        dt,
        {"max_abs_c": float(cs.max()), "max_tv": float(tvs.max()),
         "max_gap": float(gaps.max()), "min_gap": float(gaps.min())},
        note="constant and equilibrium recover exactly; the closed-form "
        "entropy scan exceeds the constant on every draw",
    )


@functools.lru_cache(maxsize=None)
def criterion_7() -> CriterionResult:
    """Deformed-calculus identity suite at 10^4 seeded points."""
    report, dt = _timed(lambda: qfun.identity_suite(samples=10_000, seed=0))
    target = report.passed(1e-9) and dt < 5.0
    return CriterionResult(
        7,
        "deformed-calculus identity suite",
        target,
        report.passed(1e-9),
        dt,
        {"max_violation": report.worst_gated},
    )


@functools.lru_cache(maxsize=None)
def criterion_8() -> CriterionResult:
    """Entropy surface maximum at the uniform measure for q in {0.5, 0.9}."""

    def run():
        out = []
        for q in (0.5, 0.9):
            surf = entropy_surface(q, 200)
            p12, p21, mx = surf.max_point()
            out.append((q, p12, p21, mx, abs(mx - float(log_q(2.0, q)))))
        return out

    rows, dt = _timed(run)
    target = all(p12 == 0.5 and p21 == 0.5 and err <= 1e-6 for _, p12, p21, _, err in rows) and dt < 10.0
    match = all(err <= 1e-12 for *_, err in rows)
    return CriterionResult(
        8,
        "entropy surface maximum at the uniform measure",
        target,
        match,
        dt,
        {f"err_q{q}": err for q, *_, err in rows},
    )


@functools.lru_cache(maxsize=None)
def criterion_9() -> CriterionResult:
    """Asymptotic pressure: closed form, two potentials, two base points."""

    def run():
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
        return worst, est1, est2, abs(b1 - b2)

    (worst, est1, est2, bdiff), dt = _timed(run)
    ln2 = math.log(2.0)
    target = (
        worst <= 1e-12
        and abs(est1 - ln2) <= 0.01
        and abs(est2 - ln2) <= 0.02
        and bdiff <= 1e-3
        and dt < 30.0
    )
    match = abs(est1 - ln2) <= 1e-4 and abs(est2 - ln2) <= 1e-4 and bdiff <= 1e-5
    return CriterionResult(
        9,
        "asymptotic pressure estimates",
        target,
        match,
        dt,
        {"closed_form_rel": worst, "estimate_const": est1, "estimate_01": est2,
         "base_point_diff": bdiff},
    )


@functools.lru_cache(maxsize=None)
def criterion_10() -> CriterionResult:
    """Sub-additivity of the deformed Birkhoff logs for nonnegative potentials."""

    def run():
        rng = np.random.default_rng(0)
        q = 0.5
        worst = -math.inf
        for _ in range(5):
            m_pot = int(rng.integers(1, 3))
            vals = rng.uniform(0.0, 1.5, 2**m_pot)
            A = Potential(d=2, memory=m_pot, values=vals)
            lens = rng.integers(1, 13, size=(10_000, 2))
            for mm, nn in lens[:10_000]:
                total = int(mm + nn)
                w = tuple(rng.integers(1, 3, total + m_pot - 1))
                f_total = phi_n(A, q, w[:total], w[total:])
                f_n = phi_n(A, q, w[:nn], w[nn : nn + m_pot - 1])
                f_m = phi_n(A, q, w[nn : nn + mm], w[nn + mm :])
                worst = max(worst, f_total - f_m - f_n)
        return worst

    worst, dt = _timed(run)
    target = worst <= 1e-12 and dt < 5.0
    return CriterionResult(
        10,
        "sub-additivity of deformed Birkhoff logs",
        target,
        worst <= 1e-12,
        dt,
        {"max_violation": worst},
    )


@functools.lru_cache(maxsize=None)
def criterion_11() -> CriterionResult:
    """Classical transfer-operator oracle: pressure, rows, consistency."""

    def run():
        A01 = Potential(d=2, memory=1, values=np.array([0.0, 1.0]))
        p_err = abs(classical_pressure(A01) - math.log(1.0 + math.e))
        rng = np.random.default_rng(1)
        row_worst = 0.0
        rohklin_worst = 0.0
        for _ in range(100):
            m = int(rng.integers(1, 4))
            A = Potential(d=2, memory=m, values=rng.normal(0.0, 1.0, 2**m))
            logJ, lam, h = normalize(A)
            J = np.exp(logJ.values)
            rows = J.reshape(2, -1).sum(axis=0)
            row_worst = max(row_worst, float(np.max(np.abs(rows - 1.0))))
            rohklin_worst = max(rohklin_worst, abs(classical_pressure(logJ)))
        return p_err, row_worst, rohklin_worst

    (p_err, row_worst, rohklin_worst), dt = _timed(run)
    target = p_err <= 1e-10 and row_worst <= 1e-10 and rohklin_worst <= 1e-10 and dt < 5.0
    return CriterionResult(
        11,
        "classical transfer-operator oracle",
        target,
        target,
        dt,
        {"pressure_err": p_err, "row_sum_err": row_worst, "normalized_pressure": rohklin_worst},
    )


@functools.lru_cache(maxsize=None)
def criterion_12() -> CriterionResult:
    """Bridge identities between the q = 1/2 and 3/2-deformed equations."""

    def run():
        rng = np.random.default_rng(0)
        scalar_worst = 0.0
        for _ in range(1000):
            a = rng.uniform(-1.9, 3.0)
            a1, a2, C = rng.normal(size=3)
            r = a1 - a2 - C
            g = _g_half(a1, a2, C, a)
            lhs = exp_q(g + r, 1.5)
            rhs = exp_q(a, 0.5) * math.exp(r)
            scalar_worst = max(scalar_worst, abs(lhs - rhs))
        res_worst = 0.0
        for _ in range(10):
            A = Potential(d=2, memory=1, values=rng.uniform(-1.5, 1.5, 2))
            B, phiB, cB = bridge_half(A)
            res = qruelle_residual(B, 1.5, phiB, cB)
            res_worst = max(res_worst, float(np.max(np.abs(res))))
        g_worst = 0.0
        for _ in range(100):
            a = rng.uniform(-1.9, 3.0)
            a1, a2, C = rng.normal(size=3)
            g_worst = max(
                g_worst,
                abs(bridge_general_g(a, a1, a2, C, 0.5) - _g_half(a1, a2, C, a)),
            )
        return scalar_worst, res_worst, g_worst

    (scalar_worst, res_worst, g_worst), dt = _timed(run)
    target = scalar_worst <= 1e-10 and res_worst <= 1e-9 and g_worst <= 1e-9 and dt < 5.0
    return CriterionResult(
        12,
        "bridge identities",
        target,
        target,
        dt,
        {"scalar": scalar_worst, "residual": res_worst, "g_match": g_worst},
    )


@functools.lru_cache(maxsize=None)
def criterion_13() -> CriterionResult:
    """Renyi bijection and the two-symbol independence-rate value."""

    def run():
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(10_000):
            k = int(rng.integers(2, 5))
            p = rng.dirichlet(np.ones(k))
            q = float(rng.uniform(0.2, 1.8))
            if abs(q - 1.0) < 1e-3:
                continue
            hq = staticq.q_entropy_vec(p, q)
            worst = max(worst, abs(staticq.renyi_entropy(p, q) - staticq.renyi_from_q_entropy(hq, q)))
        mv_worst = 0.0
        for _ in range(50):
            p1 = float(rng.uniform(0.1, 0.9))
            q = float(rng.uniform(0.2, 0.8))
            mv = staticq.meson_vericat_bernoulli((p1, 1.0 - p1), q)
            mv_worst = max(
                mv_worst,
                abs(mv - (1.0 - q) * staticq.renyi_entropy((p1, 1.0 - p1), q)),
            )
        return worst, mv_worst

    (worst, mv_worst), dt = _timed(run)
    target = worst <= 1e-10 and mv_worst <= 1e-12 and dt < 2.0
    return CriterionResult(
        13,
        "Renyi bijection and independence-rate value",
        target,
        target,
        dt,
        {"bijection": worst, "meson_vericat": mv_worst},
    )


@functools.lru_cache(maxsize=None)
def criterion_14() -> CriterionResult:
    """First-order identity: dc/ds against the quotient of integrals."""

    def run():
        J = random_jacobian(2, 1, seed=3)
        A = _neg_log_q_inv(J, QParam(0.5))
        B = Potential(d=2, memory=1, values=np.array([0.4, -0.2]))
        return derivative_identity_report(A, B)

    rep, dt = _timed(run)
    target = rep.defect <= 1e-4 and dt < 5.0
    return CriterionResult(
        14,
        "first-order pressure identity",
        target,
        rep.defect <= 1e-6,
        dt,
        {"dPds": rep.dPds, "quotient": rep.quotient, "defect": rep.defect},
    )


ALL_CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
    criterion_12,
    criterion_13,
    criterion_14,
)

# catalog entries whose literal target values are reproducibly defective;
# for these the gate is matches_expected, not target_pass
KNOWN_DEFECT_CRITERIA = frozenset({2, 5, 6})


def run_regression() -> dict:
    criteria = []
    exit_ok = True
    for fn in ALL_CRITERIA:
        res = fn()
        if not res.matches_expected:
            exit_ok = False
        if res.index not in KNOWN_DEFECT_CRITERIA and not res.target_pass:
            exit_ok = False
        criteria.append(
            {
                "criterion": res.index,
                "title": res.title,
                "target_pass": res.target_pass,
                "matches_expected": res.matches_expected,
                "known_defect": res.index in KNOWN_DEFECT_CRITERIA,
                "seconds": res.seconds,
                "measured": res.measured,
                "note": res.note,
            }
        )
    return {
        "criteria": criteria,
        "target_failures": sorted(
            c["criterion"] for c in criteria if not c["target_pass"]
        ),
        "drifted": sorted(
            c["criterion"] for c in criteria if not c["matches_expected"]
        ),
        "ok": exit_ok,
    }


def _cmd_paper_regression(cfg: RunConfig) -> dict:
    return run_regression()


_HANDLERS = {
    "qfun": _cmd_qfun,
    "selftest": _cmd_selftest,
    "static-pressure": _cmd_static_pressure,
    "sweep-beta": _cmd_sweep_beta,
    "entropy": _cmd_entropy,
    "ruelle": _cmd_ruelle,
    "solve": _cmd_solve,
    "derivative": _cmd_derivative,
    "asym-pressure": _cmd_asym_pressure,
    "scan": _cmd_scan,
    "entropy-surface": _cmd_entropy_surface,
    "paper-regression": _cmd_paper_regression,
}


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qthermo",
        description="Deformed thermodynamic formalism on the full shift. "
        "QTHERMO_THREADS caps numeric-library parallelism when set before launch.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in DOC_MAP:
        p = sub.add_parser(name, help=DOC_MAP[name], description=DOC_MAP[name])
        p.add_argument("--q", type=float, default=None)
        p.add_argument("--q-tilde", type=float, default=None, dest="q_tilde")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--output", default=None)
        if name in ("solve", "derivative", "asym-pressure", "scan", "ruelle"):
            p.add_argument("--potential", default=None)
        if name == "qfun":
            p.add_argument("--op", default="exp", choices=("exp", "log", "dexp", "dlog"))
            p.add_argument("--u", type=float, default=None)
        if name == "selftest":
            p.add_argument("--samples", type=int, default=10_000)
        if name in ("static-pressure", "sweep-beta"):
            p.add_argument("--a", type=_floats, default=[], dest="payoff")
            p.add_argument("--beta", type=float, default=1.0)
        if name == "sweep-beta":
            p.add_argument("--beta-min", type=float, default=0.0, dest="beta_min")
            p.add_argument("--beta-max", type=float, default=2.0, dest="beta_max")
            p.add_argument("--beta-steps", type=int, default=21, dest="beta_steps")
            p.add_argument("--csv", default=None, dest="sequence_csv")
        if name == "entropy":
            p.add_argument("--p", type=_floats, default=[], dest="probs")
        if name == "solve":
            p.add_argument("--all-branches", action="store_true", dest="all_branches")
            p.add_argument("--allow-boundary", action="store_true", dest="allow_boundary")
        if name == "derivative":
            p.add_argument("--direction", default=None)
            p.add_argument("--h-step", type=float, default=1e-4, dest="h_step")
            p.add_argument("--branch", type=int, default=0)
        if name == "asym-pressure":
            p.add_argument("--n-max", type=int, default=2000, dest="n_max")
            p.add_argument("--x0", type=_word, default=())
            p.add_argument("--sequence-csv", default=None, dest="sequence_csv")
        if name in ("scan", "entropy-surface"):
            p.add_argument("--grid", type=int, default=400)
        if name == "entropy-surface":
            p.add_argument("--csv", default=None, dest="sequence_csv")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    fields_ = RunConfig.__dataclass_fields__
    cfg = RunConfig(
        subcommand=args.subcommand,
        **{k: v for k, v in vars(args).items() if k != "subcommand" and k in fields_},
    )
    try:
        payload = _HANDLERS[cfg.subcommand](cfg)
    except NonConvergenceError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (QThermoError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    _emit(payload, cfg)
    if cfg.subcommand == "selftest" and not payload.get("passed", True):
        return 1
    if cfg.subcommand == "paper-regression" and not payload.get("ok", True):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
