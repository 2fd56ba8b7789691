"""Seeded workloads of the qthermo benchmark: inputs, one pass, and oracles.

Every in-process workload builds its inputs from the seed alone
(``build``), and one pass (``PASS``) sends them through the library and
checks every result against an oracle that does not reuse the code under
test; ``Regression.run_pass`` runs the frozen catalog through the CLI
instead.  The library only ever sees the generated inputs.

An operation is one checked call (one catalog criterion on ``regression``).
It fails when it raises or when its result fails its oracle.  Any failure
makes the run incorrect, except a raise that an operation declares as a
known defect (``expected``): that one counts as failed but leaves the run
correct.  ``op_p50_ms`` and ``op_p90_ms`` come from the latency of the
workload's timed operation (``TIMED_OP``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import qthermo as qt
from metronome import Metronome, normalized, speed
from qthermo import Potential, QParam
from qthermo.qsolve import _neg_log_q_inv

WHY = {
    "regression": "the ROADMAP's end-to-end run that every reproduction makes: the 14-criterion "
    "paper-regression catalog through the CLI, where subadd (criterion 9) and shift/phi_n "
    "(criterion 10) do most of the work",
    "solve": "qsolve does nearly all the work and subadd none; polynomial (qt 0.5, 0.75) and "
    "non-polynomial (qt 0.7, 1.5) deformations are split so a homotopy solver shows on one half "
    "and stays flat on the other",
    "scan": "variational and ruelle do the work with no qsolve or subadd: grid scans at memory "
    "1-3 (memory 3 is the per-point Python loop) and power iteration on 1,024 states at d=4, "
    "memory 6",
}

TIMED_OP = {
    "regression": "one paper-regression CLI invocation (its 14 criteria are the checked operations)",
    "solve": "one top-level qruelle_solve call",
    "scan": "one top-level q_pressure_scan call",
}

# layer metric -> end-to-end metric it should move, per workload
PREDICTIONS = {
    "regression": [
        "shift.word_index.calls, shift.all_words.calls, shift.birkhoff_sum.calls, shift.self_s -> wall_s",
        "staticq.calls, staticq.self_s -> wall_s (small)",
        "subadd.asym.self_s, subadd.lattice.self_s, subadd.step.{calls,self_s}, "
        "subadd.log_value.self_s, subadd.buckets_max, subadd.phi_n.{calls,self_s} -> wall_s, peak_rss_mb",
        "cli.critN_s, cli.gateN_ratio -> wall_s",
    ],
    "solve": [
        "shift.word_index.calls, shift.all_words.calls, shift.self_s -> wall_s",
        "qsolve.solve.calls, qsolve.solve_poly.self_s, qsolve.solve_nonpoly.self_s, qsolve.roots, "
        "qsolve.roots_positive, qsolve.roots_per_solve, qsolve.equilibrium.self_s, "
        "qsolve.derivative.self_s -> wall_s, op_p90_ms",
    ],
    "scan": [
        "qfun.exp_q.calls, qfun.log_q.calls, qfun.elements, qfun.self_s -> wall_s",
        "ruelle.transfer_matrix.self_s, ruelle.leading_eig.{calls,self_s,failed}, "
        "ruelle.markov.{calls,self_s}, ruelle.entropy.self_s, ruelle.variational.self_s -> wall_s, fail_frac",
        "variational.scan.calls, variational.scan_k1.self_s, variational.scan_k2.self_s, "
        "variational.refined_frac, variational.surface.self_s -> wall_s, op_p50_ms",
    ],
}

_RESIDUAL_TOL = 1e-10  # the solver's own acceptance level, re-checked independently


@dataclass
class Tally:
    """Outcomes of the checked operations of one or more passes.

    Every pass repeats the same inputs, so an operation is counted once by
    its label however many passes ran it, and it fails if it failed in any
    of them.  ``attempted`` and ``failed`` thus depend on the seed alone, not
    on how many passes fit into the run.  Each failure map keeps the first
    message per label.
    """

    labels: set[str] = field(default_factory=set)
    raised: dict[str, str] = field(default_factory=dict)
    wrong: dict[str, str] = field(default_factory=dict)
    known: dict[str, str] = field(default_factory=dict)
    latency_s: list[float] = field(default_factory=list)
    # set while a metronome runs: its chunks are taken out of every latency
    metronome: Metronome | None = None

    @property
    def attempted(self) -> int:
        return len(self.labels)

    @property
    def failed(self) -> int:
        return len(set(self.raised) | set(self.wrong) | set(self.known))

    @property
    def correct(self) -> bool:
        return not (self.raised or self.wrong)

    def checked(self, label: str, problem: str | None) -> None:
        """Record an operation whose outcome is already known; ``problem`` None means it passed."""
        self.labels.add(label)
        if problem:
            self.wrong.setdefault(label, f"{label}: {problem}")

    def op(self, label, fn, check, timed=False, expected=None) -> None:
        """Run one operation; check(result) returns a problem string or None.

        A raise from the oracle counts like a raise from the operation: the
        output could not be verified.  ``expected(exc)`` is true for a raise
        of a documented defect, which goes to ``known`` instead of ``raised``.
        """
        self.labels.add(label)
        spent0 = self.metronome.spent if self.metronome else 0.0
        t0 = time.perf_counter()
        try:
            try:
                out = fn()
            finally:
                if timed:
                    spent = self.metronome.spent - spent0 if self.metronome else 0.0
                    self.latency_s.append(time.perf_counter() - t0 - spent)
            problem = check(out)
        except Exception as exc:  # the benchmark counts every raise as a failed operation
            line = f"{label}: {type(exc).__name__}: {exc}"
            kind = self.known if expected is not None and expected(exc) else self.raised
            kind.setdefault(label, line)
            return
        if problem:
            self.wrong.setdefault(label, f"{label}: {problem}")


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


# -- regression -------------------------------------------------------------


@dataclass
class Regression:
    """The catalog through the CLI, one fresh interpreter per pass.

    With ``metronome`` set the CLI runs under a metronome of its own in the
    child (``metronome.py`` as a script), and a pass's seconds are at the
    reference speed; otherwise it is ``python -m qthermo.cli`` and raw.
    """

    root: str
    env: dict
    tmpdir: str
    metronome: bool = False
    speeds: list[float] = field(default_factory=list)  # per pass under the metronome
    last_payload: dict | None = None
    # criterion -> the catalog's wall-clock gate in seconds; needed for traced passes
    time_gates: dict[int, float] = field(default_factory=dict)

    def run_pass(self, tally: Tally, trace_out: str | None = None, timeout: float = 170.0) -> float:
        untraced = {c["criterion"]: c for c in (self.last_payload or {}).get("criteria", [])}
        out = os.path.join(self.tmpdir, "regression.json")
        if os.path.exists(out):
            os.remove(out)
        args = ["paper-regression", "--output", out]
        ticks = os.path.join(self.tmpdir, "metronome.json")
        if trace_out is None and self.metronome:
            cmd = [sys.executable, os.path.join(self.root, "perfbench", "metronome.py"), ticks, *args]
        elif trace_out is None:
            cmd = [sys.executable, "-m", "qthermo.cli", *args]
        else:
            cmd = [sys.executable, os.path.join(self.root, "perfbench", "tracer.py"), trace_out, *args]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, timeout=timeout,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        wall = time.perf_counter() - t0
        if trace_out is None and self.metronome and os.path.exists(ticks):
            with open(ticks) as fh:
                tick = json.load(fh)
            os.remove(ticks)
            self.speeds.append(speed((0, 0.0), (tick["count"], tick["spent"])))
            wall = normalized(wall, (0, 0.0), (tick["count"], tick["spent"]))
        tally.latency_s.append(wall)
        payload = None
        if os.path.exists(out):
            with open(out) as fh:
                payload = json.load(fh)
        self.last_payload = payload
        criteria = {c["criterion"]: c for c in (payload or {}).get("criteria", [])}
        for idx in range(1, 15):
            label = f"criterion {idx}"
            c = criteria.get(idx)
            if c is None:
                tally.checked(label, f"missing (exit {proc.returncode}): {proc.stderr.strip()[-200:]}")
                continue
            # the catalog's own rule: frozen values match, and the literal
            # target holds unless the entry is a known defect
            ok = c["matches_expected"] and (c["known_defect"] or c["target_pass"])
            if not ok and trace_out is not None:
                # tracing slows a pass past the catalog's wall-clock gates; a
                # criterion that matches its frozen values, met its whole target
                # in the untraced pass of this run, and missed only on time now
                # is not failed
                before = untraced.get(idx, {})
                ok = (c["matches_expected"] and before.get("target_pass", False)
                      and c["seconds"] >= self.time_gates[idx])
            tally.checked(label, None if ok else f"matches_expected={c['matches_expected']} "
                                                 f"target_pass={c['target_pass']}")
        want = 0 if payload is not None and payload.get("ok") else 1
        tally.checked("exit code", None if proc.returncode == want else
                      f"exit code {proc.returncode} disagrees with ok={(payload or {}).get('ok')}")
        return wall


# -- solve --------------------------------------------------------------------

_POLY_QT = (0.5, 0.75)  # 1/(1-qt) = 2, 4: the equation is polynomial
_NONPOLY_QT = (0.7, 1.5)
_SOLVE_SIGMA = 0.25


def build_solve(seed: int) -> dict:
    rng = _rng(seed, 1)

    def pot(d, m):
        return Potential(d=d, memory=m, values=rng.normal(0.0, _SOLVE_SIGMA, d**m))

    solves = []
    for qt_ in _POLY_QT + _NONPOLY_QT:
        solves += [(pot(2, 2), qt_) for _ in range(16)]
        solves += [(pot(3, 2), qt_) for _ in range(8)]
        solves.append((pot(2, 3), qt_))
    # memory 4 only where the equation is not polynomial: at qt = 0.5 the
    # 2,000-start cap binds and one solve takes 1.6 to 6.8 s depending on the
    # draw, which no pass of this size can average out
    solves.append((pot(2, 4), 0.7))
    eq = []
    for _ in range(2):
        J = qt.random_jacobian(2, 1, seed=int(rng.integers(1 << 31)))
        g = rng.normal(0.0, 1.0, 2)
        eq.append({
            "J": J,
            "A": _neg_log_q_inv(J, QParam(0.5)),
            "b": float(rng.normal(0.0, 1.0)),
            "coboundary": Potential(d=2, memory=2, values=np.subtract.outer(g, g).reshape(-1)),
        })
    return {"solves": solves, "equilibria": eq}


def _check_roots(A, qt_):
    # q_equilibrium needs a root with positive summands; every input here has one
    def check(roots):
        if not any(r.summands_positive for r in roots):
            return f"no positive-summand root among {len(roots)}"
        for r in roots:
            res = float(np.max(np.abs(qt.qruelle_residual(A, qt_, r.phi, r.c))))
            if not res <= _RESIDUAL_TOL:
                return f"root c={r.c} has residual {res}"
        return None

    return check


def solve_pass(inputs: dict, tally: Tally) -> None:
    for i, (A, qt_) in enumerate(inputs["solves"]):
        tally.op(f"qruelle_solve[{i}] d={A.d} m={A.memory} qt={qt_}",
                 lambda: qt.qruelle_solve(A, qt_), _check_roots(A, qt_), timed=True)
    for i, case in enumerate(inputs["equilibria"]):
        A, J = case["A"], case["J"]

        def check_eq(out, J=J):
            # A = -log_q(1/J) has q-pressure 0 and equilibrium state mu_J
            p, mu, _ = out
            tv = float(np.max(np.abs(mu.P - qt.equilibrium_markov(J).P)))
            return None if abs(p) <= 1e-8 and tv <= 1e-8 else f"pressure {p}, transition gap {tv}"

        tally.op(f"q_equilibrium[{i}]", lambda: qt.q_equilibrium(A, 0.5), check_eq)
        b = case["b"]
        # adding a constant b moves the branch constant by b; a coboundary
        # direction is absorbed by phi and moves it by 0
        tally.op(f"pressure_derivative[{i}] constant",
                 lambda: qt.pressure_derivative(A, Potential.constant(2, b), 0.5),
                 lambda d: None if abs(d - b) <= 1e-8 else f"dc/ds {d} != {b}")
        tally.op(f"pressure_derivative[{i}] coboundary",
                 lambda: qt.pressure_derivative(A, case["coboundary"], 0.5),
                 lambda d: None if abs(d) <= 1e-8 else f"dc/ds {d} != 0")


# -- scan ---------------------------------------------------------------------

_SCAN_Q = (0.5, 1.0, 1.5)


def build_scan(seed: int) -> dict:
    rng = _rng(seed, 2)
    scans = []
    for i in range(100):
        m = 1 + i % 2
        scans.append((Potential(d=2, memory=m, values=rng.normal(0.0, 0.5, 2**m)),
                      _SCAN_Q[(i // 2) % 3], 400))
    scans += [(Potential(d=2, memory=3, values=rng.normal(0.0, 0.5, 8)), q, 8) for q in (0.5, 1.5)]
    normal = [(d, m) for d, top in ((2, 6), (3, 5), (4, 5)) for m in range(1, top + 1)]
    normal += [(4, 6)] * 4  # power iteration on 1,024 states
    norms = [Potential(d=d, memory=m, values=rng.normal(0.0, 0.5, d**m)) for d, m in normal]
    surfaces = [float(q) for q in rng.uniform(0.3, 1.7, 3)]
    measures = [qt.equilibrium_markov(qt.random_jacobian(2, 1, seed=int(s)))
                for s in rng.integers(1 << 31, size=3)]
    return {"scans": scans, "norms": norms, "surfaces": surfaces, "measures": measures}


def _check_scan(A, q):
    # variational principle against the classical pressure P(A): equality at
    # q = 1; H_q >= h for q < 1 and H_q <= h for q > 1 on every measure
    def check(res):
        P = qt.classical_pressure(A)
        v = res.value
        if q == 1.0 and abs(v - P) > 1e-10:
            return f"q=1 scan {v} != classical pressure {P}"
        if q < 1.0 and v < P - 1e-10:
            return f"q={q} scan {v} below classical pressure {P}"
        if q > 1.0 and v > P + 1e-10:
            return f"q={q} scan {v} above classical pressure {P}"
        return None

    return check


def _check_normalized(out):
    logJ, _, _ = out
    rows = np.exp(logJ.values).reshape(logJ.d, -1).sum(axis=0)
    row_err = float(np.max(np.abs(rows - 1.0)))
    p = qt.classical_pressure(logJ)
    return None if row_err <= 1e-10 and abs(p) <= 1e-10 else f"row sums off by {row_err}, pressure {p}"


def _eig_post_check_defect(exc: Exception) -> bool:
    """The documented ``leading_eig`` defect: converged eigendata rejected by its post-check."""
    return isinstance(exc, qt.NonConvergenceError) and "after convergence" in str(exc)


def scan_pass(inputs: dict, tally: Tally) -> None:
    for i, (A, q, grid) in enumerate(inputs["scans"]):
        tally.op(f"q_pressure_scan[{i}] m={A.memory} q={q} grid={grid}",
                 lambda: qt.q_pressure_scan(A, q, grid), _check_scan(A, q), timed=True)
    for i, A in enumerate(inputs["norms"]):
        # only the d=4 memory-6 draws are known to hit the leading_eig defect
        defect = _eig_post_check_defect if (A.d, A.memory) == (4, 6) else None
        tally.op(f"normalize[{i}] d={A.d} m={A.memory}", lambda: qt.normalize(A), _check_normalized,
                 expected=defect)
    for q in inputs["surfaces"]:
        want = qt.log_q(2.0, q)
        tally.op(f"entropy_surface q={q}", lambda: qt.entropy_surface(q, 400),
                 lambda s: None if abs(s.max_point()[2] - want) <= 1e-12
                 else f"max {s.max_point()[2]} != log_q(2) {want}")
    for i, mu in enumerate(inputs["measures"]):
        lo, hi = qt.ks_entropy(mu), qt.q_entropy_markov(mu, 0.5)
        tally.op(f"q_entropy_variational[{i}]", lambda: qt.q_entropy_variational(mu, 0.5),
                 lambda v: None if lo - 1e-9 <= v <= hi + 1e-9 else f"{v} outside [{lo}, {hi}]")


BUILD = {"solve": build_solve, "scan": build_scan}
PASS = {"solve": solve_pass, "scan": scan_pass}


def build(name: str, seed: int):
    """Inputs of an in-process workload (the regression catalog has none)."""
    return BUILD[name](seed) if name in BUILD else None
