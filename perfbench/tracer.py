"""Span tracer for the benchmark's traced runs.

The tracer wraps public functions and methods of the qthermo modules from
outside: it changes no library code.  Each call into a wrapped function
records a span (name, start, end, parent, raised) in flat arrays that are
kept until the run ends.  A wrapped function is rebound in every ``qthermo``
module namespace (and the benchmark's own modules) that holds it, so names
bound by ``from .x import f`` are traced too.

Self time is a span's duration minus the time its child spans cover.  A
layer is the first component of a span name (``qsolve.solve_poly`` belongs
to ``qsolve``); a layer's self time is the sum over its spans.

Run as a script, it traces one CLI invocation in a fresh interpreter:

    python3 perfbench/tracer.py OUT.json paper-regression --output R.json

and writes the span summary to OUT.json.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from array import array

import numpy as np

LAYERS = ("qfun", "shift", "staticq", "ruelle", "qsolve", "subadd", "variational", "cli")

# asymptotic_pressure inputs whose values share a lattice spacing at least this
# large (after quantizing to the 1e-9 bucket quantum) are the "lattice" class
_LATTICE_MIN_SPACING = 1e-3
_QUANTUM = 1e-9

# benchmark modules whose imported library names are rebound too
_BENCH_MODULES = {"workloads"}


class Tracer:
    """Records spans of wrapped calls plus a few counters taken at the same boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self._installed: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0.0) + value

    def peak(self, counter: str, value: float) -> None:
        self.counters[counter] = max(self.counters.get(counter, 0.0), value)

    def wrap(self, fn, name: str, classify=None, observe=None):
        """Wrap fn so each call records a span.

        ``classify(args, kwargs)`` may pick the span name per call;
        ``observe(tracer, result, args, kwargs)`` may update counters.
        """
        fixed = self._id(name)
        name_id, parent, start, end, raised = (
            self.name_id, self.parent, self.start, self.end, self.raised
        )
        stack, clock, ident = self.stack, time.perf_counter, self._id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(fixed if classify is None else ident(classify(args, kwargs)))
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            raised.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[i] = 1
                raise
            finally:
                end[i] = clock()
                stack.pop()
            if observe is not None:
                observe(self, result, args, kwargs)
            return result

        return traced

    # -- installation -------------------------------------------------------

    def install(self, targets) -> None:
        """Wrap every target and rebind it wherever the original is bound.

        ``targets`` holds (owner, attribute, span name, classify, observe);
        the owner is a module or a class.
        """
        replace: dict[int, object] = {}
        for owner, attr, name, classify, observe in targets:
            raw = owner.__dict__[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self.wrap(raw.__func__, name, classify, observe))
            else:
                wrapped = self.wrap(raw, name, classify, observe)
                replace[id(raw)] = wrapped
            self._installed.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname.startswith("qthermo") or modname in _BENCH_MODULES):
                continue
            for attr, value in list(vars(mod).items()):
                wrapped = replace.get(id(value))
                if wrapped is not None and not isinstance(value, type):
                    self._installed.append((mod, attr, value))
                    setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._installed):
            setattr(owner, attr, raw)
        self._installed.clear()

    # -- summary ------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, self seconds and raised counts, plus the counters."""
        n = len(self.start)
        ids = np.frombuffer(self.name_id, dtype=np.int32).astype(np.intp)
        par = np.frombuffer(self.parent, dtype=np.int32).astype(np.intp)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        nested = par >= 0
        covered = np.zeros(n)
        np.add.at(covered, par[nested], dur[nested])
        own = dur - covered
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        self_s = np.bincount(ids, weights=own, minlength=k)
        fails = np.bincount(ids, weights=np.frombuffer(self.raised, dtype=np.int8), minlength=k)
        # subadd self time attributed to the class of the nearest enclosing
        # asymptotic_pressure call: each round hands a class one level down
        cls = np.full(n, -1, dtype=np.intp)
        for tag, label in enumerate(("subadd.asym.lattice", "subadd.asym.generic")):
            if label in self._ids:
                cls[ids == self._ids[label]] = tag
        if np.any(cls >= 0):
            for _ in range(64):
                inherit = (cls < 0) & nested
                nxt = np.where(inherit, cls[np.where(nested, par, 0)], cls)
                if np.array_equal(nxt, cls):
                    break
                cls = nxt
        is_subadd = np.array([nm.startswith("subadd.") for nm in self.names], dtype=bool)
        subadd_span = is_subadd[ids] if n else np.zeros(0, dtype=bool)
        by_class = {
            label: float(own[subadd_span & (cls == tag)].sum())
            for tag, label in enumerate(("lattice", "generic"))
        }
        return {
            "spans": n,
            "names": {
                nm: {"calls": int(calls[j]), "self_s": float(self_s[j]), "raised": int(fails[j])}
                for j, nm in enumerate(self.names)
            },
            "subadd_class_self_s": by_class,
            "counters": dict(self.counters),
        }



# -- what is traced -----------------------------------------------------------


def _arg(args, kwargs, pos, key):
    return kwargs[key] if key in kwargs else args[pos]


def _elements(tr, result, args, kwargs):
    tr.add("qfun.elements", np.size(_arg(args, kwargs, 0, "u")))


def _is_lattice(values) -> bool:
    keys = [abs(round(float(v) / _QUANTUM)) for v in values]
    return math.gcd(*keys) * _QUANTUM >= _LATTICE_MIN_SPACING


def targets():
    """(owner, attribute, span name, classify, observe) for every traced entry point."""
    from qthermo import cli, qfun, qsolve, ruelle, shift, staticq, subadd, variational

    even_power_order = qfun.even_power_order  # the untraced original

    def solve_kind(args, kwargs):
        qt = _arg(args, kwargs, 1, "q_tilde")
        return "qsolve.solve_poly" if even_power_order(qt) is not None else "qsolve.solve_nonpoly"

    def solve_roots(tr, roots, args, kwargs):
        tr.add("qsolve.roots", len(roots))
        tr.add("qsolve.roots_positive", sum(1 for r in roots if r.summands_positive))

    def asym_kind(args, kwargs):
        A = _arg(args, kwargs, 0, "A")
        return "subadd.asym.lattice" if _is_lattice(A.values) else "subadd.asym.generic"

    def bucket_peak(tr, _, args, kwargs):
        tr.peak("subadd.buckets_max", sum(len(kc) for kc in args[0].buckets.values()))

    def scan_kind(args, kwargs):
        A = _arg(args, kwargs, 0, "A")
        return "variational.scan_k1" if A.memory <= 2 else "variational.scan_k2"

    def scan_refined(tr, res, args, kwargs):
        tr.add("variational.refined", int(res.refined))

    T = []

    def fns(mod, layer, names, **special):
        for nm in names:
            label, classify, observe = special.get(nm, (nm, None, None))
            T.append((mod, nm, f"{layer}.{label}", classify, observe))

    fns(qfun, "qfun",
        ("exp_q", "log_q", "dexp_q", "dlog_q", "even_power_order", "exp_q_extended",
         "dexp_q_extended", "exp_q_base", "identity_suite"),
        exp_q=("exp_q", None, _elements), log_q=("log_q", None, _elements))
    fns(shift, "shift", ("all_words", "word_index", "index_word", "word_distance", "preimage_words"))
    for meth in ("value", "birkhoff_sum", "birkhoff_table"):
        T.append((shift.Potential, meth, f"shift.{meth}", None, None))
    fns(staticq, "staticq",
        ("q_entropy_vec", "renyi_entropy", "renyi_from_q_entropy", "static_q_pressure",
         "true_static_equilibrium", "stationarity_defect", "static_q_pressure_scan",
         "beta_sweep", "meson_vericat_bernoulli", "loloi_closed_form"))
    fns(ruelle, "ruelle",
        ("transfer_matrix", "leading_eig", "classical_pressure", "normalize",
         "random_jacobian", "equilibrium_markov", "ks_entropy", "q_entropy_markov",
         "relative_q_entropy", "q_entropy_variational", "variational_entropy_of_masses"),
        equilibrium_markov=("markov.equilibrium", None, None),
        ks_entropy=("entropy.ks", None, None),
        q_entropy_markov=("entropy.q_markov", None, None),
        relative_q_entropy=("entropy.relative", None, None),
        q_entropy_variational=("variational.q_entropy", None, None),
        variational_entropy_of_masses=("variational.of_masses", None, None))
    for meth in ("from_transitions", "cylinder_masses", "jacobian", "integrate"):
        T.append((ruelle.MarkovMeasure, meth, f"ruelle.markov.{meth}", None, None))
    fns(qsolve, "qsolve",
        ("qruelle_solve", "qruelle_residual", "q_equilibrium", "pressure_derivative",
         "derivative_identity_report", "bridge_half", "bridge_general_g", "a_q_transform",
         "explimeq_family", "jana_closed_form", "supex_closed_form", "two_symbol_roots"),
        qruelle_solve=("solve", solve_kind, solve_roots),
        qruelle_residual=("residual", None, None),
        q_equilibrium=("equilibrium", None, None),
        pressure_derivative=("derivative", None, None),
        derivative_identity_report=("derivative_identity", None, None))
    fns(subadd, "subadd",
        ("phi_n", "frak_L_n", "frak_L_n_enumerate", "log_frak_L_sequence",
         "asymptotic_pressure", "variational_scan_subadd"),
        asymptotic_pressure=("asym", asym_kind, None))
    T.append((subadd.SumBuckets, "step", "subadd.step", None, bucket_peak))
    T.append((subadd.SumBuckets, "log_value", "subadd.log_value", None, None))
    T.append((subadd.SumBuckets, "log_value_truncated", "subadd.log_value", None, None))
    fns(variational, "variational",
        ("q_pressure_scan", "entropy_surface", "midpoint_concavity_report",
         "entropy_affinity_report"),
        q_pressure_scan=("scan", scan_kind, scan_refined),
        entropy_surface=("surface", None, None))
    fns(cli, "cli", ("main",))
    return T


# -- per-layer metrics ----------------------------------------------------------


def layer_metrics(summary: dict) -> dict[str, float]:
    """Per-layer metric values of one traced pass, keyed by metric name."""
    names = summary["names"]
    ctr = summary["counters"]

    def calls(*names_):
        return sum(names[n]["calls"] for n in names_ if n in names)

    def own(*names_):
        return sum(names[n]["self_s"] for n in names_ if n in names)

    def prefixed(prefix, field="self_s"):
        return sum(v[field] for n, v in names.items() if n.startswith(prefix))

    solves = calls("qsolve.solve_poly", "qsolve.solve_nonpoly")
    scans = calls("variational.scan_k1", "variational.scan_k2")
    out = {
        "qfun.exp_q.calls": calls("qfun.exp_q"),
        "qfun.log_q.calls": calls("qfun.log_q"),
        "qfun.elements": ctr.get("qfun.elements", 0.0),
        "shift.word_index.calls": calls("shift.word_index"),
        "shift.all_words.calls": calls("shift.all_words"),
        "shift.birkhoff_sum.calls": calls("shift.birkhoff_sum"),
        "staticq.calls": prefixed("staticq.", "calls"),
        "ruelle.transfer_matrix.self_s": own("ruelle.transfer_matrix"),
        "ruelle.leading_eig.calls": calls("ruelle.leading_eig"),
        "ruelle.leading_eig.self_s": own("ruelle.leading_eig"),
        "ruelle.leading_eig.failed": names.get("ruelle.leading_eig", {}).get("raised", 0),
        "ruelle.markov.calls": prefixed("ruelle.markov.", "calls"),
        "ruelle.markov.self_s": prefixed("ruelle.markov."),
        "ruelle.entropy.self_s": prefixed("ruelle.entropy."),
        "ruelle.variational.self_s": prefixed("ruelle.variational."),
        "qsolve.solve.calls": solves,
        "qsolve.solve_poly.self_s": own("qsolve.solve_poly"),
        "qsolve.solve_nonpoly.self_s": own("qsolve.solve_nonpoly"),
        "qsolve.roots": ctr.get("qsolve.roots", 0.0),
        "qsolve.roots_positive": ctr.get("qsolve.roots_positive", 0.0),
        "qsolve.roots_per_solve": ctr.get("qsolve.roots", 0.0) / solves if solves else 0.0,
        "qsolve.equilibrium.self_s": own("qsolve.equilibrium"),
        "qsolve.derivative.self_s": own("qsolve.derivative"),
        "subadd.asym.self_s": own("subadd.asym.lattice", "subadd.asym.generic"),
        "subadd.lattice.self_s": summary["subadd_class_self_s"]["lattice"],
        "subadd.generic.self_s": summary["subadd_class_self_s"]["generic"],
        "subadd.step.calls": calls("subadd.step"),
        "subadd.step.self_s": own("subadd.step"),
        "subadd.log_value.self_s": own("subadd.log_value"),
        "subadd.buckets_max": ctr.get("subadd.buckets_max", 0.0),
        "subadd.phi_n.calls": calls("subadd.phi_n"),
        "subadd.phi_n.self_s": own("subadd.phi_n"),
        "variational.scan.calls": scans,
        "variational.scan_k1.self_s": own("variational.scan_k1"),
        "variational.scan_k2.self_s": own("variational.scan_k2"),
        "variational.refined_frac": ctr.get("variational.refined", 0.0) / scans if scans else 0.0,
        "variational.surface.self_s": own("variational.surface"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = prefixed(f"{layer}.")
    out["trace.spans"] = summary["spans"]
    return out


def _main(argv: list[str]) -> int:
    """Trace one CLI invocation; write the span summary to argv[0]."""
    out_path, cli_args = argv[0], argv[1:]
    from qthermo import cli

    tracer = Tracer()
    tracer.install(targets())
    try:
        code = cli.main(cli_args)
    finally:
        tracer.uninstall()
    with open(out_path, "w") as fh:
        json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
