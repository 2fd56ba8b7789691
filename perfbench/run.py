"""qthermo benchmark: one seeded workload per invocation.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
The workload's inputs come from ``--seed`` alone.  Passes repeat until
``--seconds`` would be exceeded (at least one pass), and every output is
checked against an oracle (see ``workloads.py``).

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics named in ``BENCHMARK.json``, their times in seconds at the reference
speed of ``metronome.py``; with ``--trace 1`` it carries the
per-layer metrics of one traced pass, which follows the untraced passes, and
the tracing overhead against their median.  The line before it is a JSON report with
the run context, the workload's rationale and predictions, and any failures.

Load comes from this one process (and, for ``regression``, one CLI child at
a time) with the BLAS thread pools pinned to ``BLAS_THREADS``.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import inspect
import json
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import metronome

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
SETUP_PROBES = 15
PROBE_CHUNKS = 2  # reference chunks on each side of a setup probe
DEADLINE_S = 170.0  # every run must end well inside three minutes

_PROBE = (
    "import sys; sys.path.insert(0, {bench!r}); "
    "import qthermo, qthermo.cli, workloads; workloads.build({name!r}, {seed}); "
    "print('ready', flush=True)"
)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _setup_seconds(name: str, seed: int, env: dict, probes: int, met) -> list[tuple[float, float]]:
    """Fresh interpreter to ready: import qthermo and qthermo.cli, build the inputs.

    Each probe is bracketed by reference chunks run here, just before and
    just after it; returns (seconds at the reference speed, raw seconds).
    """
    code = _PROBE.format(bench=str(BENCH_DIR), name=name, seed=seed)
    out = []
    for _ in range(probes):
        before = met.mark()
        met.sample(PROBE_CHUNKS)
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            raw = time.perf_counter() - t0
            proc.stdout.read()
        met.sample(PROBE_CHUNKS)
        out.append((raw / metronome.speed(before, met.mark()), raw))
        if line != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return out


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _context(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "platform": platform.platform(),
    }


def _gate_bounds() -> dict[int, float]:
    """Wall-clock bound of each catalog criterion, read from cli.py's ``dt < X`` gate."""
    from qthermo import cli

    bounds = {}
    for fn in cli.ALL_CRITERIA:
        idx = int(fn.__name__.rsplit("_", 1)[1])
        found = re.findall(r"\bdt < ([0-9.eE+-]+)", inspect.getsource(fn.__wrapped__))
        if len(found) != 1:
            raise RuntimeError(f"criterion {idx}: expected one wall-clock gate, found {found}")
        bounds[idx] = float(found[0])
    return bounds


def _percentile_ms(lat: list[float], which: str) -> float:
    if which == "p50":
        return statistics.median(lat) * 1e3
    return statistics.quantiles(lat, n=10)[8] * 1e3 if len(lat) > 1 else lat[0] * 1e3


class Runner:
    """Runs passes of one workload in this process or, for regression, in CLI children.

    With ``met`` (a ``metronome.Metronome``, started around in-process
    passes) every pass and latency is in seconds at the reference speed, and ``speeds`` keeps each pass's
    slowdown against it; without it, they are raw seconds.
    """

    def __init__(self, name: str, seed: int, env: dict, tmpdir: str, deadline: float, met=None):
        import workloads

        self.name, self.deadline, self.met = name, deadline, met
        self.speeds: list[float] = []
        if name == "regression":
            self.regression = workloads.Regression(str(ROOT), env, tmpdir, metronome=met is not None)
            self.speeds = self.regression.speeds
        else:
            self.inputs = workloads.build(name, seed)
            self.pass_fn = workloads.PASS[name]

    def one(self, tally, trace_out: str | None = None) -> float:
        if self.name == "regression":
            return self.regression.run_pass(tally, trace_out, timeout=self.deadline - time.monotonic())
        if self.met is None:
            t0 = time.perf_counter()
            self.pass_fn(self.inputs, tally)
            return time.perf_counter() - t0
        first = len(tally.latency_s)
        tally.metronome = self.met
        before = self.met.mark()
        t0 = time.perf_counter()
        try:
            self.pass_fn(self.inputs, tally)
        finally:
            raw = time.perf_counter() - t0
            tally.metronome = None
        after = self.met.mark()
        speed = metronome.speed(before, after)
        self.speeds.append(speed)
        tally.latency_s[first:] = [s / speed for s in tally.latency_s[first:]]
        return metronome.normalized(raw, before, after)

    def repeat(self, tally, seconds: float) -> list[float]:
        """Passes until another one would overrun ``seconds`` (at least one)."""
        walls, raw = [], []
        t0 = time.monotonic()
        while True:
            p0 = time.monotonic()
            walls.append(self.one(tally))
            now = time.monotonic()
            raw.append(now - p0)
            nxt = now + statistics.median(raw)
            if nxt - t0 > seconds or nxt > self.deadline:
                return walls

    def peak_rss_mb(self) -> float:
        who = resource.RUSAGE_CHILDREN if self.name == "regression" else resource.RUSAGE_SELF
        return resource.getrusage(who).ru_maxrss / 1024.0


def _traced(runner: Runner, tally, tmpdir: str) -> tuple[float, dict]:
    """One traced pass: its wall seconds and span summary."""
    import tracer

    if runner.name == "regression":
        out = os.path.join(tmpdir, "spans.json")
        wall = runner.one(tally, trace_out=out)
        with open(out) as fh:
            return wall, json.load(fh)
    tr = tracer.Tracer()
    tr.install(tracer.targets())
    try:
        wall = runner.one(tally)
    finally:
        tr.uninstall()
    return wall, tr.summary()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "qthermo" / "__init__.py").is_file():
        sys.stderr.write(f"error: no qthermo sources under {SRC}\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.stderr.write(f"error: unknown workload {args.workload!r}\n")
        return 2
    sys.path.insert(0, str(SRC))
    env = _child_env()

    import qthermo
    import workloads

    if Path(qthermo.__file__).resolve().parent != (SRC / "qthermo").resolve():
        sys.stderr.write(f"error: qthermo imported from {qthermo.__file__}, not {SRC}\n")
        return 2

    tmpdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        tally = workloads.Tally()
        report = {
            "context": _context(args.seed),
            "workload": args.workload,
            "why": workloads.WHY[args.workload],
            "operation": workloads.TIMED_OP[args.workload],
            "predictions": workloads.PREDICTIONS[args.workload],
        }
        if args.trace == 0:
            met = metronome.Metronome()
            # half the cold starts before the passes and half after
            setup = _setup_seconds(args.workload, args.seed, env, SETUP_PROBES // 2, met)
            runner = Runner(args.workload, args.seed, env, tmpdir, deadline, met)
            # the regression CLI child runs a metronome of its own
            in_process = args.workload != "regression"
            if in_process:
                met.start()
            try:
                walls = runner.repeat(tally, args.seconds)
            finally:
                if in_process:
                    met.stop()
            setup += _setup_seconds(args.workload, args.seed, env,
                                    SETUP_PROBES - SETUP_PROBES // 2, met)
            lat = tally.latency_s
            values = {
                "wall_s": statistics.median(walls),
                "setup_s": statistics.median(s for s, _ in setup),
                "peak_rss_mb": runner.peak_rss_mb(),
                "op_p50_ms": _percentile_ms(lat, "p50"),
                "op_p90_ms": _percentile_ms(lat, "p90"),
            }
            report.update(pass_wall_s=walls, pass_speed=runner.speeds,
                          setup_probe_s=[s for s, _ in setup],
                          setup_probe_raw_s=[raw for _, raw in setup],
                          ref_chunk_s=metronome.REF_CHUNK_S, timed_ops=len(lat))
            kind = "end_to_end"
        else:
            import tracer

            runner = Runner(args.workload, args.seed, env, tmpdir, deadline)
            untraced = statistics.median(runner.repeat(tally, args.seconds))
            # criterion seconds come from an untraced pass, so tracing does
            # not inflate them
            crit_s = {}
            bounds = _gate_bounds()
            if args.workload == "regression":
                payload = runner.regression.last_payload or {}
                crit_s = {c["criterion"]: c["seconds"] for c in payload.get("criteria", [])}
                runner.regression.time_gates = bounds
            wall, summary = _traced(runner, tally, tmpdir)
            values = tracer.layer_metrics(summary)
            for layer in tracer.LAYERS:
                values[f"{layer}.share"] = 100.0 * values[f"{layer}.self_s"] / wall
            for idx, bound in bounds.items():
                values[f"cli.crit{idx}_s"] = crit_s.get(idx, 0.0)
                values[f"cli.gate{idx}_ratio"] = crit_s.get(idx, 0.0) / bound
            values["trace.wall_s"] = wall
            values["trace.overhead_s"] = wall - untraced
            report.update(untraced_wall_s=untraced, traced_wall_s=wall, spans=summary["spans"],
                          gate_bounds_s=bounds)
            kind = "per_layer"

        declared = {m["name"]: m["unit"] for m in spec[kind]}
        if set(values) != set(declared):
            raise RuntimeError(f"metrics {sorted(set(values) ^ set(declared))} "
                               f"differ from BENCHMARK.json {kind}")
        report.update(
            fail_frac={"value": tally.failed / tally.attempted, "unit": "fraction"},
            raised=list(tally.raised.values())[:20],
            wrong=list(tally.wrong.values())[:20],
            known_defect=list(tally.known.values())[:20],
        )
        print(json.dumps(report))
        print(json.dumps({
            "correct": tally.correct,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": float(values[k]), "unit": declared[k]} for k in declared},
        }))
        return 0
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
