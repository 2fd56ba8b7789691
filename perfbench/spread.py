"""Run the benchmark over several seeds and report quartiles and run-to-run spread.

    python3 perfbench/spread.py --workloads solve scan --seeds 1-10 --out perfbench/BENCH_1.json
    python3 perfbench/spread.py --workloads regression --seeds 1-2 --trace --out perfbench/BENCH_1.json

Each seed is one run of ``run.py`` with ``run_seconds`` from BENCHMARK.json.
For every metric it records the ten (or however many) values, their
quartiles from ``statistics.quantiles(values, n=4)`` and the spread
(q3 - q1) / median, next to the bound BENCHMARK.json fixes.  Traced runs
add the median of each layer's share of the traced pass.  An existing
``--out`` file is updated in place, one workload and mode at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _stats(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[kind]}
    doc = json.loads(args.out.read_text()) if args.out and args.out.exists() else {}
    doc["seconds"] = spec["run_seconds"]
    for name in args.workloads:
        runs, report = [], None
        for seed in args.seeds:
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", "1" if args.trace else "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            *_, report_line, result_line = proc.stdout.strip().splitlines()
            report, result = json.loads(report_line), json.loads(result_line)
            runs.append({"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                         "failed": result["failed"],
                         **{k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={runs[-1][k]:.4g}" for k in bounds if k in ("wall_s", "setup_s", "op_p50_ms",
                                                                 "op_p90_ms", "peak_rss_mb",
                                                                 "trace.overhead_s")),
                flush=True)
        entry = doc.setdefault("workloads", {}).setdefault(name, {})
        context = dict(report["context"], seed=args.seeds)
        entry.update(why=report["why"], operation=report["operation"],
                     predictions=report["predictions"])
        entry[kind] = {
            "context": context,
            "runs": len(runs),
            "all_correct": all(r["correct"] for r in runs),
            "fail_frac": _stats([r["failed"] / r["attempted"] for r in runs]),
            "metrics": {m: dict(_stats([r[m] for r in runs]), bound=bounds[m]) for m in bounds},
        }
        for m in ("wall_s", "setup_s", "peak_rss_mb", "op_p50_ms", "op_p90_ms", "trace.overhead_s"):
            if m in bounds:
                s = entry[kind]["metrics"][m]
                print(f"  {m}: median {s['median']:.4g}  q1 {s['q1']:.4g}  q3 {s['q3']:.4g}  "
                      f"spread {s['spread']:.3f}  bound {bounds[m]}")
    if args.out:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
