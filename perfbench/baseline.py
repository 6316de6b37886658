"""Run the benchmark over seeds 1-10 and summarise each metric.

    python3 perfbench/baseline.py [--traced-seed 1] [--write perfbench/baseline.json]

Every workload of BENCHMARK.json runs ``run.py --trace 0`` once per seed,
for BENCHMARK.json's ``run_seconds``; with ``--traced-seed``, one
``--trace 1`` run per workload follows.  For every end-to-end metric it
prints, next to the metric's bound:

- ``seeds``: the median of the ten run values, their first and third
  quartiles (``statistics.quantiles(values, n=4)``) and the quartile
  distance as a share of the median.  Each seed is a different input, so
  this spread holds input variation as well as timing noise;
- ``passes``: the quartile distance of the pass values within one run, as
  a share of their median, and the median of that over the ten runs.  The
  passes of a run repeat one input, so this is timing noise alone.

``--write`` saves the summary, the per-seed output digests and the
per-layer metrics of the traced runs as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


SEEDS = list(range(1, 11))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads((BENCH / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def pass_spread(record: dict, name: str) -> float:
    """Quartile distance over median of one run's untraced pass values."""
    values = [p[name] if name in p else p["stages"][name]
              for p in record["passes"] if not p["traced"] and not p["aborted"]]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--traced-seed", type=int, default=None)
    ap.add_argument("--write", default=None)
    args = ap.parse_args()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary: dict = {"seconds": seconds, "seeds": SEEDS, "workloads": {}}
    for workload in [w["name"] for w in spec["workloads"]]:
        records = []
        for seed in SEEDS:
            rec = run(workload, seed, seconds, 0)
            records.append(rec)
            res = rec["result"]
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                  flush=True)
        entry = {
            "env": records[0]["env"],
            "correct": all(r["result"]["correct"] for r in records),
            "end_to_end": {name: spread([r["result"]["metrics"][name]["value"] for r in records])
                           | {"pass_spread": statistics.median(pass_spread(r, name)
                                                               for r in records)}
                           for name in bounds},
            "stage_only": {name: spread([r["stage_only"][name] for r in records])
                           for name, v in records[0]["stage_only"].items() if v},
            "quality": {name: {"median": statistics.median(v), "values": v}
                        for name in records[0]["quality"] if name != "failed_op_ratio"
                        for v in [[r["quality"][name] for r in records]]},
            "failed_op_ratio": max(r["quality"]["failed_op_ratio"] for r in records),
            "digests": {str(r["seed"]): r["digest"] for r in records},
        }
        for name, s in entry["end_to_end"].items():
            flag = "" if name == "setup_s" or s["spread"] < bounds[name] / 3 else "  <-- wide"
            print(f"  {name:14s} bound {bounds[name]}  seeds: median {s['median']:.4f} "
                  f"q1 {s['q1']:.4f} q3 {s['q3']:.4f} spread {s['spread']:.3f}  "
                  f"passes: spread {s['pass_spread']:.3f}{flag}", flush=True)
        if args.traced_seed is not None:
            traced = run(workload, args.traced_seed, seconds, 1)
            entry["traced_seed"] = args.traced_seed
            entry["per_layer"] = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
            entry["traced_correct"] = traced["result"]["correct"]
        summary["workloads"][workload] = entry
    if args.write:
        Path(args.write).write_text(json.dumps(summary, indent=1) + "\n", encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
