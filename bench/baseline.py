"""Collect result files from ``.bench_out/`` into ``baseline.json``.

    python3 bench/baseline.py --commit <sha> --seeds 301-310 --traced-seed 301

Expects ``<workload>-seed<s>-trace0.json`` for every seed and
``<workload>-seed<traced>-trace1.json`` for each workload, as ``run.py``
writes them.  For each end-to-end metric it records the median, the first and
third quartile and their distance as a share of the median; from the traced
run it records the tracing walls, each layer's share of the traced wall time
(shares of 0.001 and more) and every nonzero count.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from run import OUT_DIR  # noqa: E402


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _load(name: str) -> dict:
    with open(os.path.join(OUT_DIR, name)) as fh:
        return json.load(fh)


def summarise(workload: str, seeds: list[int], traced_seed: int) -> dict:
    runs = [_load(f"{workload}-seed{s}-trace0.json") for s in seeds]
    e2e = {}
    for name, rec in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        e2e[name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                     "spread": round((q3 - q1) / statistics.median(values), 4),
                     "unit": rec["unit"]}
    traced = _load(f"{workload}-seed{traced_seed}-trace1.json")
    metrics = {k: v["value"] for k, v in traced["metrics"].items()}
    shares = {k[:-len(".self_s")]: round(v, 4) for k, v in traced["shares"].items()
              if v >= 0.001}
    return {
        "seeds": seeds,
        "end_to_end": e2e,
        "failed_per_run": [len(r["failures"]) for r in runs],
        "attempted_per_run": len(runs[0]["extra"]["latencies_s"]),
        "latency_tail_percentile": runs[0]["extra"]["latency_tail_percentile"],
        "traced_seed": traced_seed,
        "trace": {"wall_s": metrics["trace.wall_s"],
                  "untraced_wall_s": metrics["trace.untraced_wall_s"],
                  "overhead_s": metrics["trace.overhead_s"],
                  "spans": traced["spans"]},
        "self_time_shares_of_traced_wall": dict(sorted(shares.items(),
                                                       key=lambda kv: -kv[1])),
        "counts": {k: v for k, v in metrics.items()
                   if not k.startswith("trace.") and not k.endswith("_s") and v},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--commit", required=True)
    ap.add_argument("--seeds", default="301-310")
    ap.add_argument("--traced-seed", type=int, default=301)
    ap.add_argument("--seconds", type=int, default=30)
    args = ap.parse_args(argv)
    seeds = _seeds(args.seeds)
    out = {"commit": args.commit, "run_seconds": args.seconds,
           "workloads": {w: summarise(w, seeds, args.traced_seed)
                         for w in workloads.SLOTS}}
    out["machine"] = _load(f"ladder-seed{seeds[0]}-trace0.json")["header"]
    with open(os.path.join(HERE, "baseline.json"), "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
