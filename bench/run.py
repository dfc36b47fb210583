"""oscent benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 bench/run.py --workload ladder --seed 1 --seconds 30 --trace 0

Run from the repository root.  ``--trace 0`` measures set-up time in fresh
interpreters, then runs the workload's seeded request list in another fresh
interpreter and prints the end-to-end metrics.  ``--trace 1`` runs the same
list twice more, untraced and traced, and prints the per-layer metrics and
the tracing overhead.  The last line of standard output is one JSON object;
everything before it is for people.  Each run also writes a result file
with the machine header under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
REFS = os.path.join(HERE, "refs.json")
sys.path.insert(0, HERE)

import calibration  # noqa: E402
import workloads  # noqa: E402
from tracing import metric_names  # noqa: E402

SETUP_SAMPLES = 5
# every run must end within 180 s; leave room for set-up and reporting
BUDGET_S = 170.0
SETUP_CODE = ("import sys, oscent, oscent.cli\n"
              "sys.stdout.write('ready\\n'); sys.stdout.flush()\n")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(deadline: float) -> tuple[list[float], list[float]]:
    """Seconds from interpreter start until oscent and oscent.cli are imported.

    Returns the raw samples and the reference-kernel times taken between them.
    """
    samples, kernel_s = [], []
    for _ in range(SETUP_SAMPLES):
        kernel_s += [calibration.kernel() for _ in range(3)]
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                                env=_env(), stdout=subprocess.PIPE)
        try:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            proc.stdout.close()
            proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError("set-up probe failed to import oscent")
    return samples, kernel_s


def run_worker(workload: str, seed: int, rounds: int, trace: bool,
               deadline: float, spans_out: str | None = None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--rounds", str(rounds), "--refs", REFS]
    if trace:
        cmd.append("--trace")
        if spans_out:
            cmd += ["--spans-out", spans_out]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def tail_latency(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  With ten samples or fewer
    the maximum is returned with nothing beyond it.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def speed_factor(kernel_s: list[float], exponent: float) -> float:
    """Scale from this machine's current speed to the reference speed."""
    return (calibration.REFERENCE_S / statistics.median(kernel_s)) ** exponent


def end_to_end(workload: str, setup: list[float], setup_kernel_s: list[float],
               res: dict) -> tuple[dict, dict]:
    lat = res["latencies_s"]
    tail, pct, beyond = tail_latency(lat)
    raw = {
        "setup_s": statistics.median(setup),
        "values_per_s": len(lat) / res["wall_s"],
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": tail,
    }
    run_f = speed_factor(res["kernel_s"], calibration.EXPONENT[workload])
    setup_f = speed_factor(setup_kernel_s, calibration.EXPONENT["setup"])
    metrics = {
        "setup_s": (raw["setup_s"] * setup_f, "s"),
        "values_per_s": (raw["values_per_s"] / run_f, "1/s"),
        "latency_p50_s": (raw["latency_p50_s"] * run_f, "s"),
        "latency_tail_s": (raw["latency_tail_s"] * run_f, "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    extra = {
        "fail_share": len(res["failures"]) / len(lat),
        "latency_tail_percentile": pct,
        "latency_tail_beyond": beyond,
        "latency_samples": len(lat),
        "speed_factor": run_f,
        "setup_speed_factor": setup_f,
        "raw": raw,
        "setup_samples_s": setup,
        "latencies_s": lat,
    }
    return metrics, extra


def _print_failures(failures: list[dict]) -> None:
    for f in failures:
        req = {k: v for k, v in f["request"].items() if k != "slot"}
        print(f"FAILED request {f['index']} ({f['request']['slot']}) {req}: "
              + "; ".join(f["problems"]))


def _print_tail_probe(probe: list[dict]) -> None:
    if not probe:
        return
    misses = [t for t in probe if t["problems"]]
    print(f"tail probe (untimed, outside the workload): {len(misses)} of {len(probe)} "
          "high-order radial values miss their reference (radial tail defect, ROADMAP.md)")
    for t in misses:
        print(f"  MISS {t['request']}: " + "; ".join(t["problems"]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="oscent benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.SLOTS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.perf_counter()
    deadline = start + BUDGET_S

    if not os.path.isfile(os.path.join(SRC, "oscent", "__init__.py")):
        print(f"error: no oscent sources under {SRC}", file=sys.stderr)
        return 2
    if not os.path.isfile(REFS):
        print(f"error: reference file {REFS} is missing", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2

    rounds = workloads.rounds_for(args.workload, args.seconds)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    os.makedirs(OUT_DIR, exist_ok=True)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "rounds": rounds, "loop": "closed, one client, no threads of our own"}

    if args.trace == 0:
        setup, setup_kernel_s = measure_setup(deadline)
        res = run_worker(args.workload, args.seed, rounds, False, deadline)
        metrics, extra = end_to_end(args.workload, setup, setup_kernel_s, res)
        report.update(header=res["header"], extra=extra, failures=res["failures"],
                      tail_probe=res["tail_probe"])
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value:.6g} {unit}")
        print(f"fail_share = {extra['fail_share']:.6g} (failed/attempted, "
              f"{len(res['failures'])}/{len(res['latencies_s'])})")
        print(f"latency_tail_s is the p{extra['latency_tail_percentile']:.4g} latency "
              f"of {extra['latency_samples']} samples, "
              f"{extra['latency_tail_beyond']} beyond it")
        print(f"timings scaled to the reference speed by {extra['speed_factor']:.4g} "
              f"(set-up {extra['setup_speed_factor']:.4g}); raw: "
              + ", ".join(f"{k} = {v:.6g}" for k, v in extra["raw"].items()))
        attempted, failed = len(res["latencies_s"]), len(res["failures"])
    else:
        spans_out = os.path.join(OUT_DIR, f"{tag}-spans.npz")
        base = run_worker(args.workload, args.seed, rounds, False, deadline)
        traced = run_worker(args.workload, args.seed, rounds, True, deadline, spans_out)
        layers = traced["layers"]
        metrics = {name: (layers[name], unit) for name, unit in metric_names()}
        # both walls at the reference speed, so the machine's drift between
        # the two runs does not pass for tracing cost
        exponent = calibration.EXPONENT[args.workload]
        traced_wall = traced["wall_s"] * speed_factor(traced["kernel_s"], exponent)
        base_wall = base["wall_s"] * speed_factor(base["kernel_s"], exponent)
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.untraced_wall_s"] = (base_wall, "s")
        metrics["trace.overhead_s"] = (traced_wall - base_wall, "s")
        probe = traced["tail_probe"]
        metrics["radial.tail_probe.checked"] = (len(probe), "count")
        metrics["radial.tail_probe.misses"] = (sum(bool(t["problems"]) for t in probe),
                                               "count")
        report.update(header=traced["header"], failures=traced["failures"],
                      tail_probe=traced["tail_probe"],
                      spans=traced["spans"], spans_file=os.path.relpath(spans_out, ROOT),
                      raw_walls_s={"traced": traced["wall_s"], "untraced": base["wall_s"]},
                      shares={name: value / traced["wall_s"]
                              for name, (value, unit) in metrics.items()
                              if name.endswith(".self_s")})
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value:.6g} {unit}")
        attempted, failed = len(traced["latencies_s"]), len(traced["failures"])
    _print_failures(report["failures"])
    _print_tail_probe(report["tail_probe"])

    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
