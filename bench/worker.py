"""One closed-loop pass over a seeded request list, in a fresh interpreter.

Started by ``run.py``; prints one JSON object on standard output.  One client
sends the next request only after the previous one returns, and the worker
starts no threads of its own.  Every output is checked against the stored
reference right after its latency is taken.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibration  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402


def _openblas_threads():
    import numpy
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return getattr(lib, sym)()
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_header() -> dict:
    import numpy as np
    import scipy
    ld = np.finfo(np.longdouble)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": _openblas_threads(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS",
                                                 "OMP_NUM_THREADS") if k in os.environ},
        # the Laguerre kernel relies on the 80-bit x87 long double
        "longdouble": {"dtype": str(ld.dtype), "precision": int(ld.precision),
                       "eps": float(ld.eps), "mantissa_bits": int(ld.nmant) + 1},
    }


def _executor(lib):
    radial, rydberg, entropy, oracle, cli = lib
    from oscent.radial import QuantumState

    def run(req):
        fn = req.get("fn") or req.get("cmd")
        if fn == "renyi":
            return radial.renyi_radial_exact(QuantumState(req["n"], req["l"], 0),
                                             None, workloads.fnum(req["p"]))
        if fn == "shannon":
            return radial.shannon_radial_exact(QuantumState(req["n"], req["l"], 0))
        if fn == "asymptotic":
            return rydberg.renyi_radial_asymptotic(req["n"], req["l"], None,
                                                   workloads.fnum(req["p"]))
        if fn == "certify":
            state = QuantumState(req["n"], req["l"], req["m"])
            p = workloads.fnum(req["p"])
            if p == 1.0:
                return oracle.shannon_full(state), entropy.shannon_total(state).total
            return (oracle.renyi_full(state, None, p),
                    entropy.renyi_total(state, None, p).total)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(workloads.grid_argv(req))
        if code != 0:
            raise RuntimeError(f"exit {code}: {err.getvalue().strip()}")
        return json.loads(out.getvalue())

    return run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.SLOTS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, required=True)
    ap.add_argument("--refs", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans-out")
    args = ap.parse_args(argv)

    import oscent
    import oscent.cli
    from oscent import cli, entropy, oracle, radial, rydberg

    with open(args.refs) as fh:
        refs = json.load(fh)["values"]
    requests = workloads.request_list(args.workload, args.seed, args.rounds)
    run = _executor((radial, rydberg, entropy, oracle, cli))
    tracer = Tracer()
    if args.trace:
        tracer.install(oscent)

    latencies, failures, kernel_s = [], [], []
    clock = time.perf_counter
    loop_start = clock()
    last_kernel = -calibration.INTERVAL_S
    kernel_total = 0.0
    for i, req in enumerate(requests):
        if clock() - last_kernel >= calibration.INTERVAL_S:
            k0 = clock()
            kernel_s.append(calibration.kernel())
            last_kernel = clock()
            kernel_total += last_kernel - k0
        tracer.current_request = i
        t0 = clock()
        try:
            out = run(req)
        except Exception as exc:  # a failed request is counted, not fatal
            latencies.append(clock() - t0)
            failures.append({"index": i, "request": req,
                             "problems": [f"{type(exc).__name__}: {exc}"],
                             "traceback": traceback.format_exc(limit=3)})
            continue
        latencies.append(clock() - t0)
        problems = workloads.compare(req, out, refs)
        if problems:
            failures.append({"index": i, "request": req, "problems": problems})
    end = clock()
    wall = end - loop_start - kernel_total
    tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # untimed and untraced: requests that show a known defect of the
    # package, reported apart from the timed list's failures
    probe = []
    if args.workload == "ladder":
        for req in workloads.TAIL_PROBE:
            try:
                problems = workloads.compare(req, run(req), refs)
            except Exception as exc:
                problems = [f"{type(exc).__name__}: {exc}"]
            probe.append({"request": req, "problems": problems})

    result = {
        "header": machine_header(),
        "requests": len(requests),
        "wall_s": wall,
        "kernel_s": kernel_s,
        "latencies_s": latencies,
        "failures": failures,
        "tail_probe": probe,
        "peak_rss_mb": peak_rss_mb,
    }
    if args.trace:
        spans = tracer.spans()
        result["layers"] = layer_metrics(spans, tracer.counts)
        result["spans"] = len(spans["start"])
        if args.spans_out:
            import numpy as np
            np.savez_compressed(args.spans_out, names=np.array(spans["names"]),
                                **{k: v for k, v in spans.items() if k != "names"})
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
