"""Span recording around the calls into each oscent layer.

``Tracer.install`` replaces module attributes such as
``oscent.specfun.bell_partial`` with timing wrappers.  Code inside the
package looks these names up on the module at call time (``specfun.x`` or a
module-global call), so internal calls are traced too.  The names
re-exported by ``oscent/__init__`` are bound at import and stay untraced,
which is why the benchmark calls through the submodules.

Spans are kept in flat in-memory arrays (name, start, end, parent, request)
and written once, when the run ends.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict

import numpy as np

# (module, function) pairs the traced run wraps; the per-layer metrics are
# named after them
TRACED = (
    ("specfun", "laguerre_orthonormal_weighted"),
    ("specfun", "laguerre_eval"),
    ("specfun", "poly_power"),
    ("specfun", "bell_partial"),
    ("specfun", "integrate"),
    ("specfun", "gegenbauer_eval"),
    ("specfun", "gegenbauer_roots"),
    ("specfun", "gauss_jacobi"),
    ("specfun", "gauss_legendre"),
    ("radial", "laguerre_norm"),
    ("radial", "shannon_radial_exact"),
    ("angular", "renyi_angular"),
    ("angular", "shannon_angular"),
    ("rydberg", "renyi_radial_asymptotic"),
    ("rydberg", "bessel_constant"),
    ("entropy", "renyi_total"),
    ("entropy", "shannon_total"),
    ("entropy", "uncertainty_sum"),
    ("entropy", "disequilibrium"),
    ("oracle", "renyi_full"),
    ("oracle", "shannon_full"),
    ("cli", "run"),
)

# extra statistics per traced function, beyond calls and self_s
EXTRA_STATS = {
    "specfun.laguerre_orthonormal_weighted": ("points", "point_degrees"),
    "specfun.laguerre_eval": ("points",),
    "radial.laguerre_norm": ("errors", "escalations", "route_symbolic",
                             "route_quadrature", "route_closed_n1"),
    "radial.shannon_radial_exact": ("errors",),
    "angular.renyi_angular": ("errors", "route_closed_form",
                              "route_linearization", "route_quadrature"),
    "oracle.renyi_full": ("errors",),
    "oracle.shannon_full": ("errors",),
    "cli.run": ("nonzero_exits",),
}

# functions whose self time is not reported (only their call count)
CALLS_ONLY = {"entropy.disequilibrium"}


def _laguerre_points(counts, name, args, kwargs, out):
    size = int(np.size(args[2] if len(args) > 2 else kwargs["x"]))
    counts[f"{name}.points"] += size
    if name.endswith("weighted"):
        counts[f"{name}.point_degrees"] += size * int(args[0])


def _norm_route(counts, name, args, kwargs, out):
    counts[f"{name}.route_{out.path}"] += 1
    if any("escalated" in w for w in out.warnings):
        counts[f"{name}.escalations"] += 1


def _angular_route(counts, name, args, kwargs, out):
    counts[f"{name}.route_{out.method}"] += 1


def _exit_code(counts, name, args, kwargs, out):
    if out != 0:
        counts[f"{name}.nonzero_exits"] += 1


ON_RESULT = {
    "specfun.laguerre_orthonormal_weighted": _laguerre_points,
    "specfun.laguerre_eval": _laguerre_points,
    "radial.laguerre_norm": _norm_route,
    "angular.renyi_angular": _angular_route,
    "cli.run": _exit_code,
}


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.counts: dict[str, int] = defaultdict(int)
        self.current_request = -1
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def wrap(self, module, attr: str, name: str):
        fn = getattr(module, attr)
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        on_result = ON_RESULT.get(name)
        counts = self.counts
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.request.append(self.current_request)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except Exception:
                counts[f"{name}.errors"] += 1
                raise
            finally:
                self.end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(counts, name, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        self._restore.append((module, attr, fn))
        setattr(module, attr, traced)

    def install(self, package) -> None:
        """Wrap every function in TRACED on the already imported package."""
        for mod_name, attr in TRACED:
            module = getattr(package, mod_name)
            self.wrap(module, attr, f"{mod_name}.{attr}")

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def spans(self) -> dict:
        return {"names": list(self.names),
                "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "request": np.frombuffer(self.request, dtype=np.int32).copy()}


def self_times(start, end, parent) -> np.ndarray:
    """Self time of every span: its duration minus the part its children cover.

    Children of one parent may in principle overlap (they never do in a
    single thread), so the covered part is the length of the union of the
    children's intervals clipped to the parent's.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent)
    out = end - start
    children = defaultdict(list)
    for i, par in enumerate(parent.tolist()):
        if par >= 0:
            children[par].append(i)
    for par, kids in children.items():
        lo_p, hi_p = start[par], end[par]
        covered = 0.0
        cur_lo = cur_hi = None
        for k in sorted(kids, key=lambda i: start[i]):
            lo, hi = max(start[k], lo_p), min(end[k], hi_p)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[par] -= covered
    return out


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in reporting order."""
    out = []
    for mod_name, attr in TRACED:
        name = f"{mod_name}.{attr}"
        out.append((f"{name}.calls", "count"))
        if name not in CALLS_ONLY:
            out.append((f"{name}.self_s", "s"))
        out.extend((f"{name}.{stat}", "count") for stat in EXTRA_STATS.get(name, ()))
    return out


def layer_metrics(tracer_spans: dict, counts: dict) -> dict:
    """Per-layer calls, self time and counters from one traced run."""
    names = tracer_spans["names"]
    nid = tracer_spans["name_id"]
    selfs = self_times(tracer_spans["start"], tracer_spans["end"],
                       tracer_spans["parent"])
    calls = np.bincount(nid, minlength=len(names)) if len(nid) else np.zeros(len(names))
    self_sum = (np.bincount(nid, weights=selfs, minlength=len(names))
                if len(nid) else np.zeros(len(names)))
    by_name = {n: (int(calls[i]), float(self_sum[i])) for i, n in enumerate(names)}
    out = {}
    for metric, _ in metric_names():
        base, stat = metric.rsplit(".", 1)
        if stat == "calls":
            out[metric] = by_name.get(base, (0, 0.0))[0]
        elif stat == "self_s":
            out[metric] = by_name.get(base, (0, 0.0))[1]
        else:
            out[metric] = int(counts.get(metric, 0))
    return out
