"""Tests of the benchmark itself.

Run from the repository root with

    python3 -m pytest -q bench/selftest.py

The file name keeps these tests out of the package's own test run; the last
test runs one round of every workload (about forty seconds).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import layer_metrics, metric_names, self_times  # noqa: E402

WORKLOADS = sorted(workloads.SLOTS)


@pytest.fixture(scope="module")
def refs():
    with open(run.REFS) as fh:
        return json.load(fh)["values"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_list_and_seeds_differ(workload):
    a = workloads.request_list(workload, 7, 2)
    assert a == workloads.request_list(workload, 7, 2)
    assert a != workloads.request_list(workload, 8, 2)
    assert len(a) == 2 * len(workloads.SLOTS[workload])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_drawn_requests_come_from_the_pool(workload):
    pool = {repr(sorted(r.items())) for r in workloads.pool(workload)}
    for seed in range(5):
        for req in workloads.request_list(workload, seed, 3):
            item = {k: v for k, v in req.items() if k != "slot"}
            assert repr(sorted(item.items())) in pool


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_pool_item_has_a_reference(workload, refs):
    for req in workloads.pool(workload):
        missing = [k for k in workloads.component_keys(req) if k not in refs]
        assert not missing, (req, missing)
        for value, tol in workloads.expected(req, refs).values():
            assert np.isfinite(value) and tol > 0


def test_tail_probe_is_referenced_and_outside_the_timed_list(refs):
    ladder = {repr(sorted(r.items())) for r in workloads.pool("ladder")}
    for req in workloads.TAIL_PROBE:
        assert all(k in refs for k in workloads.component_keys(req)), req
        assert repr(sorted(req.items())) not in ladder


def test_self_time_on_a_synthetic_tree():
    # a[0,10] holds b[1,4] and c[5,6]; b holds d[2,3]; e[5.5,7] overlaps c
    names = ["a", "b", "c", "d", "e"]
    start = [0.0, 1.0, 5.0, 2.0, 5.5]
    end = [10.0, 4.0, 6.0, 3.0, 7.0]
    parent = [-1, 0, 0, 1, 0]
    got = self_times(start, end, parent)
    # a loses the union [1,4] + [5,7] = 5, not the 3 + 1 + 1.5 of the parts
    assert got.tolist() == pytest.approx([5.0, 2.0, 1.0, 1.0, 1.5])
    spans = {"names": ["specfun.bell_partial", "specfun.poly_power"],
             "name_id": np.array([1, 0, 0, 1, 0]), "start": np.array(start),
             "end": np.array(end), "parent": np.array(parent)}
    layers = layer_metrics(spans, {"cli.run.nonzero_exits": 2})
    assert layers["specfun.poly_power.calls"] == 2
    assert layers["specfun.poly_power.self_s"] == pytest.approx(5.0 + 1.0)
    assert layers["specfun.bell_partial.self_s"] == pytest.approx(2.0 + 1.0 + 1.5)
    assert layers["cli.run.nonzero_exits"] == 2
    assert layers["oracle.renyi_full.calls"] == 0
    assert set(layers) == {name for name, _ in metric_names()}


def test_tail_latency_keeps_ten_samples_beyond():
    value, pct, beyond = run.tail_latency([float(i) for i in range(100)])
    assert (value, pct, beyond) == (89.0, 90.0, 10)
    assert run.tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_benchmark_config_lists_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        cfg = json.load(fh)
    assert {w["name"] for w in cfg["workloads"]} == set(WORKLOADS)
    layer = {(m["name"], m["unit"]) for m in cfg["per_layer"]}
    assert set(metric_names()) <= layer
    assert {("radial.tail_probe.checked", "count"),
            ("radial.tail_probe.misses", "count")} <= layer
    e2e = {m["name"] for m in cfg["end_to_end"]}
    assert e2e == {"setup_s", "values_per_s", "latency_p50_s", "latency_tail_s",
                   "peak_rss_mb"}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "grid",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# designated functions: (metric, predicate) per workload; a wrapper that
# misses its target shows up here as a zero count
DESIGNATED = {
    "ladder": [
        ("specfun.laguerre_orthonormal_weighted.calls", lambda v: v > 0),
        ("radial.laguerre_norm.route_quadrature", lambda v: v > 0),
        ("radial.shannon_radial_exact.calls", lambda v: v > 0),
        ("rydberg.renyi_radial_asymptotic.calls", lambda v: v > 0),
        ("specfun.bell_partial.calls", lambda v: v == 0),
        ("specfun.poly_power.calls", lambda v: v == 0),
        ("angular.renyi_angular.calls", lambda v: v == 0),
        ("cli.run.calls", lambda v: v == 0),
    ],
    "grid": [
        ("cli.run.calls", lambda v: v > 0),
        ("specfun.bell_partial.calls", lambda v: v > 0),
        ("specfun.poly_power.calls", lambda v: v > 0),
        ("specfun.integrate.calls", lambda v: v > 0),
        ("specfun.gegenbauer_eval.calls", lambda v: v > 0),
        ("angular.renyi_angular.route_linearization", lambda v: v > 0),
        ("angular.shannon_angular.calls", lambda v: v > 0),
        ("entropy.renyi_total.calls", lambda v: v > 0),
        ("entropy.shannon_total.calls", lambda v: v > 0),
        ("entropy.uncertainty_sum.calls", lambda v: v > 0),
        ("entropy.disequilibrium.calls", lambda v: v > 0),
        ("radial.laguerre_norm.route_symbolic", lambda v: v > 0),
        ("oracle.renyi_full.calls", lambda v: v == 0),
        ("rydberg.bessel_constant.calls", lambda v: v == 0),
    ],
    "certify": [
        ("oracle.renyi_full.calls", lambda v: v > 0),
        ("oracle.shannon_full.calls", lambda v: v > 0),
        ("specfun.laguerre_eval.calls", lambda v: v > 0),
        ("specfun.gegenbauer_roots.calls", lambda v: v > 0),
        ("entropy.renyi_total.calls", lambda v: v > 0),
        ("entropy.shannon_total.calls", lambda v: v > 0),
        ("cli.run.calls", lambda v: v == 0),
        ("specfun.bell_partial.calls", lambda v: v == 0),
    ],
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_each_workload_touches_its_designated_functions(workload):
    res = run.run_worker(workload, 3, 1, True, deadline=time.perf_counter() + 600)
    layers = res["layers"]
    for metric, ok in DESIGNATED[workload]:
        assert ok(layers[metric]), (metric, layers[metric])
    assert res["requests"] == len(res["latencies_s"]) == len(workloads.SLOTS[workload])
    assert not res["failures"], res["failures"]
    probe = workloads.TAIL_PROBE if workload == "ladder" else ()
    assert [t["request"] for t in res["tail_probe"]] == list(probe)
    if workload == "grid":
        # the exact-table workload never runs a high-degree recurrence
        degree = (layers["specfun.laguerre_orthonormal_weighted.point_degrees"]
                  / layers["specfun.laguerre_orthonormal_weighted.points"])
        assert degree <= 10
