"""End-to-end checks of the command line front end."""

import csv
import importlib
import io
import json
import math
import os
import pkgutil
import random
import signal
import subprocess
import sys
import time

import pytest

import oscent
from oscent import angular, entropy, radial
from oscent.cli import _cmd_total, build_parser, run
from oscent.radial import OscillatorParams, QuantumState


@pytest.mark.parametrize("name", ["oscent", *(f"oscent.{m.name}" for m in
                                             pkgutil.iter_modules(oscent.__path__))])
def test_every_all_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def invoke_json(capsys, *argv):
    code, out = invoke(capsys, *argv)
    return code, json.loads(out)


def invoke_csv(capsys, *argv):
    code, out = invoke(capsys, *argv)
    return code, list(csv.DictReader(io.StringIO(out)))


def test_angular_worked_example(capsys):
    code, payload = invoke_json(capsys, "angular", "--l", "1", "--m", "0",
                                "--p", "2")
    assert code == 0
    assert payload["version"]
    assert payload["request"]["command"] == "angular"
    rec = payload["results"][0]
    assert rec["lambda_value"] == pytest.approx(9.0 / (20.0 * math.pi),
                                                rel=1e-12)
    assert rec["renyi"] == pytest.approx(math.log(20.0 * math.pi / 9.0),
                                         rel=1e-12)
    assert rec["method"] == "closed_form"


def test_angular_shannon_branch(capsys):
    code, payload = invoke_json(capsys, "angular", "--l", "1", "--m", "1",
                                "--p", "1")
    assert code == 0
    rec = payload["results"][0]
    assert rec["shannon"] == pytest.approx(
        math.log(2.0 * math.pi / 3.0) + 5.0 / 3.0, abs=1e-9)


@pytest.mark.parametrize("m,method", [(3, "closed_form"), (0, "quadrature")])
def test_angular_shannon_names_its_route(capsys, m, method):
    code, payload = invoke_json(capsys, "angular", "--l", "3", "--m", str(m),
                                "--p", "1")
    assert code == 0
    assert payload["results"][0]["method"] == method


def test_angular_odd_power_reports_quadrature(capsys):
    code, payload = invoke_json(capsys, "angular", "--l", "2", "--m", "0",
                                "--p", "1.5")
    assert code == 0
    rec = payload["results"][0]
    assert rec["method"] == "quadrature"
    assert rec["lambda_value"] == 0.388328214542788
    assert "signed_power_value" not in rec
    assert payload["warnings"] == []


def test_total_odd_power_envelope_has_no_warning(capsys):
    code, payload = invoke_json(capsys, "total", "--n", "1", "--l", "2",
                                "--m", "0", "--p", "2.5")
    assert code == 0
    assert payload["warnings"] == []


@pytest.mark.parametrize("p,quantity", [("1", "total-shannon"),
                                        ("1.0000000000001", "total-shannon"),
                                        ("1.00002", "total-renyi")])
def test_total_shannon_point(capsys, p, quantity):
    code, payload = invoke_json(capsys, "total", "--n", "3", "--l", "2",
                                "--p", p)
    assert code == 0
    assert payload["results"][0]["quantity"] == quantity


@pytest.mark.parametrize("p", ["1.000000000002", "1.0000001", "0.999999"])
def test_near_unity_band_exits_2(capsys, p):
    assert run(["total", "--n", "3", "--l", "2", "--p", p]) == 2
    err = capsys.readouterr().err
    assert "near-1 band" in err and "Traceback" not in err


def test_radial_csv_and_bits(capsys):
    code, rows = invoke_csv(capsys, "radial", "--n", "1", "--l", "0",
                            "--p", "2", "--format", "csv")
    assert code == 0
    assert rows[0]["path"] == "gauss_laguerre"
    nats = float(rows[0]["renyi"])
    code, rows = invoke_csv(capsys, "radial", "--n", "1", "--l", "0",
                            "--p", "2", "--format", "csv", "--bits")
    assert float(rows[0]["renyi"]) == pytest.approx(nats / math.log(2.0),
                                                    rel=1e-12)
    # norms are not entropies and must not be rescaled by --bits
    assert float(rows[0]["norm_value"]) == pytest.approx(0.255572398382168,
                                                         rel=1e-12)


def test_total_command_with_extras(capsys):
    code, payload = invoke_json(capsys, "total", "--n", "0", "--l", "0",
                                "--m", "0", "--p", "2", "--tsallis",
                                "--disequilibrium")
    assert code == 0
    rec = payload["results"][0]
    assert rec["total"] == pytest.approx(1.5 * math.log(2.0 * math.pi),
                                         rel=1e-12)
    assert rec["disequilibrium"] == pytest.approx((2.0 * math.pi) ** -1.5,
                                                  rel=1e-10)
    assert rec["tsallis"] == pytest.approx(
        -math.expm1(-rec["total"]), rel=1e-10)


def test_asymptotic_command(capsys):
    code, payload = invoke_json(capsys, "asymptotic", "--n", "100", "--l",
                                "0", "--p", "2")
    assert code == 0
    rec = payload["results"][0]
    assert rec["regime"] == "bessel"
    assert rec["leading_exponent"] == pytest.approx(0.5)


def test_uncertainty_shannon_bits(capsys):
    code, payload = invoke_json(capsys, "uncertainty", "--n", "0", "--l", "0",
                                "--kind", "shannon", "--bits")
    assert code == 0
    rec = payload["results"][0]
    want = 3.0 * (1.0 + math.log(math.pi)) / math.log(2.0)
    assert rec["sum"] == pytest.approx(want, rel=1e-12)
    assert rec["saturated"] is True


def test_uncertainty_nonconjugate_flag(capsys):
    code, _ = invoke(capsys, "uncertainty", "--n", "0", "--l", "0",
                     "--p", "1.5", "--q", "3")
    assert code == 2
    code, payload = invoke_json(capsys, "uncertainty", "--n", "0", "--l", "0",
                                "--p", "1.5", "--q", "3",
                                "--allow-nonconjugate")
    assert code == 0
    assert payload["warnings"]


def test_verify_suite(capsys):
    code, payload = invoke_json(capsys, "verify", "--suite", "angular")
    assert code == 0
    assert all(rec["status"] == "pass" for rec in payload["results"])


def test_sweep_convergence_table(capsys):
    code, rows = invoke_csv(capsys, "sweep", "--quantity", "radial-renyi",
                            "--p", "2", "--n", "30,60", "--l", "0",
                            "--format", "csv")
    assert code == 0
    assert [int(r["n"]) for r in rows] == [30, 60]
    ratios = [abs(float(r["norm_ratio"]) - 1.0) for r in rows]
    assert ratios[1] < ratios[0]


def test_sweep_total_matches_single_points(capsys):
    _, rows = invoke_csv(capsys, "sweep", "--quantity", "total-renyi", "--p",
                         "2", "--n", "0,1,2", "--l", "1", "--m", "0",
                         "--format", "csv")
    assert [int(r["n"]) for r in rows] == [0, 1, 2]
    for r in rows:
        _, single = invoke_csv(capsys, "total", "--n", r["n"], "--l", "1",
                               "--p", "2", "--format", "csv")
        assert r["total"] == single[0]["total"]


def test_usage_errors_exit_64(capsys):
    assert run(["radial", "--no-such-flag"]) == 64
    assert run(["sweep", "--quantity", "radial-renyi", "--p", "2",
                "--n", "", "--l", "0"]) == 64
    assert run(["nosuchcommand"]) == 64
    assert run([]) == 64


def total_record(*argv):
    """The unrounded record of `oscent total`."""
    return _cmd_total(build_parser().parse_args(["total", *argv]))[0]


@pytest.mark.parametrize("extra,added", [
    ((), 0),
    (("--p", "3"), 2),
    (("--mode", "asymptotic"), 1),
    (("--space", "momentum"), 0),
])
def test_disequilibrium_reuses_an_order_two_total(fresh_components, extra, added):
    # <rho> = exp(-R_2) takes the radial and angular parts at p = 2 from the
    # component caches: an exact p = 2 total has computed both, in either
    # space; at p = 3 both are new, and an asymptotic total leaves the exact
    # radial part to compute
    def misses(*argv):
        fresh_components()
        total_record("--n", "3", "--l", "1", "--m", "1", "--p", "2", *argv, *extra)
        return sum(cache.cache_info().misses for cache in (
            radial._laguerre_norm, radial._shannon_log_integral,
            angular._renyi_angular, angular._shannon_angular))

    assert misses("--disequilibrium") - misses() == added


@pytest.mark.parametrize("p,extra", [("2", "--tsallis"), ("2", "--disequilibrium"),
                                     ("3", "--disequilibrium")])
def test_total_extras_past_the_float_range_print_null(capsys, p, extra):
    # at lam = 1e300 the total is about -1033: e^1033 has no float
    code, payload = invoke_json(capsys, "total", "--n", "1", "--l", "1", "--p", p,
                                extra, "--lam", "1e300")
    assert code == 0
    rec = payload["results"][0]
    assert math.isfinite(rec["total"])
    assert rec[extra[2:]] is None


def test_disequilibrium_from_total_is_bitwise_unchanged():
    for n, l, m, lam in ((0, 0, 0, 1.0), (3, 1, 1, 1.0), (5, 2, 0, 1.7)):
        rec = total_record("--n", str(n), "--l", str(l), "--m", str(m),
                           "--p", "2", "--lam", str(lam), "--disequilibrium")
        want = entropy.disequilibrium(QuantumState(n, l, m),
                                      OscillatorParams(lam))
        assert rec["disequilibrium"] == want


def test_domain_errors_exit_2(capsys):
    assert run(["radial", "--n", "1", "--l", "0", "--p", "-1"]) == 2
    assert run(["angular", "--l", "2", "--m", "5", "--p", "2"]) == 2
    capsys.readouterr()
    # the Shannon rows come only from the sweep that is labelled for them
    assert run(["sweep", "--quantity", "radial-renyi", "--n", "3",
                "--p", "1"]) == 2
    assert "radial-shannon" in capsys.readouterr().err


@pytest.mark.parametrize("argv,code", [
    (["radial", "--n", "1", "--l", "0", "--p", "inf"], 2),
    (["total", "--n", "1", "--l", "0", "--p", "1e308"], 2),
    (["uncertainty", "--n", "0", "--l", "0", "--p", "0.5"], 2),
    (["radial", "--n", "1", "--l", "0", "--p", "2", "--rtol", "-1"], 64),
    (["radial", "--n", "1", "--l", "0", "--p", "2", "--rtol", "0"], 64),
    (["angular", "--l", "1", "--p", "2", "--rtol", "1e-8"], 64),
    (["total", "--n", "1", "--l", "0", "--p", "2", "--rtol", "1e-8"], 64),
    (["sweep", "--quantity", "radial-renyi", "--n", "3,4", "--l", "1,2"], 64),
    (["sweep", "--quantity", "total-renyi", "--n", "1", "--l", "x"], 64),
    (["sweep", "--quantity", "total-renyi", "--n", "0,1", "--l", "0",
      "--jobs", "2"], 64),
    (["total", "--n", "3", "--l", "2", "--p", "1.0000001"], 2),
    (["radial", "--n", "1", "--l", "0", "--p", "1.5", "--path", "closed_n1"], 2),
    (["angular", "--l", "4", "--m", "0", "--p", "0.99999"], 2),
    (["radial", "--n", "3", "--l", "0", "--p", "0.7", "--rtol", "1e-6"], 64),
    (["sweep", "--quantity", "radial-renyi", "--n", "3,4", "--l", "0",
      "--p", "2", "--rtol", "1e-6"], 64),
    (["radial", "--n", "3", "--l", "0", "--p", "1", "--path", "symbolic"], 2),
    (["radial", "--n", "3", "--l", "0", "--p", "1", "--path", "closed_n1"], 2),
    (["sweep", "--quantity", "radial-renyi", "--n", "3,4", "--l", "0",
      "--p", "1"], 2),
    (["sweep", "--quantity", "radial-renyi", "--n", "3", "--l", "0", "--m", "5",
      "--mode", "asymptotic"], 64),
    (["sweep", "--quantity", "angular-renyi", "--l", "2", "--m", "1",
      "--n", "7,8"], 64),
    # at p = 1e300 the angular panels need more than 6000 slices
    (["angular", "--l", "5", "--m", "0", "--p", "1e300"], 3),
])
def test_bad_inputs_exit_without_traceback(capsys, argv, code):
    assert run(argv) == code
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["radial", "--n", "5", "--l", "5", "--p", "1e300", "--path", "symbolic"],
    ["radial", "--n", "1", "--l", "0", "--p", "1e300", "--path", "closed_n1"],
])
def test_exact_routes_refuse_orders_they_never_finish(capsys, argv):
    # 2p = 2e300 is an even integer, and the rational powers would take 2p steps
    start = time.perf_counter()
    assert run(argv) == 2
    assert time.perf_counter() - start < 1.0
    assert "--path auto" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["radial", "--n", "1", "--l", "3500", "--p", "1.3"],
    ["radial", "--n", "1", "--l", "3500", "--p", "1"],
    ["total", "--n", "1", "--l", "3500", "--m", "3500", "--p", "1.3"],
    ["angular", "--l", "1000", "--m", "500", "--p", "2.5"],
    ["angular", "--l", "1000", "--m", "500", "--p", "1"],
    ["asymptotic", "--n", "100", "--l", "160", "--p", "8"],
    ["asymptotic", "--n", "100", "--l", "300", "--p", "8"],
    ["asymptotic", "--n", "100", "--l", "3000", "--p", "8"],
    ["asymptotic", "--n", "100", "--l", "0", "--p", "1e4"],
    ["asymptotic", "--n", "100", "--l", "0", "--p", "1e5"],
    ["asymptotic", "--n", "100", "--l", "0", "--p", "1e6"],
    ["asymptotic", "--n", "100", "--l", "0", "--p", "3000"],
])
def test_large_quantum_numbers_exit_cleanly(capsys, argv):
    # a value, a domain error or an accuracy error, never a float warning
    # (an error here) or a traceback; underflowed sums and lost lobes raise
    assert run(argv) in (0, 2, 3)
    assert "Traceback" not in capsys.readouterr().err


def test_large_m_angular_shannon_returns(capsys):
    # the edge panels hold (1 -+ t)^(mp) varying by about e^37 here; sliced,
    # they settle at the first node count
    code, payload = invoke_json(capsys, "angular", "--l", "1000", "--m", "500",
                                "--p", "1")
    assert code == 0
    assert math.isfinite(payload["results"][0]["shannon"])


def closed_form_renyi(kind, l, p):
    """40-digit mpmath references: ln N_{0,l}(p) / (1 - p) - ln 2 for the
    radial n = 0 state ("radial"), ln Lambda / (1 - p) for the angular
    (l, l) ("ll") and (l, l-1) ("ll-1") states."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        p, half, lg = mpmath.mpf(p), mpmath.mpf(1) / 2, mpmath.loggamma
        ln2, lnpi = mpmath.log(2), mpmath.log(mpmath.pi)
        if kind == "radial":
            g = p * l + 3 * half
            return float((lg(g) - p * lg(l + 3 * half) - g * mpmath.log(p)) / (1 - p)
                         - ln2)
        if kind == "ll":
            log_lam = (((2 * l - 1) * p + 1) * ln2 + p * mpmath.log(l + half)
                       - (2 * p - 3 * half) * lnpi + 2 * p * lg(l + half)
                       + lg(l * p + 1) - p * lg(2 * l + 1) - lg(l * p + 3 * half))
        else:
            log_k = (mpmath.log(l + half) + 2 * mpmath.log(2 * l - 1)
                     + 2 * lg(l - half) - (3 - 2 * l) * ln2 - lg(2 * l) - 2 * lnpi)
            log_lam = (ln2 + lnpi + p * log_k + lg(p + half) + lg(p * (l - 1) + 1)
                       - lg(p * l + 3 * half))
        return float(log_lam / (1 - p))


def closed_form_argv(kind, l, p):
    head = {"radial": ["radial", "--n", "0", "--l", str(l)],
            "ll": ["angular", "--l", str(l), "--m", str(l)],
            "ll-1": ["angular", "--l", str(l), "--m", str(l - 1)]}[kind]
    return head + ["--p", repr(p)]


@pytest.mark.parametrize("kind,l,p", [("radial", 2, 900.0), ("ll", 5, 800.0)])
def test_large_orders_take_the_entropy_from_logs(capsys, kind, l, p):
    # the power integrals underflow to 0.0 beside a finite entropy
    code, payload = invoke_json(capsys, *closed_form_argv(kind, l, p))
    assert code == 0
    rec = payload["results"][0]
    assert rec.get("norm_value", rec.get("lambda_value")) == 0.0
    assert rec["renyi"] == pytest.approx(closed_form_renyi(kind, l, p), rel=0, abs=1e-14)


@pytest.mark.parametrize("kind,l,p", [("radial", 0, 1e-300), ("ll", 3000, 1000.0)])
def test_power_integrals_past_the_float_range_print_null(capsys, kind, l, p):
    # ln N = 1036 and ln Lambda = 1588 overflow a float; the entropies do not
    code, payload = invoke_json(capsys, *closed_form_argv(kind, l, p))
    assert code == 0
    rec = payload["results"][0]
    assert rec["norm_value" if kind == "radial" else "lambda_value"] is None
    assert rec["renyi"] == pytest.approx(closed_form_renyi(kind, l, p), rel=1e-14)


def test_large_order_quadrature_takes_the_entropy_from_logs(capsys):
    # the long-double panel sum holds Lambda = e^-974, which underflows a float
    code, payload = invoke_json(capsys, "angular", "--l", "4", "--m", "1", "--p", "700")
    assert code == 0
    rec = payload["results"][0]
    assert rec["method"] == "quadrature" and rec["lambda_value"] == 0.0
    assert math.isfinite(rec["renyi"])


@pytest.mark.parametrize("kind", ["radial", "ll", "ll-1"])
@pytest.mark.parametrize("l", [4, 20, 100])
@pytest.mark.parametrize("p", [1.0 + 1.01e-5, 1.0 - 1.01e-5])
def test_closed_forms_hold_their_digits_next_to_the_shannon_band(capsys, kind, l, p):
    # the entropy divides the rounding of ln N or ln Lambda by |1 - p| = 1e-5;
    # in float the closed forms were 2.5e-11 to 1.3e-8 off here
    code, payload = invoke_json(capsys, *closed_form_argv(kind, l, p))
    assert code == 0
    assert payload["results"][0]["renyi"] == pytest.approx(
        closed_form_renyi(kind, l, p), rel=0, abs=1e-11)


def child_env():
    # the child imports the same package as this process, installed or not
    src = os.path.dirname(os.path.dirname(oscent.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_import_leaves_out_scipy_integrate_and_optimize():
    # no production path needs them; together they cost a third of a second
    code = ("import sys, oscent, oscent.cli; "
            "print(sorted({'scipy.integrate', 'scipy.optimize'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_and_low_lying_one_shots_load_no_scipy():
    # a one-shot call pays for numpy only: scipy.linalg and scipy.special
    # each cost about a quarter of a second to import
    code = ("import sys, oscent, oscent.cli; "
            "scipy = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
            "print(scipy()); "
            "[oscent.cli.run(f'total --n 3 --l 2 --m 1 --p {p}'.split()) for p in ('2.5', '1')]; "
            "print(scipy(), file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[0] == "[]"
    assert proc.stderr.strip() == "[]"


def test_gauss_rules_above_64_nodes_load_no_scipy():
    # above 64 nodes a rule starts from its phase and float64 Newton passes
    # (specfun._start), numpy alone, up to the 3000 nodes of the largest radial rule
    code = ("import sys; from oscent import specfun; "
            "[specfun.gauss_laguerre(m, 0.5) for m in (65, 3000)]; "
            "[specfun.gauss_jacobi(m, 2.0, 2.0) for m in (65, 3000)]; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_leaves_out_scipy_special_until_a_large_n_name_is_used():
    # only oscent.rydberg's Bessel and zeta values need scipy.special at import
    code = ("import sys, oscent, oscent.cli; "
            "print(sorted({'scipy.special', 'oscent.rydberg'} & set(sys.modules))); "
            "print(callable(oscent.bessel_constant), 'oscent.rydberg' in sys.modules); "
            "ns = {}; exec('from oscent import *', ns); "
            "print([n for n in oscent.__all__ if n not in ns])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:3] == ["[]", "True True", "[]"]


def test_repeated_runs_share_one_parser(capsys):
    argv = ("total", "--n", "2", "--l", "1", "--m", "1", "--p", "2.5")
    first = invoke(capsys, *argv)
    second = invoke(capsys, *argv)
    assert first[0] == second[0] == 0
    assert first[1] == second[1]
    assert build_parser() is build_parser()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "oscent.cli", "angular", "--l", "0", "--m",
         "0", "--p", "3"], capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["results"][0]["renyi"] == pytest.approx(
        math.log(4.0 * math.pi), rel=1e-12)


def test_closed_output_pipe_exits_141_without_traceback():
    # ~220 kB of JSON, more than a pipe buffers, so the child is still
    # writing when the reader closes its end after the first line
    proc = subprocess.Popen(
        [sys.executable, "-m", "oscent.cli", "sweep", "--quantity",
         "angular-renyi", "--l", ",".join(["0"] * 1000), "--p", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    code = proc.wait(timeout=60)
    assert code == 141
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", ["radial --n 1 --l 0 --p 1e-320",
                                  "total --n 3 --l 2 --m 1 --p 1e-307",
                                  "sweep --quantity radial-renyi --n 3 --l 2 --p 5e-324"])
def test_tail_past_the_float_range_exits_3_without_traceback(argv):
    proc = subprocess.run([sys.executable, "-m", "oscent.cli", *argv.split()],
                          capture_output=True, text=True, env=child_env(), timeout=60)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr


def test_small_order_whose_rows_underflow_on_its_mass_exits_3(capsys):
    # both node counts lose the mass past x = 22,700 alike: this printed a
    # norm 6.9e-10 off with exit 0 before the underflow bound
    assert run(["radial", "--n", "1", "--l", "0", "--p", "0.001"]) == 3
    assert "rows underflow where the integrand" in capsys.readouterr().err


def test_laguerre_roots_whose_start_row_underflows_exit_3_fast(capsys):
    # the start row sqrt(w / mu0) of gauss_laguerre(n, 1/2) leaves long double
    # past x = 22,700, from about n = 5,700: the Newton steps there cannot
    # settle, and took 10.7 s to say so at n = 6000 and ran past 60 s at
    # n = 100,000.  The phase start knows the largest root before any O(n^2)
    # pass; n = 5600 still returns
    for n in (6000, 100_000):
        start = time.perf_counter()
        assert run(["radial", "--n", str(n), "--l", "0", "--p", "0.7"]) == 3
        assert time.perf_counter() - start < 2.0, n
        assert "start row sqrt(w / mu0) underflows" in capsys.readouterr().err
    code, payload = invoke_json(capsys, "radial", "--n", "5600", "--l", "0", "--p", "0.7")
    assert code == 0 and payload["results"][0]["path"] == "quadrature"


# ---------------------------------------------------------------------------
# a fixed-seed fuzz of the command line: each subcommand's own options, with
# its own values or edge values, and the common flags

_FUZZ_EDGES = ("-1", "x", "nan", "inf", "1e-300", "1e-320", "1e300", "1.000001", "", "0,1", "2,x,3")
_FUZZ_INT = ("0", "1", "2", "3", "5", "8")
_FUZZ_P = ("0.5", "0.7", "1", "1.5", "2", "2.5", "3", "4")
_FUZZ_OPTIONS = {  # subcommand: {option: own values}; a value-less option is a flag
    "angular": {"--l": _FUZZ_INT, "--m": _FUZZ_INT, "--p": _FUZZ_P},
    "radial": {"--n": _FUZZ_INT, "--l": _FUZZ_INT, "--p": _FUZZ_P,
               "--path": ("auto", "symbolic", "closed_n1", "quadrature")},
    "asymptotic": {"--n": ("1", "2", "50", "400"), "--l": _FUZZ_INT, "--p": _FUZZ_P},
    "total": {"--n": _FUZZ_INT, "--l": _FUZZ_INT, "--m": _FUZZ_INT, "--p": _FUZZ_P,
              "--mode": ("exact", "asymptotic"), "--space": ("position", "momentum"),
              "--tsallis": (), "--disequilibrium": ()},
    "uncertainty": {"--n": _FUZZ_INT, "--l": _FUZZ_INT, "--m": _FUZZ_INT, "--p": _FUZZ_P,
                    "--q": _FUZZ_P, "--kind": ("renyi", "shannon"),
                    "--mode": ("exact", "asymptotic"), "--allow-nonconjugate": ()},
    "sweep": {"--quantity": ("angular-renyi", "radial-renyi", "radial-shannon",
                             "total-renyi", "total-shannon"),
              "--n": ("1", "2,3", "0,1,2", "3,2"), "--l": ("0", "1", "2,3"),
              "--m": _FUZZ_INT, "--p": _FUZZ_P, "--mode": ("exact", "asymptotic")},
    "verify": {"--suite": ("angular", "radial", "total", "uncertainty")},
}


def _fuzz_argv(rng):
    command = rng.choice(list(_FUZZ_OPTIONS))
    argv = [command]
    for opt, own in _FUZZ_OPTIONS[command].items():
        if rng.random() < 0.9:
            argv.append(opt)
            if own:
                argv.append(rng.choice(own) if rng.random() < 0.8 else rng.choice(_FUZZ_EDGES))
    for extra in (["--bits"], ["--format", "csv"],
                  ["--lam", rng.choice(("0.5", "2", *_FUZZ_EDGES))]):
        if rng.random() < 0.2:
            argv += extra
    return argv


class _Overrun(Exception):
    pass


def _overrun(signum, frame):
    raise _Overrun


def test_fuzzed_command_lines_exit_cleanly(capsys):
    # every run returns a known exit status within 5 s; no exception escapes
    # run, and none may be a float warning, which the suite turns into errors
    rng, bad = random.Random(8), []
    old = signal.signal(signal.SIGALRM, _overrun)
    try:
        for _ in range(1000):
            argv = _fuzz_argv(rng)
            signal.setitimer(signal.ITIMER_REAL, 5.0)
            try:
                code = run(argv)
            except _Overrun:
                code = "over 5 s"
            except Exception as exc:  # noqa: BLE001 - reported with its argv
                code = repr(exc)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            capsys.readouterr()
            if code not in (0, 2, 3, 64):
                bad.append((" ".join(argv), code))
    finally:
        signal.signal(signal.SIGALRM, old)
    assert bad == []
