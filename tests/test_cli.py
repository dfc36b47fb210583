"""End-to-end checks of the command line front end."""

import csv
import io
import json
import math
import os
import subprocess
import sys

import pytest

import oscent
from oscent import entropy
from oscent.cli import _cmd_total, build_parser, run
from oscent.radial import OscillatorParams, QuantumState


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


def test_radial_csv_and_bits(capsys):
    code, rows = invoke_csv(capsys, "radial", "--n", "1", "--l", "0",
                            "--p", "2", "--format", "csv")
    assert code == 0
    assert rows[0]["path"] == "symbolic"
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


@pytest.mark.parametrize("extra,calls", [
    ((), 1),
    (("--p", "3"), 2),
    (("--mode", "asymptotic"), 2),
    (("--space", "momentum"), 2),
])
def test_disequilibrium_reuses_an_order_two_total(monkeypatch, extra, calls):
    seen = []
    renyi_total = entropy.renyi_total

    def counting(*args, **kwargs):
        seen.append(args)
        return renyi_total(*args, **kwargs)

    monkeypatch.setattr(entropy, "renyi_total", counting)
    total_record("--n", "3", "--l", "1", "--m", "1", "--p", "2",
                 "--disequilibrium", *extra)
    assert len(seen) == calls


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
])
def test_bad_inputs_exit_without_traceback(capsys, argv, code):
    assert run(argv) == code
    assert "Traceback" not in capsys.readouterr().err


def test_precision_env(capsys, monkeypatch):
    monkeypatch.setenv("OSCENT_PRECISION", "1e-8")
    code, payload = invoke_json(capsys, "radial", "--n", "1", "--l", "0",
                                "--p", "0.5")
    assert code == 0
    monkeypatch.setenv("OSCENT_PRECISION", "2.0")
    assert run(["radial", "--n", "1", "--l", "0", "--p", "0.5"]) == 64
    monkeypatch.setenv("OSCENT_PRECISION", "not-a-float")
    assert run(["radial", "--n", "1", "--l", "0", "--p", "0.5"]) == 64


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
