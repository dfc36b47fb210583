"""Batch command-line interface with machine-readable reports.

Subcommands map onto the library modules one-to-one and emit deterministic
JSON or CSV records (fixed field order, 15 significant digits) so runs can
be diffed as regression artifacts.  Exit codes: 0 success, 1 verification
failure, 2 domain error, 3 accuracy error, 64 usage error, 141 output pipe
closed by the reader (128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys

from . import __version__, angular, entropy, oracle, radial, rydberg, specfun
from .angular import AngularState
from .errors import AccuracyError, DomainError
from .order import as_order
from .radial import OscillatorParams, QuantumState

_LN_2 = math.log(2.0)

# keys holding entropy-like values, eligible for --bits rescaling
_ENTROPY_KEYS = frozenset({
    "renyi", "shannon", "value", "radial", "angular", "total", "exact",
    "asymptotic", "difference", "sum", "bound", "tsallis",
})


class UsageError(Exception):
    """Malformed command line; reported with exit status 64."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _round15(x):
    if isinstance(x, float):
        return float(f"{x:.15g}")
    return x


def _fmt_csv(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.15g}"
    if isinstance(x, bool):
        return "true" if x else "false"
    return str(x)


def _int_list(raw: str) -> list[int]:
    try:
        items = [int(tok) for tok in raw.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"expected comma-separated integers, got {raw!r}") from exc
    if not items:
        raise UsageError("empty value list")
    return items


def _present(records: list[dict], bits: bool) -> list[dict]:
    out = []
    for rec in records:
        row = {}
        for key, val in rec.items():
            if bits and key in _ENTROPY_KEYS and isinstance(val, float):
                val = val / _LN_2
            row[key] = _round15(val)
        out.append(row)
    return out


def _emit(request: dict, records: list[dict], fmt: str, stream) -> None:
    warnings = []
    for rec in records:
        for w in rec.get("warnings", ()) or ():
            if w not in warnings:
                warnings.append(w)
        if isinstance(rec.get("warnings"), (list, tuple)):
            rec["warnings"] = "; ".join(rec["warnings"])
    if fmt == "json":
        payload = {"request": request, "results": records,
                   "warnings": warnings, "version": __version__}
        json.dump(payload, stream, indent=2)
        stream.write("\n")
    else:
        keys = list(records[0].keys()) if records else []
        writer = csv.writer(stream)
        writer.writerow(keys)
        for rec in records:
            writer.writerow([_fmt_csv(rec.get(k)) for k in keys])


# ---------------------------------------------------------------------------
# subcommand evaluators

def _cmd_angular(args) -> list[dict]:
    state = AngularState(args.l, args.m)
    if as_order(args.p).is_unity:
        val = angular.shannon_angular(state)
        return [{"quantity": "angular-shannon", "l": args.l, "m": args.m,
                 "p": 1.0, "shannon": val, "method": angular.shannon_route(state),
                 "warnings": ()}]
    res = angular.renyi_angular(state, args.p)
    return [{"quantity": "angular-renyi", "l": args.l, "m": args.m,
             "p": args.p, "lambda_value": res.lambda_value,
             "renyi": res.renyi, "method": res.method, "warnings": ()}]


def _cmd_radial(args) -> list[dict]:
    state = QuantumState(args.n, args.l, 0)
    params = OscillatorParams(args.lam)
    if as_order(args.p).is_unity:
        if args.path not in ("auto", "quadrature"):
            raise DomainError(f"radial Shannon has only the quadrature route, "
                              f"got --path {args.path}")
        val = radial.shannon_radial_exact(state, params)
        return [{"quantity": "radial-shannon", "n": args.n, "l": args.l,
                 "p": 1.0, "lam": args.lam, "shannon": val,
                 "path": "quadrature", "warnings": ()}]
    norm = radial.laguerre_norm(args.n, args.l, args.p, path=args.path)
    val = radial.renyi_radial_exact(state, params, args.p, norm=norm)
    return [{"quantity": "radial-renyi", "n": args.n, "l": args.l,
             "p": args.p, "lam": args.lam, "norm_value": norm.value,
             "norm_log": norm.log_value, "path": norm.path, "renyi": val,
             "warnings": norm.warnings}]


def _cmd_asymptotic(args) -> list[dict]:
    params = OscillatorParams(args.lam)
    if as_order(args.p).is_unity:
        val = rydberg.shannon_radial_asymptotic(args.n, params)
        return [{"quantity": "asymptotic-shannon", "n": args.n, "l": args.l,
                 "p": 1.0, "lam": args.lam, "value": val,
                 "regime": "shannon", "caveat": False, "warnings": ()}]
    res = rydberg.renyi_radial_asymptotic(args.n, args.l, params, args.p)
    warns = (rydberg.CAVEAT,) if res.caveat else ()
    return [{"quantity": "asymptotic-renyi", "n": args.n, "l": args.l,
             "p": args.p, "lam": args.lam, "value": res.value,
             "regime": res.regime, "leading_exponent": res.leading_exponent,
             "caveat": res.caveat, "warnings": warns}]


def _cmd_total(args) -> list[dict]:
    state = QuantumState(args.n, args.l, args.m)
    params = OscillatorParams(args.lam)
    shannon = as_order(args.p).is_unity
    if shannon:
        dec = entropy.shannon_total(state, params, args.mode, space=args.space)
    else:
        dec = entropy.renyi_total(state, params, args.p, args.mode,
                                  space=args.space)
    rec = {"quantity": "total-shannon" if shannon else "total-renyi",
           "n": args.n, "l": args.l, "m": args.m, "p": args.p,
           "lam": args.lam, "mode": dec.mode, "space": dec.space,
           "radial": dec.radial, "angular": dec.angular, "total": dec.total,
           "warnings": dec.warnings}
    if args.tsallis:
        rec["tsallis"] = entropy.tsallis_from_renyi(dec.total, args.p)
    if args.disequilibrium:
        # <rho> = exp(-R_2): reuse the total when it already is R_2
        if args.p == 2.0 and dec.mode == "exact" and dec.space == "position":
            rec["disequilibrium"] = specfun._exp_or_none(-dec.total)
        else:
            rec["disequilibrium"] = entropy.disequilibrium(state, params)
    return [rec]


def _cmd_uncertainty(args) -> list[dict]:
    state = QuantumState(args.n, args.l, args.m)
    params = OscillatorParams(args.lam)
    if args.kind == "shannon":
        rec = entropy.uncertainty_sum(state, params, None, "shannon",
                                      mode=args.mode)
    else:
        pair = (entropy.ConjugatePair.of(args.p) if args.q is None
                else (args.p, args.q))
        rec = entropy.uncertainty_sum(
            state, params, pair, "renyi", mode=args.mode,
            allow_nonconjugate=args.allow_nonconjugate)
    return [{"quantity": "uncertainty-sum", "n": args.n, "l": args.l,
             "m": args.m, "kind": rec.kind, "p": rec.p, "q": rec.q,
             "lam": args.lam, "sum": rec.sum, "bound": rec.bound,
             "saturated": rec.saturated, "warnings": rec.warnings}]


# ---------------------------------------------------------------------------
# convergence tables and sweeps

def emit_convergence_table(p, l: int, lam: float,
                           n_ladder: list[int]) -> list[dict]:
    """Rows of exact vs asymptotic radial Renyi values along an n ladder.

    The norm ratio column reports the exact-to-asymptotic ratio of the
    power integrals, exp((1-p)(R_exact - R_asym)); it tends to 1 whenever
    the regime constant is sharp, and is omitted for the Shannon row set.
    """
    if not n_ladder:
        raise UsageError("empty n ladder")
    if any(b <= a for a, b in zip(n_ladder, n_ladder[1:])):
        raise UsageError("n ladder must be strictly ascending")
    params = OscillatorParams(lam)
    shannon = as_order(p).is_unity

    def row(n: int) -> dict:
        if shannon:
            ex = radial.shannon_radial_exact(QuantumState(n, l, 0), params)
            asym = rydberg.shannon_radial_asymptotic(n, params)
            regime, caveat, ratio = "shannon", False, None
        else:
            ex = radial.renyi_radial_exact(QuantumState(n, l, 0), params, p)
            res = rydberg.renyi_radial_asymptotic(n, l, params, p)
            asym, regime, caveat = res.value, res.regime, res.caveat
            ratio = (math.exp((1.0 - p) * (ex - asym))
                     if math.isfinite(asym) else None)
        return {"n": n, "l": l, "p": p, "lam": lam, "exact": ex,
                "asymptotic": asym, "difference": ex - asym,
                "norm_ratio": ratio, "regime": regime, "caveat": caveat,
                "warnings": ()}

    return [row(n) for n in n_ladder]


# the sweep options each quantity reads, with their defaults; any other
# option given on the command line is a usage error
_SWEEP_OPTIONS = {"n": ("", ("radial-renyi", "radial-shannon", "total-renyi",
                             "total-shannon")),
                  "m": (0, ("angular-renyi", "total-renyi", "total-shannon")),
                  "mode": ("exact", ("total-renyi", "total-shannon"))}


def _cmd_sweep(args) -> list[dict]:
    for opt, (default, quantities) in _SWEEP_OPTIONS.items():
        if getattr(args, opt) is None:
            setattr(args, opt, default)  # the request echo shows the default
        elif args.quantity not in quantities:
            raise UsageError(f"--{opt} does not apply to --quantity {args.quantity}")
    params = OscillatorParams(args.lam)
    ls = _int_list(args.l)
    if args.quantity == "angular-renyi":

        def point(l: int) -> dict:
            res = angular.renyi_angular(AngularState(l, args.m), args.p)
            return {"quantity": args.quantity, "l": l, "m": args.m,
                    "p": args.p, "lambda_value": res.lambda_value,
                    "renyi": res.renyi, "method": res.method,
                    "warnings": ()}

        return [point(l) for l in ls]

    ns = _int_list(args.n)
    if len(ls) != 1:
        raise UsageError(f"an n ladder takes exactly one --l value, got {args.l!r}")
    l = ls[0]
    if args.quantity in ("radial-renyi", "radial-shannon"):
        if args.quantity == "radial-renyi" and as_order(args.p).is_unity:
            raise DomainError(
                "p = 1 is the Shannon limit; use --quantity radial-shannon")
        p = 1.0 if args.quantity == "radial-shannon" else args.p
        rows = emit_convergence_table(p, l, args.lam, ns)
        return [{"quantity": args.quantity, **row} for row in rows]
    if args.quantity in ("total-renyi", "total-shannon"):

        def point(n: int) -> dict:
            state = QuantumState(n, l, args.m)
            if args.quantity == "total-shannon":
                dec = entropy.shannon_total(state, params, args.mode)
                p = 1.0
            else:
                dec = entropy.renyi_total(state, params, args.p, args.mode)
                p = args.p
            return {"quantity": args.quantity, "n": n, "l": l,
                    "m": args.m, "p": p, "lam": args.lam, "mode": dec.mode,
                    "radial": dec.radial, "angular": dec.angular,
                    "total": dec.total, "warnings": dec.warnings}

        return [point(n) for n in ns]
    raise UsageError(f"unknown sweep quantity {args.quantity!r}")


# ---------------------------------------------------------------------------
# verification suite

def _cmd_verify(args) -> tuple[list[dict], bool]:
    checks: list[tuple[str, float, float]] = []

    def add(name: str, measured: float, limit: float):
        checks.append((name, measured, limit))

    suite = args.suite
    if suite in ("all", "angular"):
        add("angular shannon of Y00 equals ln(4 pi)",
            abs(angular.shannon_angular(AngularState(0, 0))
                - math.log(4 * math.pi)), 1e-9)
        for l, m in ((2, 1), (3, 1), (4, 2)):
            st = AngularState(l, m)
            lin = angular.lambda_linearization(st, 2.0).lambda_value
            for what, route, tol in (("exact pair", angular.lambda_bell, 1e-9),
                                     ("vs quadrature", angular.lambda_quadrature, 1e-7),
                                     ("vs production route", angular.renyi_angular, 1e-12)):
                add(f"angular route agreement l={l} m={m} ({what})",
                    abs(lin / route(st, 2.0).lambda_value - 1.0), tol)
    if suite in ("all", "radial"):
        for n, l in ((0, 0), (3, 1), (7, 2)):
            norm = radial.laguerre_norm(n, l, 1.0)
            add(f"unit norm at p=1 for n={n} l={l}", abs(norm.value - 1.0), 1e-10)
        for l in (0, 1):
            c = radial.closed_n1l(l, 2.0)
            q = radial.laguerre_norm(1, l, 2.0, path="quadrature")
            add(f"closed n=1 form vs quadrature l={l}",
                abs(c.value / q.value - 1.0), 1e-9)
    if suite in ("all", "total"):
        ground = QuantumState(0, 0, 0)
        add("ground total Renyi(2) equals (3/2) ln(2 pi)",
            abs(entropy.renyi_total(ground, None, 2.0).total
                - 1.5 * math.log(2 * math.pi)), 1e-9)
        add("ground disequilibrium equals (2 pi)^(-3/2)",
            abs(entropy.disequilibrium(ground) - (2 * math.pi) ** -1.5), 1e-9)
        add("ground total Shannon equals (3/2)(1 + ln pi)",
            abs(entropy.shannon_total(ground).total
                - 1.5 * (1 + math.log(math.pi))), 1e-9)
        st = QuantumState(1, 1, 0)
        add("oracle decomposition cross-check Renyi(2) on (1,1,0)",
            abs(oracle.renyi_full(st, None, 2.0)
                - entropy.renyi_total(st, None, 2.0).total), 1e-7)
        st = QuantumState(1, 0, 0)
        add("oracle decomposition cross-check Shannon on (1,0,0)",
            abs(oracle.shannon_full(st) - entropy.shannon_total(st).total),
            1e-7)
    if suite in ("all", "uncertainty"):
        ground = QuantumState(0, 0, 0)
        for p in (2.0, 3.0):
            rec = entropy.uncertainty_sum(ground, None,
                                          entropy.ConjugatePair.of(p))
            add(f"ground saturates the Renyi sum bound at p={p}",
                abs(rec.sum - rec.bound), 1e-9)
        rec = entropy.uncertainty_sum(ground, None, None, "shannon")
        add("ground Shannon sum equals 3(1 + ln pi)",
            abs(rec.sum - entropy.SHANNON_SUM_BOUND), 1e-9)
        rec = entropy.uncertainty_sum(QuantumState(1, 0, 0), None,
                                      entropy.ConjugatePair.of(2.0))
        add("excited state exceeds the Renyi sum bound",
            max(0.0, rec.bound - rec.sum), 1e-9)

    records = []
    ok = True
    for name, measured, limit in checks:
        passed = measured <= limit
        ok = ok and passed
        records.append({"check": name, "status": "pass" if passed else "fail",
                        "measured": measured, "limit": limit, "warnings": ()})
    return records, ok


# ---------------------------------------------------------------------------
# parser assembly and entry point

@functools.lru_cache(maxsize=None)
def build_parser() -> _Parser:
    """The argparse tree, built once: parsing does not change it."""
    parser = _Parser(prog="oscent",
                     description="Entropies of oscillator eigenstates")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--bits", action="store_true",
                        help="report entropies in bits instead of nats")
        sp.add_argument("--lam", type=float, default=1.0)

    sp = sub.add_parser("angular", help="angular power integral and entropy")
    sp.add_argument("--l", type=int, required=True)
    sp.add_argument("--m", type=int, default=0)
    sp.add_argument("--p", type=float, required=True)
    common(sp)

    sp = sub.add_parser("radial", help="radial norm and entropy, finite n")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--l", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--path", default="auto",
                    choices=("auto", "symbolic", "closed_n1", "quadrature"))
    common(sp)

    sp = sub.add_parser("asymptotic", help="large-n radial entropy regimes")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--l", type=int, default=0)
    sp.add_argument("--p", type=float, required=True)
    common(sp)

    sp = sub.add_parser("total", help="total entropy, radial plus angular")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--l", type=int, required=True)
    sp.add_argument("--m", type=int, default=0)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--mode", choices=("exact", "asymptotic"), default="exact")
    sp.add_argument("--space", choices=("position", "momentum"),
                    default="position")
    sp.add_argument("--tsallis", action="store_true")
    sp.add_argument("--disequilibrium", action="store_true")
    common(sp)

    sp = sub.add_parser("uncertainty", help="position-momentum entropy sums")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--l", type=int, required=True)
    sp.add_argument("--m", type=int, default=0)
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--q", type=float, default=None,
                    help="defaults to the conjugate order p/(2p-1)")
    sp.add_argument("--kind", choices=("renyi", "shannon"), default="renyi")
    sp.add_argument("--mode", choices=("exact", "asymptotic"), default="exact")
    sp.add_argument("--allow-nonconjugate", action="store_true")
    common(sp)

    sp = sub.add_parser("verify", help="run the invariant suites")
    sp.add_argument("--suite", default="all",
                    choices=("all", "angular", "radial", "total",
                             "uncertainty"))
    common(sp)

    sp = sub.add_parser("sweep", help="ladders over n or l")
    sp.add_argument("--quantity", required=True,
                    choices=("angular-renyi", "radial-renyi",
                             "radial-shannon", "total-renyi",
                             "total-shannon"))
    # --n, --m and --mode default by quantity (_SWEEP_OPTIONS)
    sp.add_argument("--n")
    sp.add_argument("--l", default="0")
    sp.add_argument("--m", type=int)
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--mode", choices=("exact", "asymptotic"))
    common(sp)

    return parser


def _request_echo(args) -> dict:
    skip = {"format", "bits"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "verify":
            records, ok = _cmd_verify(args)
        else:
            handler = {
                "angular": _cmd_angular,
                "radial": _cmd_radial,
                "asymptotic": _cmd_asymptotic,
                "total": _cmd_total,
                "uncertainty": _cmd_uncertainty,
                "sweep": _cmd_sweep,
            }[args.command]
            records, ok = handler(args), True
        try:
            _emit(_request_echo(args), _present(records, args.bits),
                  args.format, sys.stdout)
        except BrokenPipeError:
            # the reader went away (`| head`); the rest of the buffer goes to
            # devnull so the flush at shutdown cannot raise again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return 141
        return 0 if ok else 1
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except AccuracyError as exc:
        print(f"accuracy error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
