"""Regenerate ``refs.json``: reference values for every pool item.

Each value comes from a route that shares no code with ``oscent``:

* radial Renyi norms at integer order p by exact integer arithmetic: the
  Laguerre polynomial is scaled to integer coefficients, raised to the
  power 2p by convolution, and integrated term by term through the exact
  half-integer Gamma values;
* every other radial, angular and Shannon integral by mpmath tanh-sinh
  quadrature at 30 digits, split at the polynomial roots (found in mpmath)
  so each panel has only endpoint singularities; the angular factor is
  built from the Rodrigues form of the Legendre polynomial in exact
  rationals;
* the Bessel-regime constant by panels between the zeros of J_alpha summed
  with Levin's u-transform, and the cosine-regime constant from its Gamma
  formula in mpmath.

Run from the repository root (takes about twenty minutes on two cores;
``--missing`` keeps the stored values and computes only the new ones):

    python3 bench/make_refs.py --jobs 2
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from fractions import Fraction

import mpmath as mp
import numpy as np
from scipy.special import roots_genlaguerre

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import workloads  # noqa: E402

DPS = 30
REFS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")


def _mpf(p) -> mp.mpf:
    f = Fraction(p)
    return mp.mpf(f.numerator) / f.denominator


# ---------------------------------------------------------------------------
# Laguerre side

def _lag_pair(n: int, a, x):
    """(L_n^(a)(x), L_{n-1}^(a)(x)) by the three-term recurrence in mpmath."""
    p0, p1 = mp.mpf(1), a + 1 - x
    if n == 0:
        return p0, mp.mpf(0)
    for k in range(1, n):
        p0, p1 = p1, ((2 * k + a + 1 - x) * p1 - (k + a) * p0) / (k + 1)
    return p1, p0


def _lag_roots(n: int, a) -> list:
    guesses, _ = roots_genlaguerre(n, float(a))
    roots = []
    for r in guesses:
        x = mp.mpf(float(r))
        for _ in range(12):
            ln, lm = _lag_pair(n, a, x)
            step = ln * x / (n * ln - (n + a) * lm)
            x -= step
            if abs(step) <= mp.mpf(10) ** (-DPS + 4) * x:
                break
        roots.append(x)
    if any(b <= a_ for a_, b in zip(roots, roots[1:])):
        raise ArithmeticError(f"Laguerre roots not separated for n={n}")
    return roots


def _radial_panels(n: int, a) -> list:
    pts = [mp.mpf(0)] + (_lag_roots(n, a) if n else [])
    last = pts[-1]
    return pts + [last + 5, last + 20, last + 60, mp.inf]


def _quad_panels(f, pts) -> mp.mpf:
    total, err = mp.mpf(0), mp.mpf(0)
    for lo, hi in zip(pts[:-1], pts[1:]):
        v, e = mp.quad(f, [lo, hi], error=True)
        total += v
        err += abs(e)
    if not err <= mp.mpf(10) ** -20 * abs(total):
        raise ArithmeticError(f"quadrature error {err} too large for {total}")
    return total


def radial_renyi_quad(n: int, l: int, p) -> float:
    """-ln 2 + ln N_{n,l}(p) / (1 - p) with N by tanh-sinh panels."""
    a = l + mp.mpf(1) / 2
    p = _mpf(p)
    gma = p * l + mp.mpf(1) / 2

    def f(x):
        return abs(_lag_pair(n, a, x)[0]) ** (2 * p) * mp.exp(-p * x) * x ** gma

    log_i = mp.log(_quad_panels(f, _radial_panels(n, a)))
    log_n = log_i + p * (mp.loggamma(n + 1) - mp.loggamma(n + a + 1))
    return float(-mp.log(2) + log_n / (1 - p))


def radial_renyi_exact(n: int, l: int, p: int) -> float:
    """Same entropy for integer p, with the norm integral in exact integers.

    2^n n! L_n^(l+1/2)(x) = sum_k d_k x^k with integer
    d_k = (-1)^k C(n, k) 2^k prod_{j=k+1}^{n} (2l + 2j + 1), and
    int_0^inf x^{k + pl + 1/2} e^{-px} dx = (2j)! sqrt(pi) / (4^j j! p^{j + 1/2})
    with j = k + pl + 1.
    """
    d = []
    for k in range(n + 1):
        prod = 1
        for j in range(k + 1, n + 1):
            prod *= 2 * l + 2 * j + 1
        d.append((-1) ** k * math.comb(n, k) * 2 ** k * prod)
    sq = np.convolve(np.array(d, dtype=object), np.array(d, dtype=object))
    e = np.array([1], dtype=object)
    for _ in range(p):
        e = np.convolve(e, sq)
    kmax = len(e) - 1
    j0 = p * l + 1
    jmax = kmax + j0
    ratio = math.factorial(2 * j0) // math.factorial(j0)   # (2j)!/j!
    total = 0
    for k in range(kmax + 1):
        j = k + j0
        total += int(e[k]) * ratio * 4 ** (jmax - j) * p ** (kmax - k)
        ratio *= 2 * (2 * j + 1)
    if total <= 0:
        raise ArithmeticError(f"exact norm sum not positive for n={n}, l={l}, p={p}")
    log_m = mp.log(2) * n + mp.loggamma(n + 1)
    log_i = (mp.log(mp.mpf(total)) - jmax * mp.log(4) - kmax * mp.log(p)
             + mp.log(mp.pi) / 2 - (p * l + mp.mpf(3) / 2) * mp.log(p)
             - 2 * p * log_m)
    a = l + mp.mpf(1) / 2
    log_n = log_i + p * (mp.loggamma(n + 1) - mp.loggamma(n + a + 1))
    return float(-mp.log(2) + log_n / (1 - p))


def radial_shannon(n: int, l: int) -> float:
    """-int rho ln rho r^2 dr, as -ln 2 - int psi^2 x^{l+1/2} ln(psi^2 x^l) dx."""
    a = l + mp.mpf(1) / 2
    log_norm = mp.loggamma(n + 1) - mp.loggamma(n + a + 1)

    def f(x):
        lag = _lag_pair(n, a, x)[0]
        if lag == 0 or x == 0:
            return mp.mpf(0)
        log_psi2 = 2 * mp.log(abs(lag)) + log_norm - x
        return mp.exp(log_psi2) * x ** a * (log_psi2 + l * mp.log(x))

    return float(-mp.log(2) - _quad_panels(f, _radial_panels(n, a)))


# ---------------------------------------------------------------------------
# angular side, from the Rodrigues form of the associated Legendre function

def _legendre_deriv(l: int, m: int) -> list:
    """Exact coefficients (ascending) of d^m/dt^m P_l(t).

    P_l = (2^l l!)^{-1} d^l/dt^l (t^2 - 1)^l, so |P_l^m|^2 = (1 - t^2)^m Q^2
    with Q the m-th derivative of P_l.
    """
    coeffs = [Fraction(0)] * (2 * l + 1)
    for k in range(l + 1):
        coeffs[2 * k] = Fraction(math.comb(l, k) * (-1) ** (l - k))
    for _ in range(l + m):
        coeffs = [c * i for i, c in enumerate(coeffs)][1:]
    scale = Fraction(1, 2 ** l * math.factorial(l))
    return [c * scale for c in coeffs]


def _ylm2(l: int, m: int):
    q = [_mpf(c) for c in reversed(_legendre_deriv(l, m))]
    c = (2 * l + 1) / (4 * mp.pi) * mp.factorial(l - m) / mp.factorial(l + m)

    def y2(t):
        return c * (1 - t * t) ** m * mp.polyval(q, t) ** 2

    return y2, q


def _angular_panels(q: list) -> list:
    inner = []
    if len(q) > 1:
        inner = sorted(mp.re(r) for r in mp.polyroots(q, maxsteps=200, extraprec=200))
    return [mp.mpf(-1)] + inner + [mp.mpf(1)]


def angular_renyi(l: int, m: int, p) -> float:
    p = _mpf(p)
    y2, q = _ylm2(l, m)
    lam = 2 * mp.pi * _quad_panels(lambda t: y2(t) ** p, _angular_panels(q))
    return float(mp.log(lam) / (1 - p))


def angular_shannon(l: int, m: int) -> float:
    y2, q = _ylm2(l, m)

    def f(t):
        y = y2(t)
        return -y * mp.log(y) if y > 0 else mp.mpf(0)

    return float(2 * mp.pi * _quad_panels(f, _angular_panels(q)))


# ---------------------------------------------------------------------------
# asymptotic regime constants

def cosine_log_constant(p) -> mp.mpf:
    p = _mpf(p)
    beta = (1 - p) / 2
    c = (2 ** (beta + 1) / mp.pi ** (p + mp.mpf(1) / 2)
         * mp.gamma(mp.mpf(3) / 2 - p) * mp.gamma(1 - p / 2) * mp.gamma(p + mp.mpf(1) / 2)
         / (mp.gamma(beta + 2 - p) * mp.gamma(1 + p)))
    return mp.log(c)


def bessel_log_constant(l: int, p) -> mp.mpf:
    """ln C_B with C_B = 2^{p-2} int_0^inf u^{2-p} |J_{l+1/2}(u)|^{2p} du."""
    alpha = l + mp.mpf(1) / 2
    p = _mpf(p)

    def f(u):
        return u ** (2 - p) * abs(mp.besselj(alpha, u)) ** (2 * p)

    def zero(k):
        return mp.besseljzero(alpha, int(k))

    # 20 digits keep the Levin extrapolation well below the 1e-12 needed
    with mp.workdps(20):
        head = mp.quad(f, [0, zero(1)])
        body = mp.nsum(lambda k: mp.quad(f, [zero(k), zero(k + 1)]),
                       [1, mp.inf], method="levin")
        return mp.log(2 ** (p - 2) * (head + body))


# ---------------------------------------------------------------------------
# task plumbing

def _task(key: str) -> tuple[str, float]:
    mp.mp.dps = DPS
    kind, *args = key.split(":")
    if kind == "Rr":
        n, l, p = int(args[0]), int(args[1]), Fraction(args[2])
        if p.denominator == 1:
            return key, radial_renyi_exact(n, l, int(p))
        return key, radial_renyi_quad(n, l, p)
    if kind == "Sr":
        return key, radial_shannon(int(args[0]), int(args[1]))
    if kind == "Ra":
        return key, angular_renyi(int(args[0]), int(args[1]), Fraction(args[2]))
    if kind == "Sa":
        return key, angular_shannon(int(args[0]), int(args[1]))
    if kind == "CB":
        return key, float(bessel_log_constant(int(args[0]), Fraction(args[1])))
    if kind == "CC":
        return key, float(cosine_log_constant(Fraction(args[0])))
    raise ValueError(key)


def _asymptotic(key: str, consts: dict) -> float:
    """Leading-order radial Renyi entropy at lam = 1 from its regime constant."""
    _, n, l, p = key.split(":")
    pf = float(Fraction(p))
    if pf < 1.5:
        return consts[f"CC:{p}"] / (1.0 - pf) + 0.5 * math.log(2.0) + 1.5 * math.log(int(n))
    log_cb = consts[f"CB:{l}:{p}"]
    return (((pf - 1.0) * math.log(2.0) + log_cb) / (1.0 - pf)
            + 0.5 * (pf - 3.0) / (1.0 - pf) * math.log(int(n)))


def needed_keys() -> list[str]:
    keys = set()
    for w in workloads.SLOTS:
        for req in workloads.pool(w):
            keys.update(workloads.component_keys(req))
    for req in workloads.TAIL_PROBE:
        keys.update(workloads.component_keys(req))
    return sorted(keys)


def _cost(key: str) -> float:
    kind, *args = key.split(":")
    if kind in ("Rr", "Sr"):
        n = int(args[0])
        exact = kind == "Rr" and Fraction(args[2]).denominator == 1
        return (n + 1) ** (1 if exact else 2) * (2 if kind == "Sr" else 1)
    return 1e4 if kind == "CB" else 1.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--missing", action="store_true",
                    help="keep the values already in refs.json; compute only the others")
    args = ap.parse_args(argv)
    keys = needed_keys()
    kept = {}
    if args.missing and os.path.isfile(REFS_PATH):
        with open(REFS_PATH) as fh:
            kept = {k: v for k, v in json.load(fh)["values"].items() if k in keys}
    todo = [k for k in keys if k not in kept]
    tasks = [k for k in todo if not k.startswith("As:")]
    for k in todo:
        if k.startswith("As:"):
            _, _, l, p = k.split(":")
            tasks.append(f"CC:{p}" if Fraction(p) < Fraction(3, 2) else f"CB:{l}:{p}")
    tasks = sorted(set(tasks), key=_cost, reverse=True)
    t0 = time.time()
    out, failed = {}, []
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=args.jobs, mp_context=ctx) as pool:
        futures = {pool.submit(_task, key): key for key in tasks}
        for i, fut in enumerate(as_completed(futures)):
            key = futures[fut]
            try:
                out[key] = fut.result()[1]
            except ArithmeticError as exc:
                failed.append(key)
                print(f"FAILED {key}: {exc}", flush=True)
                continue
            print(f"[{i + 1}/{len(tasks)} {time.time() - t0:7.1f}s] {key} = {out[key]!r}",
                  flush=True)
    values = dict(kept, **{k: out[k] for k in todo if k in out})
    for k in todo:
        if k.startswith("As:"):
            try:
                values[k] = _asymptotic(k, out)
            except KeyError:
                failed.append(k)
    with open(REFS_PATH, "w") as fh:
        json.dump({"generator": "bench/make_refs.py", "mpmath_dps": DPS,
                   "values": dict(sorted(values.items()))}, fh, indent=0)
        fh.write("\n")
    print(f"wrote {len(values)} references to {REFS_PATH}; {len(failed)} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
