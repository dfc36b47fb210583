"""Workload pools, seeded request lists and the expected value of each request.

A workload is a list of *slots*.  One round of a workload fills every slot
once, in slot order, drawing the slot's free parameters from its finite pool
with the run's seed, and the rounds are concatenated.  Slots fix the
parameters that set a request's cost (function, radial number, order class,
l - |m|) and leave the rest to the seed, so two seeds produce different
request lists of nearly the same total work.  That keeps the end-to-end figures comparable across seeds
while each seed still draws its own states and orders.

Expected values are assembled from the component references in
``refs.json`` (see ``make_refs.py``); ``pool`` enumerates every request any
seed can draw, which is what the reference generator and the self-tests use.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

# ---------------------------------------------------------------------------
# orders

LADDER_LATTICE = ("1/2", "2", "5/2", "3")
# non-lattice orders in (0.6, 3.4), away from the Shannon point 1 and the
# regime transition 3/2
LADDER_GENERAL = ("7/10", "13/10", "11/5", "14/5", "33/10")
LADDER_ORDERS = LADDER_LATTICE + LADDER_GENERAL
# order classes of the exact radial slots.  Orders above 5/2 are left out:
# there the quadrature drops the outer lobe at n >= 50 (the radial tail
# defect in ROADMAP.md) and the value misses its reference, so they run in
# the tail probe below instead of the timed list
LADDER_CLASSES = (("1/2", "7/10", "13/10"), ("2", "11/5", "5/2"),
                  ("9/5", "21/10", "12/5"))
# requests outside the timed list that show the radial tail defect: run
# after the timed requests of every ladder run and reported on their own
TAIL_PROBE = tuple({"fn": "renyi", "n": n, "l": 0, "p": p}
                   for n in (50, 100) for p in ("14/5", "3", "33/10"))

GRID_TOTAL_ORDERS = ("1/2", "1", "2", "5/2", "3")
GRID_ANGULAR_ORDERS = ("1/2", "1", "3/2", "2", "5/2", "3", "4")
GRID_UNCERTAINTY = ("2", "3", "shannon")

CERTIFY_ORDERS = ("1", "7/10", "13/10", "11/5", "14/5")

# entropy tolerance (nats) and the oracle's own certification limit, which
# is the one `oscent verify` applies to oracle-vs-decomposition checks
ENTROPY_ABS_TOL = 1e-9
ORACLE_ABS_TOL = 1e-7
# the Bessel-regime constant is documented to rtol 1e-7; an asymptotic
# entropy inherits that relative error divided by |1 - p|
BESSEL_RTOL = 1e-7


def conjugate(p: str) -> str:
    """Conjugate order q = p / (2p - 1) as an exact rational string."""
    f = Fraction(p)
    q = f / (2 * f - 1)
    return str(q)


def fnum(p: str) -> float:
    return float(Fraction(p))


def _pkey(p: str) -> str:
    return str(Fraction(p))


# ---------------------------------------------------------------------------
# slots: (label, {parameter: choices}) with fixed parameters as 1-tuples

def _ladder_slots():
    # order classes of similar cost at fixed n (LADDER_CLASSES).  The
    # first request of a round at each n pays for the Laguerre roots of that
    # (n, l); with l shared by the round and a fixed slot order that is
    # always the same slot, so seeds do not move root cost between classes.
    slots = [(f"shannon_n100_{i}", {"fn": ("shannon",), "n": (100,)}) for i in range(2)]
    slots.append(("shannon_n50", {"fn": ("shannon",), "n": (50,)}))
    for n in (100, 50):
        for i, ps in enumerate(LADDER_CLASSES):
            slots.append((f"renyi_n{n}_{'abc'[i]}", {"fn": ("renyi",), "n": (n,), "p": ps}))
    slots += [
        ("renyi_n200", {"fn": ("renyi",), "n": (200,), "p": ("5/2",)}),
        ("renyi_n400", {"fn": ("renyi",), "n": (400,), "p": ("2",)}),
    ]
    for i in range(2):
        slots.append((f"asymptotic_{i}", {"fn": ("asymptotic",),
                                          "n": (50, 100, 200, 400),
                                          "p": LADDER_ORDERS}))
    return slots


def _lm(lmax: int):
    return tuple((l, m) for l in range(lmax + 1) for m in range(l + 1))


def _grid_slots():
    slots = []
    for p in GRID_TOTAL_ORDERS:
        for n in range(11):
            # the costliest entry of the table, p = 3 at n = 10, fills four
            # slots: over three rounds it then holds the tail rank (ten
            # samples beyond), which no longer hops between request kinds
            copies = 4 if (p, n) == ("3", 10) else 1
            for i in range(copies):
                # --disequilibrium on three radial numbers of every order
                slots.append((f"total_p{_pkey(p)}_n{n}" + (f"_{i}" if copies > 1 else ""),
                              {"cmd": ("total",), "n": (n,), "lm": _lm(4),
                               "p": (p,), "tsallis": (False, True),
                               "diseq": (n in (2, 5, 8),)}))
    for kind in GRID_UNCERTAINTY:
        for n in (0, 2, 4, 6, 8, 10):
            slots.append((f"uncertainty_{kind}_n{n}",
                          {"cmd": ("uncertainty",), "n": (n,), "lm": _lm(4),
                           "kind": (kind,)}))
    for p in GRID_ANGULAR_ORDERS:
        for i in range(2):
            slots.append((f"angular_p{_pkey(p)}_{i}",
                          {"cmd": ("angular",), "lm": _lm(8), "p": (p,)}))
    return slots


def _certify_slots():
    # the oracle's grid grows with the polar panel count l - |m| + 1 and the
    # radial one n + 9, so a slot fixes l - |m| and n (spread over 0..10 so
    # every order meets small and large n).  At non-lattice p, m also sets
    # the polar edge grading (m p on the lattice or not) and the cost grows
    # with m, up to threefold, so those slots fix m (0 in half of them, 1 in
    # the others); the Shannon oracle grades the same way for every m, so
    # its slots let the seed draw m
    slots = []
    for i, p in enumerate(CERTIFY_ORDERS):
        for d in range(5):
            n = (2 * i + 5 * d) % 11
            if Fraction(p) == 1:
                ms = range(5 - d)
            else:
                ms = (0,) if d == 4 or (i + d) % 2 == 0 else (1,)
            slots.append((f"certify_p{_pkey(p)}_d{d}_n{n}",
                          {"fn": ("certify",), "n": (n,),
                           "lm": tuple((m + d, m) for m in ms),
                           "p": (p,)}))
    return slots


SLOTS = {"ladder": _ladder_slots(), "grid": _grid_slots(),
         "certify": _certify_slots()}
# parameters drawn once per round and shared by every slot of that round
ROUND_AXES = {"ladder": {"l": (0, 1, 2)}, "grid": {}, "certify": {}}

# seconds one round takes at the baseline commit on the reference machine; a
# run holds round(seconds / ROUND_SECONDS) rounds so that every run of a
# given --seconds measures the same number of requests
ROUND_SECONDS = {"ladder": 9.5, "grid": 10.0, "certify": 30.0}


def _normalise(params: dict) -> dict:
    out = dict(params)
    if "lm" in out:
        out["l"], out["m"] = out.pop("lm")
    return out


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def _balanced(rng: random.Random, values: tuple, rounds: int) -> list:
    """`rounds` draws that run through seeded permutations of `values`."""
    seq: list = []
    while len(seq) < rounds:
        seq += rng.sample(values, len(values))
    return seq[:rounds]


def request_list(workload: str, seed: int, rounds: int) -> list[dict]:
    """Seeded request list: `rounds` rounds, each slot once, in slot order.

    Each free parameter runs through seeded permutations of its choices
    across the rounds, so over a run every choice appears as evenly as the
    number of rounds allows; the seed changes which choices pair up.
    """
    rng = random.Random(f"{workload}:{seed}")
    shared = {k: _balanced(rng, v, rounds)
              for k, v in sorted(ROUND_AXES[workload].items())}
    draws = [{k: _balanced(rng, v, rounds) for k, v in sorted(choices.items())}
             for _, choices in SLOTS[workload]]
    out = []
    for r in range(rounds):
        common = {k: seq[r] for k, seq in shared.items()}
        for (label, _), per_key in zip(SLOTS[workload], draws):
            params = dict(common, **{k: seq[r] for k, seq in per_key.items()})
            out.append({"slot": label, **_normalise(params)})
    return out


def pool(workload: str) -> list[dict]:
    """Every request any seed can draw (slot label excluded), deduplicated."""
    seen = {}
    for _, slot_choices in SLOTS[workload]:
        choices = dict(ROUND_AXES[workload], **slot_choices)
        keys = sorted(choices)
        combos = [{}]
        for k in keys:
            combos = [dict(c, **{k: v}) for c in combos for v in choices[k]]
        for c in combos:
            req = _normalise(c)
            seen[repr(sorted(req.items()))] = req
    return list(seen.values())


# ---------------------------------------------------------------------------
# component references

def _rr(n, l, p):
    return f"Rr:{n}:{l}:{_pkey(p)}"


def _sr(n, l):
    return f"Sr:{n}:{l}"


def _ra(l, m, p):
    return f"Ra:{l}:{m}:{_pkey(p)}"


def _sa(l, m):
    return f"Sa:{l}:{m}"


def _as(n, l, p):
    return f"As:{n}:{l}:{_pkey(p)}"


def _total_keys(n, l, m, p):
    if Fraction(p) == 1:
        return [_sr(n, l), _sa(l, m)]
    return [_rr(n, l, p), _ra(l, m, p)]


def component_keys(req: dict) -> list[str]:
    """Reference components a request's expected values are built from."""
    fn = req.get("fn") or req.get("cmd")
    if fn == "renyi":
        return [_rr(req["n"], req["l"], req["p"])]
    if fn == "shannon":
        return [_sr(req["n"], req["l"])]
    if fn == "asymptotic":
        return [_as(req["n"], req["l"], req["p"])]
    n, l, m = req.get("n"), req["l"], req["m"]
    if fn == "certify":
        return _total_keys(n, l, m, req["p"])
    if fn == "total":
        keys = _total_keys(n, l, m, req["p"])
        if req["diseq"]:
            keys += _total_keys(n, l, m, "2")
        return keys
    if fn == "uncertainty":
        if req["kind"] == "shannon":
            return _total_keys(n, l, m, "1")
        return (_total_keys(n, l, m, req["kind"])
                + _total_keys(n, l, m, conjugate(req["kind"])))
    if fn == "angular":
        return [_sa(l, m)] if Fraction(req["p"]) == 1 else [_ra(l, m, req["p"])]
    raise ValueError(f"unknown request {req!r}")


def _total(refs, n, l, m, p):
    return sum(refs[k] for k in _total_keys(n, l, m, p))


def _sum_bound(p: Fraction, q: Fraction) -> float:
    def term(t):
        return -1.0 if t == 1 else math.log(t) / (1.0 - float(t))
    return 3.0 * math.log(math.pi) - 1.5 * (term(p) + term(q))


def expected(req: dict, refs: dict) -> dict:
    """Expected output fields of a request, each as (value, abs tolerance).

    Fields are entropies in nats unless named otherwise; tsallis and
    disequilibrium are compared through the entropy they encode.
    """
    fn = req.get("fn") or req.get("cmd")
    tol = ENTROPY_ABS_TOL
    if fn in ("renyi", "shannon"):
        return {"value": (refs[component_keys(req)[0]], tol)}
    if fn == "asymptotic":
        p = fnum(req["p"])
        atol = tol if p < 1.5 else max(tol, BESSEL_RTOL / abs(1.0 - p))
        return {"value": (refs[component_keys(req)[0]], atol)}
    n, l, m = req.get("n"), req["l"], req["m"]
    if fn == "certify":
        total = _total(refs, n, l, m, req["p"])
        return {"oracle": (total, ORACLE_ABS_TOL), "decomposition": (total, tol)}
    if fn == "total":
        radial, angular = (refs[k] for k in _total_keys(n, l, m, req["p"]))
        out = {"radial": (radial, tol), "angular": (angular, tol),
               "total": (radial + angular, tol)}
        if req["tsallis"]:
            out["tsallis_entropy"] = (radial + angular, tol)
        if req["diseq"]:
            out["disequilibrium_entropy"] = (_total(refs, n, l, m, "2"), tol)
        return out
    if fn == "uncertainty":
        if req["kind"] == "shannon":
            s = _total(refs, n, l, m, "1")
            return {"sum": (2.0 * s, tol),
                    "bound": (3.0 * (1.0 + math.log(math.pi)), tol)}
        p = req["kind"]
        q = conjugate(p)
        total = _total(refs, n, l, m, p) + _total(refs, n, l, m, q)
        return {"sum": (total, tol),
                "bound": (_sum_bound(Fraction(p), Fraction(q)), tol)}
    if fn == "angular":
        key = "shannon" if Fraction(req["p"]) == 1 else "renyi"
        return {key: (refs[component_keys(req)[0]], tol)}
    raise ValueError(f"unknown request {req!r}")


# ---------------------------------------------------------------------------
# execution against the library

def grid_argv(req: dict) -> list[str]:
    cmd = req["cmd"]
    argv = [cmd]
    if cmd != "angular":
        argv += ["--n", str(req["n"])]
    argv += ["--l", str(req["l"]), "--m", str(req["m"])]
    if cmd == "uncertainty":
        if req["kind"] == "shannon":
            argv += ["--kind", "shannon"]
        else:
            argv += ["--kind", "renyi", "--p", repr(fnum(req["kind"]))]
    else:
        argv += ["--p", repr(fnum(req["p"]))]
    if cmd == "total":
        if req["tsallis"]:
            argv.append("--tsallis")
        if req["diseq"]:
            argv.append("--disequilibrium")
    return argv


def _tsallis_to_renyi(t: float, p: float) -> float:
    if p == 1.0:
        return t
    return math.log1p((1.0 - p) * t) / (1.0 - p)


def observed_fields(req: dict, out) -> dict:
    """Map a request's raw output onto the fields `expected` names."""
    fn = req.get("fn") or req.get("cmd")
    if fn in ("renyi", "shannon"):
        return {"value": out}
    if fn == "asymptotic":
        return {"value": out.value}
    if fn == "certify":
        return {"oracle": out[0], "decomposition": out[1]}
    rec = out["results"][0]
    if fn == "total":
        got = {"radial": rec["radial"], "angular": rec["angular"],
               "total": rec["total"]}
        if "tsallis" in rec:
            got["tsallis_entropy"] = _tsallis_to_renyi(rec["tsallis"], fnum(req["p"]))
        if "disequilibrium" in rec:
            got["disequilibrium_entropy"] = -math.log(rec["disequilibrium"])
        return got
    if fn == "uncertainty":
        return {"sum": rec["sum"], "bound": rec["bound"]}
    if fn == "angular":
        return {k: rec[k] for k in ("shannon", "renyi") if k in rec}
    raise ValueError(f"unknown request {req!r}")


def compare(req: dict, out, refs: dict) -> list[str]:
    """Problems found in one output; empty when every field is in tolerance."""
    want = expected(req, refs)
    got = observed_fields(req, out)
    problems = []
    for field, (value, atol) in want.items():
        if field not in got:
            problems.append(f"{field}: missing from output")
            continue
        diff = got[field] - value
        if not abs(diff) <= atol:
            problems.append(f"{field}: got {got[field]!r}, reference {value!r}, "
                            f"diff {diff:.3e} > {atol:.1e}")
    return problems
