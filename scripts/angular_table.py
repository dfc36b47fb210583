#!/usr/bin/env python3
"""Tabulate spherical-harmonic Renyi entropies across routes.

Prints R_p[Y_lm] for every 0 <= m <= l <= lmax and each requested order,
together with the route that produced it, and cross-checks the exact
routes against quadrature when the order sits on the half-integer lattice.
With --check the exit status is 1 when any relative gap exceeds CHECK_RTOL.

    python3 scripts/angular_table.py --lmax 4 --orders 0.5,2,3
"""

import argparse
import math
import sys

from oscent.angular import (AngularState, lambda_quadrature, renyi_angular,
                            shannon_angular)
from oscent.order import as_order

CHECK_RTOL = 1e-10


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--lmax", type=int, default=4)
    ap.add_argument("--orders", type=str, default="0.5,1,2,3",
                    help="comma-separated entropy orders (1 = Shannon)")
    ap.add_argument("--check", action="store_true",
                    help="print the relative gap against direct quadrature; "
                         f"exit 1 if any exceeds {CHECK_RTOL:g}")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    orders = [float(tok) for tok in args.orders.split(",") if tok]
    head = f"{'l':>3} {'m':>3} {'p':>6} {'entropy':>18} {'method':>14}"
    if args.check:
        head += f" {'rel gap':>10}"
    print(head)
    print("-" * len(head))
    worst = 0.0
    for l in range(args.lmax + 1):
        for m in range(l + 1):
            state = AngularState(l, m)
            for p in orders:
                if as_order(p).is_unity:
                    val = shannon_angular(state)
                    row = f"{l:>3} {m:>3} {p:>6.3g} {val:>18.12f} {'shannon':>14}"
                    print(row)
                    continue
                res = renyi_angular(state, p)
                row = (f"{l:>3} {m:>3} {p:>6.3g} {res.renyi:>18.12f} "
                       f"{res.method:>14}")
                if args.check:
                    quad = lambda_quadrature(state, p)
                    gap = abs(res.lambda_value - quad.lambda_value) / quad.lambda_value
                    worst = max(worst, gap)
                    row += f" {gap:>10.2e}"
                print(row)
    print()
    print(f"uniform bound ln(4 pi) = {math.log(4.0 * math.pi):.12f}")
    if args.check:
        print(f"largest relative gap {worst:.2e} (bound {CHECK_RTOL:g})")
        return int(not worst <= CHECK_RTOL)
    return 0


if __name__ == "__main__":
    sys.exit(main())
