#!/usr/bin/env python3
"""Convergence of exact radial entropies toward their large-n asymptotics.

For each rung of an n-ladder, prints the exact Renyi entropy, the
asymptotic prediction, their difference and (where the leading constant is
finite) the ratio of the exact norm to its predicted decay.  A least-squares
slope of entropy against ln n is reported at the end.  The rows are those of
`oscent sweep --quantity radial-renyi` (cli.emit_convergence_table).

    python3 scripts/rydberg_convergence.py --p 2 --ladder 50,100,200,400
"""

import argparse
import time

import numpy as np

from oscent.cli import emit_convergence_table
from oscent.order import as_order
from oscent.rydberg import bessel_constant


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--p", type=float, default=2.0,
                    help="entropy order (1 = Shannon)")
    ap.add_argument("--l", type=int, default=0)
    ap.add_argument("--ladder", type=str, default="50,100,200,400")
    return ap.parse_args()


def main():
    args = parse_args()
    ladder = [int(tok) for tok in args.ladder.split(",") if tok]
    p, l = args.p, args.l
    shannon = as_order(p).is_unity

    print(f"{'n':>6} {'exact':>16} {'asymptotic':>16} {'gap':>12} "
          f"{'norm ratio':>12} {'secs':>7}")
    values = []
    for n in ladder:
        t0 = time.time()
        # one rung per call, so that each row reports its own time
        (row,) = emit_convergence_table(p, l, 1.0, [n])
        ratio = float("nan") if row["norm_ratio"] is None else row["norm_ratio"]
        values.append(row["exact"])
        print(f"{n:>6} {row['exact']:>16.10f} {row['asymptotic']:>16.10f} "
              f"{abs(row['difference']):>12.3e} {ratio:>12.8f} "
              f"{time.time() - t0:>7.2f}")

    slope = np.polyfit(np.log(ladder), values, 1)[0]
    print(f"\nfitted d(entropy)/d(ln n) = {slope:.4f}")
    if not shannon and p > 1.5:
        alpha = l + 0.5
        const = bessel_constant(alpha, p)
        print(f"origin-regime constant C_B({alpha}, {p}) = "
              f"{const.value:.10f}")


if __name__ == "__main__":
    main()
