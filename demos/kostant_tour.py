"""Walk through the graded boundary module for one parabolic set.

Prints the Weyl group bookkeeping for genus 2, then the full graded
decomposition of the nilpotent-radical cohomology for a chosen weight,
with the stratum pairings that the truncation thresholds cut against.
"""

import argparse

from siegelstrata import (Weight, build_context, central_weight, kostant_reps,
                          lie_n_cohomology, parabolic_data, weyl_dim)
from siegelstrata.grouptheory import normalize_parabolic_set
from siegelstrata.reps import pairings


def wstr(w: Weight) -> str:
    return ",".join(str(x) for x in w.a) + f"@{w.m0}"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--d", type=int, default=2)
    ap.add_argument("--a", default="1,1", help="weight coordinates a1,..,ad")
    ap.add_argument("--m0", type=int, default=0, help="similitude exponent")
    ap.add_argument("--S", default="0", help="parabolic set, e.g. 0,1")
    args = ap.parse_args()

    d = args.d
    lam = Weight(tuple(int(x) for x in args.a.split(",")), args.m0)
    S = normalize_parabolic_set(d, [int(x) for x in args.S.split(",")])
    ctx = build_context(d, 3)

    print(f"genus {d}: Weyl group has {ctx.weylOrder} signed permutations,")
    print(f"longest element length {d * d},")  # w0 = -1 sends every root negative
    print(f"{len(ctx.positiveRoots)} positive roots, rho = {wstr(ctx.rho)}")

    pd = parabolic_data(ctx, S)
    reps = kostant_reps(ctx, S)
    print(f"\nparabolic set S = {S}: Levi GL blocks {pd.leviBlocks}, "
          f"symplectic rank {pd.r}")
    print(f"dim N_S = {pd.dimN}, dim U_S = {(d - pd.r) * (d - pd.r + 1) // 2}, "
          f"{len(reps)} minimal-length coset representatives")

    module = lie_n_cohomology(ctx, S, lam)
    print(f"\ncohomology of the nilpotent radical at lambda = {wstr(lam)}"
          f" (central weight {central_weight(lam)}):")
    print("degree  levi weight       dim   pairings")
    for s in module.summands:
        print(f"{s.degree:>6}  {wstr(s.levi):<16}"
              f"{weyl_dim(s.levi, pd.leviBlocks):>5}   {pairings(s.levi)}")
    print(f"\nalternating dimension sum: {module.euler_dim(pd.leviBlocks)}"
          " (zero whenever N_S is nontrivial)")


if __name__ == "__main__":
    main()
