"""Restrict the middle-perversity complex to a boundary stratum, genus 2.

Shows the two equivalent truncation profiles, the graded class each one
produces on the chosen stratum, and the exact Euler evaluation that the
equality criterion compares.  Also evaluates the same cut positions
without the central-weight shift to show why the shift matters.
"""

import argparse

from siegelstrata import (Weight, build_context, central_weight,
                          euler_evaluate, graded_report, ic_profiles,
                          restrict_ic, restrict_weighted)


def wstr(w) -> str:
    return ",".join(str(x) for x in w.a) + f"@{w.m0}"


def show(tag: str, cls, ctx) -> int:
    value = euler_evaluate(cls, ctx)
    print(f"\n{tag}: {len(cls.terms)} class terms, euler = {value}")
    print("  S        degree  weight     mult  pairings")
    for S, degree, levi, mult, central, sheaf, pairings in graded_report(cls):
        print(f"  {str(S):<9}{degree:>5}   {wstr(levi):<11}"
              f"{mult:>3}   {pairings}")
    return value


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--a", default="1,1")
    ap.add_argument("--m0", type=int, default=0)
    ap.add_argument("--stratum", type=int, default=0)
    args = ap.parse_args()

    ctx = build_context(2, 3)
    lam = Weight(tuple(int(x) for x in args.a.split(",")), args.m0)
    r = args.stratum
    m = central_weight(lam)
    upper, lower = ic_profiles(2)
    print(f"lambda = {wstr(lam)}, central weight m = {m}, stratum r = {r}")
    print(f"threshold profiles: upper {upper}, lower {lower}")
    print(f"(cuts are taken at profile value + m, so at "
          f"{tuple(t + m for t in upper)} and {tuple(t + m for t in lower)})")

    a, b = restrict_ic(ctx, lam, r)
    va = show("upper profile", a, ctx)
    vb = show("lower profile", b, ctx)
    assert va == vb
    print(f"\nboth profiles agree: euler = {va}")

    # the same integer cut positions, fed back in without the shift,
    # land in the wrong spot as soon as m != 0
    raw_u = restrict_weighted(ctx, tuple(t - m for t in upper), lam, r)
    raw_l = restrict_weighted(ctx, tuple(t - m for t in lower), lam, r)
    print(f"\nunshifted cuts would give euler {euler_evaluate(raw_u, ctx)} "
          f"and {euler_evaluate(raw_l, ctx)}"
          + (" (same here since m = 0)" if m == 0 else " instead"))


if __name__ == "__main__":
    main()
