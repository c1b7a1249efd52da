"""Graded Levi decomposition of H*(Lie N_S, V_lambda).

For an irreducible V_lambda and a standard parabolic P_S, the cohomology of
the nilpotent radical's Lie algebra is multiplicity-free over the Levi:

    H^k(Lie N_S, V_lambda) = sum over w in W^S with length k of V^Levi_{w.lambda}

where w.lambda = w(lambda+rho)-rho is the dot action and W^S the minimal
coset representatives.  This is the exact Grothendieck-group value of the
boundary coefficient complexes, which is all the downstream calculus needs.
Each summand holds the torus weight w.lambda itself; the Levi it is a
highest weight for is read from P_S (``ParabolicData.leviBlocks``).

>>> from .grouptheory import build_context
>>> from .reps import Weight
>>> m = lie_n_cohomology(build_context(1, 3), (0,), Weight((3,), 0))
>>> [(s.degree, s.levi.a, s.levi.m0) for s in m.summands]
[(0, (3,), 0), (1, (-5,), 4)]
"""

from .errors import InputError
from .grouptheory import (GroupContext, ParabolicData, kostant_reps,
                          levi_weyl_order, parabolic_data)
from .reps import (GradedVirtualRep, Summand, Weight, central_weight,
                   check_dominant, dot_action, is_levi_dominant)


def check_weight(ctx: GroupContext, lam: Weight) -> None:
    """lam must have d coordinates and be dominant."""
    if len(lam.a) != ctx.d:
        raise InputError(f"weight has {len(lam.a)} coordinates, expected {ctx.d}")
    check_dominant(lam)


def kostant_summand(degree: int, mu: Weight, pd: ParabolicData,
                    central: int) -> Summand:
    """The summand of a dot-action image mu = w.lam, w in W^S of degree l(w).

    Raises ArithmeticError unless mu is dominant for the Levi of P_S and its
    central weight is ``central``, that of lam; both checks also run under
    ``python -O``.
    """
    if not is_levi_dominant(mu, pd.leviBlocks):
        raise ArithmeticError(f"{mu} is not dominant for the Levi of P_{pd.S}")
    if central_weight(mu) != central:
        raise ArithmeticError(
            f"{mu} has central weight {central_weight(mu)}, expected {central}")
    return Summand(degree, mu)


def lie_n_cohomology(ctx: GroupContext, S, lam: Weight) -> GradedVirtualRep:
    """The class of RGamma(Lie N_S, V_lam): one summand per Kostant representative.

    Each summand is (degree, w.lam, multiplicity 1); its pairings are read
    from the weight by ``pairings``.  Every w.lam is dominant for the Levi
    of P_S and has central weight central_weight(lam)
    (both checked by ``kostant_summand``).  Raises ArithmeticError unless
    there is one summand per coset of the Levi's Weyl group, also under
    ``python -O``.
    """
    check_weight(ctx, lam)
    pd = parabolic_data(ctx, S)
    target, shifted = central_weight(lam), lam.add(ctx.rho)
    module = GradedVirtualRep.build(
        kostant_summand(length, Weight(*dot_action(v, shifted)), pd, target)
        for length, _, v in kostant_reps(ctx, S))
    # Dot-action orbits of a dominant lam are free, so nothing merged.
    expected = ctx.weylOrder // levi_weyl_order(pd)
    if len(module.summands) != expected:
        raise ArithmeticError(f"H*(Lie N_{pd.S}) has {len(module.summands)} "
                              f"summands, expected {expected}")
    return module
