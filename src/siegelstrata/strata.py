"""Boundary-stratification combinatorics of the minimal compactification.

For genus d and principal level n the boundary strata of parabolic index
r in {0..d-1} are counted by the double quotient of GSp_2d(Z/n) by the
finite shadow of P_r(Z)Q_r(Z-hat); refinements along larger parabolic sets
S (min S = r) carry the extra multiplicity card(I_S) that appears in the
stratum-restriction formula.  Every closed form here has a brute-force
companion built from subgroup closures in the matrix model.  The count,
refinement and similitude-image companions read GSp_2d(Z/n) as its
enumerated integer keys and each closure H_S as the column-code tuples of
its elements: they count and compare them, and decode a matrix only for
the message of a failed check.
"""

from functools import lru_cache

from .arith import (DEFAULT_CAP, GSp, _brute_force_cached, _closure_codes,
                    _decode, _order_any_level, brute_force_group, euler_phi,
                    exact_div, integral_image_order, left_orbits, similitude,
                    similitudes, subgroup_closure, units)
from .errors import InputError, ScopeError, check_index
from .grouptheory import (GroupContext, build_context, normalize_parabolic_set,
                          parabolic_data, stratum_dims)
from .matrixmodel import linear_parabolic_generators, parabolic_generators


def ic_profiles(d: int):
    """The two threshold profiles whose weighted complexes realize the
    intersection complex: t_r = 1 + c_{d-r} - c_0 and s_r = t_r - 1,
    indexed by parabolic index r."""
    dims = stratum_dims(d)
    c0 = dims[0]
    upper = tuple(1 + dims[d - r] - c0 for r in range(d))
    lower = tuple(dims[d - r] - c0 for r in range(d))
    return upper, lower


def _strata_count_raw(d: int, n: int, r: int) -> int:
    num = _order_any_level(GSp(2 * d), n)
    dim_n = (d - r) * (d - r + 1) // 2 + 2 * r * (d - r)
    den = _order_any_level(GSp(2 * r), n) * n ** dim_n * integral_image_order(d - r, n)
    return exact_div(num, den)


def strata_count(ctx: GroupContext, r: int) -> int:
    """Number of boundary strata of parabolic index r at level n.

    |GSp_2d(Z/n)| / ( |GSp_2r(Z/n)| * n^{dim N_r} * integral_image_order(d-r, n) ):
    the denominator is the order of the finite shadow of P_r(Z)Q_r(Z-hat),
    where the GL part of an integral element has determinant +-1 and the
    similitude scaling of the linear block is already accounted by the
    GSp_2r factor.
    """
    check_index(r, ctx.d)
    return _strata_count_raw(ctx.d, ctx.n, r)


def double_coset_count(ctx: GroupContext, r: int, S) -> int:
    """card(I_S): index of the P_S(Z)-image inside the P_r(Z)-image in GL_{d-r}.

    Equals integral_image_order(d-r, n) / ( n^{dim N_{l,S}} * prod_i
    integral_image_order(n_i, n) ) over the GL blocks n_i of the Levi of S.
    """
    S = normalize_parabolic_set(ctx.d, S)
    if S[0] != r:
        raise InputError(f"min(S)={S[0]} must equal the stratum index r={r}")
    pd = parabolic_data(ctx, S)
    dim_linear_radical = pd.dimN - parabolic_data(ctx, (r,)).dimN
    num = integral_image_order(ctx.d - r, ctx.n)
    den = ctx.n ** dim_linear_radical
    for b in pd.leviBlocks:
        den *= integral_image_order(b, ctx.n)
    return exact_div(num, den)


# ---------------------------------------------------------------------------
# brute-force companions

@lru_cache(maxsize=None)
def _closure_for(d: int, n: int, S: tuple[int, ...], cap: int) -> frozenset:
    """H_S, the closure of the generators for S, each checked first for a
    unit similitude.  It is kept as the column-code tuples of its elements
    (``arith._closure_codes``): the oracles only count and compare them."""
    gens = parabolic_generators(build_context(d, n), S)
    if any(similitude(g, n) not in units(n) for g in gens):
        raise ArithmeticError(f"a generator for S = {S} is not in GSp_{2 * d}(Z/{n})")
    return _closure_codes(gens, n, cap)


def strata_count_bruteforce(d: int, n: int, r: int,
                            cap: int = DEFAULT_CAP) -> int:
    """Coset count |GSp_2d(Z/n)| / |closure(H_r generators)|.

    Orbits of a subgroup acting by left multiplication on the full group are
    its right cosets, so the count is the index; the closure itself is an
    independent object (it only knows the generator matrices).  The group
    is counted on its enumerated keys and H_r on its column codes; no
    matrix is built.  (d, n) and r are checked before anything is
    enumerated.
    """
    build_context(d, n)
    check_index(r, d)
    keys, _ = _brute_force_cached(GSp(2 * d), n, cap)
    return exact_div(len(keys), len(_closure_for(d, n, (r,), cap)))


def strata_orbit_partition(d: int, n: int, r: int, cap: int = DEFAULT_CAP):
    """Literal orbit partition (canonical rep -> orbit size); small cases only.
    (d, n), r and the size of GSp_2d(Z/n) are checked before anything is
    enumerated."""
    ctx = build_context(d, n)
    check_index(r, d)
    if _order_any_level(GSp(2 * d), n) > 2_000:
        raise ScopeError("use strata_count_bruteforce for ambient groups this large")
    ambient = brute_force_group(GSp(2 * d), n, cap)
    gens = parabolic_generators(ctx, (r,))
    return left_orbits(ambient, gens, n)


def double_coset_count_bruteforce(d: int, n: int, r: int, S,
                                  cap: int = DEFAULT_CAP) -> int:
    """Literal orbit count of the P_S(Z)-image acting on the P_r(Z)-image of
    GL_{d-r}.  (d, n) and S are checked before any closure is built."""
    ctx = build_context(d, n)
    S = normalize_parabolic_set(d, S)
    if S[0] != r:
        raise InputError(f"min(S)={S[0]} must equal r={r}")
    k = d - r
    blocks = parabolic_data(ctx, S).leviBlocks
    ambient = subgroup_closure(linear_parabolic_generators(k, (k,), n), n, cap)
    gens = linear_parabolic_generators(k, blocks, n)
    sub = subgroup_closure(gens, n, cap)
    if not sub <= ambient:
        raise ArithmeticError(f"the S = {S} closure leaves the index-{r} image")
    orbits = left_orbits(ambient, gens, n)
    if (sum(orbits.values()) != len(ambient)
            or any(size != len(sub) for size in orbits.values())):
        raise ArithmeticError(
            f"the orbits of the S = {S} closure do not partition the index-{r} "
            f"image into {len(orbits)} cosets of size {len(sub)}")
    return len(orbits)


def refinement_check_bruteforce(d: int, n: int, r: int, S,
                                cap: int = DEFAULT_CAP) -> bool:
    """Each index-r stratum refines into card(I_S) level-S cosets.

    Verified as [H_r : H_S] = card(I_S) on actual closures (H_S inside H_r,
    compared as sets of column codes), which is the fiber-sum identity:
    summing the I_S fibers over the index-r strata recovers the H_S-coset
    count.  The formula side runs first, so an S with min S != r is refused
    before any closure is built.
    """
    formula = double_coset_count(build_context(d, n), r, S)
    S = normalize_parabolic_set(d, S)
    h_r = _closure_for(d, n, (r,), cap)
    h_s = _closure_for(d, n, S, cap)
    if not h_s <= h_r:
        raise ArithmeticError(f"H_S for S = {S} is not inside H_{r}")
    return exact_div(len(h_r), len(h_s)) == formula


def similitude_image_bruteforce(d: int, n: int, cap: int = DEFAULT_CAP):
    """The set of similitude factors realized by GSp_2d(Z/n), which must be
    the unit group mod n.  (d, n) are checked first, so a level below 3 is
    refused as everywhere else.  Every element is checked against the
    similitude identity on its enumerated key (``similitudes``); only a
    failing element is decoded, for the message."""
    build_context(d, n)
    keys, size = _brute_force_cached(GSp(2 * d), n, cap)
    factors = similitudes(keys, size, n)
    values = set(factors)
    if None in values:
        g = _decode([keys[factors.index(None)]], size, n)[0]
        raise ArithmeticError(f"{g} fails the similitude identity mod {n}")
    if values != set(units(n)):
        raise ArithmeticError(f"GSp_{2 * d}(Z/{n}) realizes the similitude factors "
                              f"{sorted(values)}, not the {euler_phi(n)} units mod {n}")
    return values
