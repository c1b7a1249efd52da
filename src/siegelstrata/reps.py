"""Torus weights of GSp_2d, dominance, truncation, and Weyl dimensions.

Weights live on the diagonal torus

    T = { diag(t_1, ..., t_d, c*t_d^-1, ..., c*t_1^-1) }

of the symplectic similitude group: the weight (a_1..a_d; m0) sends the
point above to t_1^a_1 * ... * t_d^a_d * c^m0.  The center {x * Id} acts
through x^(a_1+...+a_d+2*m0), which ``central_weight`` returns.

For each parabolic index s in {0..d-1} there is a one-parameter subgroup
S_s(x) = diag(x^2 I_{d-s}, x I_s | x I_s, x^2 ... ) acting by x^2 on the
first d-s torus coordinates, x on the remaining s, and x^2 on the
similitude coordinate.  ``torus_pairing`` pairs a weight with S_s; keeping
or discarding irreducible Levi constituents by these integers is the whole
truncation calculus used downstream.

A Levi GL_{n_1} x ... x GL_{n_k} x GSp_2r of P_S has the same torus, so its
highest weights are ``Weight`` values too; the readers of the Levi shape
take the GL block sizes (n_1..n_k) = ``ParabolicData.leviBlocks``.

>>> central_weight(Weight((1, 0), 0))
1
>>> torus_pairing(Weight((2, 0), -1), 1)
2
"""

import itertools
import math
from typing import Iterable

from .arith import exact_div
from .errors import InputError, Value, _new, check_index, is_int

# Truncation bounds live in Z union {-inf, +inf}; CPython compares int
# with float('inf') exactly, so mixed comparisons below are safe.
Bound = int | float


def _check_bound(b: Bound) -> Bound:
    if isinstance(b, bool) or not (isinstance(b, int) or b in (math.inf, -math.inf)):
        raise InputError(f"threshold must be an integer or +/-inf, got {b!r}")
    return b


class Weight(Value):
    """A character (a_1..a_d; m0) of the diagonal torus, m0 the similitude exponent."""

    a: tuple[int, ...]
    m0: int = 0

    def __new__(cls, a, m0=0):
        a = tuple(a)
        if not (all(map(is_int, a)) and is_int(m0)):
            raise InputError(f"weight entries must be integers, got {a!r}@{m0!r}")
        return _new(cls, (a, m0))

    @property
    def d(self) -> int:
        return len(self.a)

    def add(self, other: "Weight") -> "Weight":
        return Weight(tuple(x + y for x, y in zip(self.a, other.a)), self.m0 + other.m0)

    def neg(self) -> "Weight":
        return Weight(tuple(-x for x in self.a), -self.m0)


def central_weight(mu: Weight) -> int:
    """Exponent of the central action: x*Id acts by x^(sum a_i + 2 m0)."""
    return sum(mu.a) + 2 * mu.m0


def pairings(mu: Weight) -> tuple[int, ...]:
    """The S_s-pairings of mu for every parabolic index s = 0..d-1.

    S_s feeds x^2 into the first d-s torus coordinates, x into the last s,
    and x^2 into the similitude coordinate, so the S_s-pairing is
    2*sum(a[:d-s]) + sum(a[d-s:]) + 2*m0 = central + sum(a[:d-s]): the
    central weight plus a prefix sum of the a-vector.
    """
    prefix = list(itertools.accumulate(mu.a, initial=central_weight(mu)))
    return tuple(prefix[:0:-1])


def torus_pairing(mu: Weight, s: int) -> int:
    """Pairing of mu with the cocharacter S_s, s a parabolic index in {0..d-1}."""
    check_index(s, mu.d)
    return pairings(mu)[s]


def is_dominant(mu: Weight) -> bool:
    """Dominance for GSp_2d: a_1 >= a_2 >= ... >= a_d >= 0 (m0 unconstrained)."""
    a = mu.a
    return all(a[i] >= a[i + 1] for i in range(len(a) - 1)) and (not a or a[-1] >= 0)


def check_dominant(mu: Weight) -> Weight:
    if not is_dominant(mu):
        raise InputError(f"weight {mu.a};{mu.m0} is not dominant for GSp")
    return mu


def dot_action(v, shifted: Weight) -> tuple[list[int], int]:
    """w.lam = w(lam + rho) - rho as (a-vector, m0), for the w with w(rho) = v.

    ``shifted`` is lam + rho, with rho = (d, ..., 1) and m0 = 0.  An entry
    v[p] = +-rho_i says that w sends e_i to e_p, or, when negative, to
    e_0 - e_p (the similitude-compatible reflection t -> c/t of a torus
    coordinate): that puts +-shifted_i at p, and a flip adds shifted_i to
    m0.  The flipped shifted_i are the entries whose sign changed, so they
    sum to (sum(shifted) - sum(a + rho)) / 2.  Everything is integral; the
    central weight of the result equals that of lam because e_0 is
    Weyl-invariant.
    """
    d, s = len(v), shifted.a
    a = [(s[d - x] if x > 0 else -s[d + x]) - d + p for p, x in enumerate(v)]
    return a, shifted.m0 + (sum(s) - sum(a) - d * (d + 1) // 2) // 2


def _levi_cut(mu: Weight, blocks) -> list[tuple[int, ...]]:
    """mu's coordinates cut into GL blocks of the sizes ``blocks`` (positive
    integers with sum at most d), then the GSp block: the rest."""
    if not (isinstance(blocks, tuple) and all(is_int(k) and k > 0 for k in blocks)
            and sum(blocks) <= len(mu.a)):
        raise InputError(f"Levi blocks must be a tuple of positive integers "
                         f"with sum at most {len(mu.a)}, got {blocks!r}")
    a, lo, out = mu.a, 0, []
    for k in blocks:
        out.append(a[lo:lo + k])
        lo += k
    out.append(a[lo:])
    return out


def _cut_is_dominant(cut) -> bool:
    return (all(b[i] >= b[i + 1] for b in cut for i in range(len(b) - 1))
            and not (cut[-1] and cut[-1][-1] < 0))


def is_levi_dominant(mu: Weight, blocks) -> bool:
    """Dominance for the Levi GL_{blocks} x GSp: each GL block weakly
    decreasing, the GSp block weakly decreasing with last entry >= 0."""
    return _cut_is_dominant(_levi_cut(mu, blocks))


def weyl_dim(mu: Weight, blocks) -> int:
    """Dimension of the irreducible of highest weight mu for the Levi
    GL_{blocks} x GSp (``blocks`` as in ``ParabolicData.leviBlocks``).

    Product of the GL_k factors (b_i - b_j + j - i)/(j - i) per block and,
    with l = g + (r, r-1, ..., 1) and m = (r, ..., 1), the type-C factors
    l_i/m_i and (l_i^2 - l_j^2)/(m_i^2 - m_j^2) for the GSp block g: one
    integer numerator over one denominator, divided exactly.  Dominance
    makes every factor positive; the similitude exponent does not enter.
    """
    cut = _levi_cut(mu, blocks)  # one checked cut, read twice
    if not _cut_is_dominant(cut):
        raise InputError(f"{mu} is not dominant for the Levi blocks {blocks}")
    *gl, gsp = cut
    num = den = 1
    for b in gl:
        for i in range(len(b)):
            for j in range(i + 1, len(b)):
                num *= b[i] - b[j] + j - i
                den *= j - i
    r = len(gsp)
    l = [x + r - i for i, x in enumerate(gsp)]
    for i in range(r):
        num *= l[i]
        den *= r - i
        for j in range(i + 1, r):
            num *= l[i] ** 2 - l[j] ** 2
            den *= (r - i) ** 2 - (r - j) ** 2
    return exact_div(num, den)


class Summand(Value):
    """One graded piece: the Levi irreducible of highest weight ``levi`` in
    degree ``degree``, ``mult`` times.

    ``levi`` is the torus weight w.lam itself; the Levi it is a highest
    weight for is that of the parabolic set, ``ParabolicData.leviBlocks``.
    Its S_s-pairings and central weight are read from it where needed, as
    ``pairings(levi)`` and ``central_weight(levi)``.  Summands sort as their
    field tuples: by degree, then weight (a-vector, m0), then multiplicity.
    """

    degree: int
    levi: Weight
    mult: int = 1

    def __new__(cls, degree, levi, mult=1):
        return _new(cls, (degree, levi, mult))


class GradedVirtualRep(Value):
    """Integer combination of (degree, Levi highest weight) pairs, canonically sorted."""

    summands: tuple[Summand, ...]

    def __new__(cls, summands):
        return _new(cls, (summands,))

    @staticmethod
    def build(summands: Iterable[Summand]) -> "GradedVirtualRep":
        """Merge equal (degree, Levi weight) pairs, drop zero multiplicities,
        and sort the rest in the natural order of ``Summand``."""
        merged: dict[tuple[int, Weight], int] = {}
        for s in summands:
            key = (s.degree, s.levi)
            merged[key] = merged.get(key, 0) + s.mult
        kept = [Summand(degree, levi, mult)
                for (degree, levi), mult in merged.items() if mult != 0]
        kept.sort()
        return GradedVirtualRep(tuple(kept))

    def euler_dim(self, blocks) -> int:
        """Alternating dimension sum, for the Levi GL blocks ``blocks``."""
        return sum((-1) ** s.degree * s.mult * weyl_dim(s.levi, blocks)
                   for s in self.summands)


def truncate(module: GradedVirtualRep,
             conds: Iterable[tuple[int, Bound]]) -> GradedVirtualRep:
    """Keep the summands whose S_s-pairing is < bound for every (s, bound).

    S_s is central in the Levi of any parabolic containing index s, so the
    pairing of the highest weight decides the whole irreducible.  Every
    bound is checked, and every index s against the module's d (an empty
    module has no d), before any summand is read.
    """
    conds = list(conds)
    for _, bound in conds:
        _check_bound(bound)
    if module.summands:
        d = module.summands[0].levi.d
        for s, _ in conds:
            check_index(s, d)
    kept = []
    for summand in module.summands:
        p = pairings(summand.levi)
        if all(p[s] < bound for s, bound in conds):
            kept.append(summand)
    return GradedVirtualRep(tuple(kept))
