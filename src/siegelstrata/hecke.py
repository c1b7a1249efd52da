"""Level-transfer (Hecke) structure on boundary strata.

For nested principal levels n | m the identity double coset K(n) 1 K(m)
induces a transfer from level-m strata to level-n strata.  Three integers
control it for a parabolic set S:

  - ``transfer_degree``: the index of the level-m principal subgroup in the
    level-n one, |GSp_2d(Z/m)| / |GSp_2d(Z/n)|;
  - ``hecke_index``: the part of that index absorbed by the linear Levi
    blocks and the nilpotent radical, (m/n)^dim N_S * prod [SL_{n_i}(Z/m) :
    SL_{n_i}(Z/n)];
  - ``boundary_fiber_count``: their quotient, the number of geometric
    points of a level-m stratum over a point of its image stratum.

At the level of coset classes (which merge the phi(m)/phi(n) components a
geometric stratum splits into under the similitude action), the fiber size
is ``reduction_fiber_count``; the two agree exactly when phi(m) = phi(n).
``hecke_matrix_structure`` tabulates the full transfer matrix between the
two finite class sets at level n alone: right multiplication by g permutes
the level-n classes, and over each of them lie ``reduction_fiber_count``
level-m classes, so every count is that closed form.  The test suite
certifies it against the literal level-m tabulation.
"""

from math import gcd
from typing import NamedTuple

from .arith import (DEFAULT_CAP, GSp, SL, brute_force_group, congruence_index,
                    exact_div, identity_matrix, left_orbits, mat_mod, mat_mul,
                    orbit_canonical, similitude)
from .errors import InputError, check_genus, check_levels
from .grouptheory import MAX_DEFAULT_GENUS, build_context, parabolic_data
from .matrixmodel import parabolic_generators


# A NamedTuple body may not define __new__, so the fields sit on a private base.
class _HeckeDatum(NamedTuple):
    d: int
    n: int
    m: int


class HeckeDatum(_HeckeDatum):
    """A genus (at most MAX_DEFAULT_GENUS) with nested principal levels n | m."""

    __slots__ = ()

    def __new__(cls, d, n, m):
        check_levels(n, m)
        check_genus(d, MAX_DEFAULT_GENUS)
        return tuple.__new__(cls, (d, n, m))


def _pdata(datum: HeckeDatum, S):
    ctx = build_context(datum.d, datum.n)
    return parabolic_data(ctx, S)


def transfer_degree(datum: HeckeDatum) -> int:
    """[K(n) : K(m)] = |GSp_2d(Z/m)| / |GSp_2d(Z/n)|."""
    return congruence_index(GSp(2 * datum.d), datum.n, datum.m)


def hecke_index(datum: HeckeDatum, S) -> int:
    """(m/n)^dim N_S times the SL congruence indices of the GL Levi blocks.

    This is the degree along the directions that stay inside a single
    stratum; the GSp_2r factor is deliberately absent (its level change
    belongs to the smaller stratum variety, not to the fibers).
    """
    pd = _pdata(datum, S)
    out = (datum.m // datum.n) ** pd.dimN
    for k in pd.leviBlocks:
        out *= congruence_index(SL(k), datum.n, datum.m)
    return out


def boundary_fiber_count(datum: HeckeDatum, S) -> int:
    """Fiber size of the level map on geometric stratum points:
    transfer_degree / hecke_index, asserted to divide exactly."""
    return exact_div(transfer_degree(datum), hecke_index(datum, S))


def reduction_fiber_count(datum: HeckeDatum, S) -> int:
    """Fiber size on coset classes: boundary_fiber_count divided by the
    GSp_2r congruence index (phi(m)/phi(n) when r = 0)."""
    pd = _pdata(datum, S)
    gsp_idx = congruence_index(GSp(2 * pd.r), datum.n, datum.m)
    return exact_div(transfer_degree(datum), hecke_index(datum, S) * gsp_idx)


class HeckeMatrixStructure(NamedTuple):
    """Transfer-matrix support between level-m and level-n stratum classes.

    ``classes`` are the level-n class labels (canonical minimal coset
    representatives, sorted); ``entries`` are triples (i, j, count): count
    level-m classes C' with C'g in class i and C' over class j.
    """

    classes: tuple
    entries: tuple[tuple[int, int, int], ...]

    def column_totals(self) -> tuple[int, ...]:
        """Per-target-class totals; each equals the class-level fiber size."""
        totals = [0] * len(self.classes)
        for _, j, count in self.entries:
            totals[j] += count
        return tuple(totals)


def hecke_matrix_structure(datum: HeckeDatum, S, g=None,
                           cap: int = DEFAULT_CAP) -> HeckeMatrixStructure:
    """Tabulate C' -> (class of C'g at level n, class of C' at level n).

    g is an integer matrix whose reduction lies in GSp_2d(Z/m) (identity if
    omitted).  Only GSp_2d(Z/n) is enumerated and partitioned, so ``cap``
    bounds level n.  Right multiplication by g sends the level-n class of
    x to that of x g, a permutation of the classes; reduction to level n is
    onto and H_S(m) reduces into H_S(n), so over every level-n class lie
    exactly ``reduction_fiber_count`` level-m classes.  Every count is that
    closed form, whatever g is; the test suite checks it against the
    literal level-m tabulation.
    """
    d, n, m = datum.d, datum.n, datum.m
    size = 2 * d
    if g is None:
        g = identity_matrix(size)
    g = mat_mod(g, m)
    if len(g) != size or any(len(row) != size for row in g):
        raise InputError(f"g must be a {size} x {size} matrix")
    c = similitude(g, m)
    if c is None or gcd(c, m) != 1:
        raise InputError("g must satisfy the symplectic-similitude identity "
                         "with a unit similitude factor")

    gens_n = parabolic_generators(build_context(d, n), S)
    classes = tuple(sorted(
        left_orbits(brute_force_group(GSp(size), n, cap), gens_n, n)))
    index_of = {rep: i for i, rep in enumerate(classes)}
    fiber = reduction_fiber_count(datum, S)
    # g sends a left coset H x to H x g, so the level-n class of C'g depends
    # only on the class j of C': every C' over j lands in the class of
    # (class j) g, and the entry of column j is one triple.
    entries = tuple(sorted(
        (index_of[orbit_canonical(mat_mul(rep, g, n), gens_n, n)], j, fiber)
        for j, rep in enumerate(classes)))
    return HeckeMatrixStructure(classes=classes, entries=entries)
