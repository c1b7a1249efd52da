"""Orders of classical groups over Z/n, congruence indices, Euler
characteristics, and brute-force enumeration oracles.

Orders are computed by CRT from the prime-power formulas

    |GL_k(Z/p^e)|  = p^{(e-1)k^2} * prod_{i=0}^{k-1} (p^k - p^i)
    |SL_k|         = |GL_k| / phi(p^e)
    |Sp_2r(Z/p^e)| = p^{(e-1)(2r^2+r)} * p^{r^2} * prod_{i=1}^{r} (p^{2i}-1)
    |GSp_2r|       = |Sp_2r| * phi(p^e)

The symplectic closed forms are cross-examined in the test suite against
``brute_force_group``, which enumerates Sp and GSp from their defining
equation only (t(g) J g = c J for the antidiagonal J, c = 1 or a unit).

The enumerations give each group as the sorted integer keys of its
elements (a matrix's key is its row-major base-n number), and the oracles
read the keys; matrices, tuples of row tuples with entries reduced mod n,
are built only where a caller asks for them.  The module also carries the
generic subgroup-closure and orbit machinery the coset-counting oracles are
built from; closures and orbits run on column codes.  All arithmetic is
exact.
"""

import itertools
from bisect import bisect_left
from functools import lru_cache
from math import gcd
from operator import lt, mul, sub

from .errors import (InputError, ScopeError, Value, check_level, check_levels,
                     is_int)

DEFAULT_CAP = 200_000
_SCAN_GUARD = 5_000_000  # raw candidate-space bound; the column space gets a tenth


# ---------------------------------------------------------------------------
# group kinds

class GroupKind(Value):
    family: str  # "GL" | "SL" | "Sp" | "GSp"
    param: int   # k for GL/SL, 2r for Sp/GSp


def GL(k: int) -> GroupKind:
    return GroupKind("GL", _nonneg(k))


def SL(k: int) -> GroupKind:
    return GroupKind("SL", _nonneg(k))


def Sp(two_r: int) -> GroupKind:
    return GroupKind("Sp", _even("Sp", two_r))


def GSp(two_r: int) -> GroupKind:
    return GroupKind("GSp", _even("GSp", two_r))


def _nonneg(k) -> int:
    if not (is_int(k) and k >= 0):
        raise InputError(f"parameter must be a non-negative integer, got {k!r}")
    return k


def _even(family: str, two_r) -> int:
    if _nonneg(two_r) % 2:
        raise InputError(f"{family} parameter must be even, got {two_r}")
    return two_r


# ---------------------------------------------------------------------------
# integer utilities

def exact_div(num: int, den: int) -> int:
    """num / den, checked to divide exactly (the closed forms rely on it)."""
    q, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"{num} is not divisible by {den}")
    return q


FACTOR_LIMIT = 10 ** 12  # trial division up to 10^6: a fraction of a second


def factorint(n: int) -> dict[int, int]:
    """Prime factorization by trial division, refused above FACTOR_LIMIT."""
    if not (is_int(n) and n >= 1):
        raise InputError(f"cannot factor {n!r}")
    if n > FACTOR_LIMIT:
        raise ScopeError(f"{n} exceeds the factoring bound {FACTOR_LIMIT}")
    out: dict[int, int] = {}
    p, m = 2, n
    while p * p <= m:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def euler_phi(n: int) -> int:
    out = 1
    for p, e in factorint(n).items():
        out *= p ** (e - 1) * (p - 1)
    return out


def _gl_pp(k: int, p: int, e: int) -> int:
    out = p ** ((e - 1) * k * k)
    for i in range(k):
        out *= p ** k - p ** i
    return out


def _sp_pp(two_r: int, p: int, e: int) -> int:
    r = two_r // 2
    out = p ** ((e - 1) * (2 * r * r + r)) * p ** (r * r)
    for i in range(1, r + 1):
        out *= p ** (2 * i) - 1
    return out


def _order_any_level(kind: GroupKind, n: int) -> int:
    """Order over Z/n with n >= 1 (n = 1 gives the trivial group)."""
    if kind.family == "SL" and kind.param == 0:
        return 1  # SL_0 is trivial; phi(p^e) need not divide |GL_0| = 1
    out = 1
    for p, e in factorint(n).items():
        phi_pp = p ** (e - 1) * (p - 1)
        if kind.family == "GL":
            out *= _gl_pp(kind.param, p, e)
        elif kind.family == "SL":
            out *= exact_div(_gl_pp(kind.param, p, e), phi_pp)
        elif kind.family == "Sp":
            out *= _sp_pp(kind.param, p, e)
        elif kind.family == "GSp":
            out *= _sp_pp(kind.param, p, e) * phi_pp
        else:
            raise InputError(f"unknown group family {kind.family!r}")
    return out


def group_order(kind: GroupKind, n: int) -> int:
    """|kind(Z/n)| for n >= 2, multiplicative over coprime factors."""
    if not (is_int(n) and n >= 2):
        raise InputError(f"modulus must be an integer >= 2, got {n!r}")
    return _order_any_level(kind, n)


def integral_image_order(k: int, n: int) -> int:
    """Order of the image of GL_k(Z) in GL_k(Z/n).

    Integral determinants are +-1, so the image is the det-in-{+-1 mod n}
    subgroup: order 2|SL_k(Z/n)| for n >= 3, |SL_k| for n <= 2, and 1 when
    k = 0.
    """
    _nonneg(k)
    if not (is_int(n) and n >= 1):
        raise InputError(f"modulus must be a positive integer, got {n!r}")
    sl = _order_any_level(SL(k), n)  # 1 if k = 0 or n = 1
    return 2 * sl if n >= 3 and k else sl


def congruence_index(kind: GroupKind, n: int, m: int) -> int:
    """|kind(Z/m)| / |kind(Z/n)| for 3 <= n | m; exact division asserted."""
    check_levels(n, m)
    return exact_div(group_order(kind, m), group_order(kind, n))


def euler_char_congruence(k: int, n: int) -> int:
    """Euler characteristic of the principal level-n congruence subgroup of SL_k(Z).

    e = |SL_k(Z/n)| * prod_{i=2..k} zeta(1-i); the subgroup is torsion-free
    for n >= 3, which the formula needs.  It is taken in integers: |SL_1| = 1
    for k = 1, -|SL_2(Z/n)| / 12 for k = 2 (zeta(-1) = -1/12), and 0 for
    k >= 3 (zeta(-2) = -B_3/3 = 0); a non-integral value raises ArithmeticError.
    """
    if not (is_int(k) and k >= 1):
        raise InputError(f"block size must be >= 1, got {k!r}")
    check_level(n)
    if k >= 3:
        return 0
    order = group_order(SL(k), n)
    if k == 2 and order % 12:
        g = gcd(order, 12)
        raise ArithmeticError(f"e_2 at level {n} is not an integer: -{order // g}/{12 // g}")
    return order if k == 1 else -(order // 12)


# ---------------------------------------------------------------------------
# matrix utilities (tuples of row tuples, entries in [0, n))

def identity_matrix(size: int):
    return tuple(tuple(1 if i == j else 0 for j in range(size)) for i in range(size))

def mat_mul(a, b, n: int):
    size = len(a)
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(ra[k] * cb[k] for k in range(size)) % n for cb in bt)
        for ra in a)

def mat_mod(a, n: int):
    return tuple(tuple(x % n for x in row) for row in a)


def symplectic_form(u, v, n: int) -> int:
    """t(u) J v mod n for the antidiagonal J: +1 on the upper half of the
    antidiagonal, -1 on the lower half.  The one definition of the form:
    ``similitude`` evaluates it on the column pairs of the one matrix it
    checks, ``_form_row`` on unit vectors, filling ``_form_table``."""
    size, s = len(u), 0
    for i in range(size // 2):
        s += u[i] * v[size - 1 - i] - u[size - 1 - i] * v[i]
    return s % n


def similitude(g, n: int):
    """Similitude factor c with t(g) J g = c J, or None if g fails the identity.

    Entry (i, j) of t(g) J g is the form on columns i and j.  The form is
    alternating, so the pairs i < j decide the identity: c is the form on
    (col_0, col_{2d-1}), the other partner pairs (i, j), i + j = 2d-1, must
    give c too, and all other pairs 0.  Takes any positive even size (size
    0 and odd sizes are refused) and any integer entries, and builds no
    table: this is the check for a single matrix.
    """
    cols = tuple(zip(*g))
    size = _symplectic_size(len(cols))
    c = symplectic_form(cols[0], cols[-1], n)
    for i in range(size):
        for j in range(i + 1, size):
            if symplectic_form(cols[i], cols[j], n) != (c if i + j == size - 1 else 0):
                return None
    return c


def _symplectic_size(size) -> int:
    """size, checked to be the positive even size of a symplectic matrix."""
    if not (is_int(size) and size > 0 and size % 2 == 0):
        raise InputError(f"a symplectic matrix has a positive even size, got {size!r}")
    return size


def similitudes(keys, size: int, n: int) -> list:
    """``similitude`` of the transpose of each size x size matrix given by
    its key (entries in [0, n), as ``_brute_force_cached`` gives them),
    element for element, for any list of keys.  Size 0 and odd sizes are
    refused (InputError), and sizes above 4, which no enumeration under
    ``DEFAULT_CAP`` reaches, are out of scope (ScopeError).

    A key's rows, its base-n^size digits, are checked for g J t(g) = c J
    on the enumeration's ``_form_table``: c is the form on the first and
    last rows, the other partner pairs must give c and every other pair 0.
    At size 2 that is one entry, the form on the key's two row codes.  At
    size 4 a key is its top and bottom halves of rows; the half with code
    h is entry h of ``_vectors(2, n^4)``.  One table per call holds each
    half's rows, or None where the pair inside the half fails (partners
    lie in different halves).  The keys are walked in runs that share
    their top half, found by ``bisect_left``; a run with a key outside that
    half is cut to its first key, so unsorted keys are read correctly too.
    A run looks its top half up once, and each key looks up its bottom
    half and compares the pairs across the halves.  GSp is closed under
    transpose, so for a unit c this is t(g) J g = c J; a non-unit factor
    is the caller's to refuse.
    """
    half, base = _symplectic_size(size) // 2, n ** size
    if half > 2:
        raise ScopeError(f"similitudes checks keys of size 2 or 4, not {size}")
    table, split = _form_table(size, n), base ** half
    if half == 1:
        return [table[key // split][key % split] for key in keys]
    halves = [None if table[u][v] else (u, v) for u, v in _vectors(2, base)]
    out, start = [], 0
    append = out.append
    while start < len(keys):
        lo = keys[start] // split * split
        run = keys[start:bisect_left(keys, lo + split, start + 1)]
        if min(run) < lo or max(run) >= lo + split:
            run = run[:1]
        start += len(run)
        tops = halves[lo // split]
        if tops is None:
            out.extend([None] * len(run))
            continue
        row0, row1 = table[tops[0]], table[tops[1]]
        for rows in map(halves.__getitem__, map(sub, run, itertools.repeat(lo))):
            if rows is None:
                append(None)
            else:
                b2, b3 = rows
                c = row0[b3]
                append(None if row0[b2] or row1[b3] or row1[b2] != c else c)
    return out


# ---------------------------------------------------------------------------
# brute-force enumeration

def _unit(x: int, n: int) -> bool:
    return gcd(x % n, n) == 1


def units(n: int) -> tuple:
    """The units mod n, increasing."""
    return tuple(u for u in range(1, n) if _unit(u, n))


@lru_cache(maxsize=None)
def _vectors(size: int, n: int) -> tuple:
    """The n^size vectors over Z/n in lexicographic order, so that the
    vector with code c (its base-n digits, first entry most significant)
    is entry c; with n = n'^size they are the halves of a key's row codes."""
    return tuple(itertools.product(range(n), repeat=size))


@lru_cache(maxsize=None)
def _column_spread(size: int, n: int) -> tuple:
    """spread[j][c]: the share of a matrix's key (``_ColumnCodes.key``)
    that the vector with code c adds as column j."""
    codes = _column_codes(size, n)
    return tuple(tuple([codes.spread(c) * p for c in range(n ** size)])
                 for p in codes.powers)


def _decode(keys, size: int, n: int) -> tuple:
    """The size x size matrices with these keys, as tuples of row tuples:
    the one code that builds matrices.  A key is its top and bottom halves
    of rows, base-n^size row codes; only the halves the keys use are read,
    each once per call, into the shared row tuples of ``_ColumnCodes.column``."""
    column, base, low = _column_codes(size, n).column, n ** size, size // 2

    def halves(count: int) -> _Lazy:
        powers = [base ** (count - 1 - i) for i in range(count)]
        return _Lazy(lambda h: tuple([column(h // p % base) for p in powers]))

    top, bottom, split = halves(size - low), halves(low), base ** low
    return tuple([top[key // split] + bottom[key % split] for key in keys])


def _form_row(u, n: int) -> tuple:
    """The form of the vector u against every vector of ``_vectors``, in
    code order: a row of ``_form_table``.  v -> t(u) J v is linear, so the
    row is built one digit of v at a time from the form on the unit
    vectors, each digit appending n shifted copies of the row so far."""
    size, row = len(u), [0]
    for k in range(size):
        f = symplectic_form(u, tuple(int(i == k) for i in range(size)), n)
        row = [(s + a * f) % n for s in row for a in range(n)]
    return tuple(row)


@lru_cache(maxsize=None)
def _form_table(size: int, n: int) -> tuple:
    """The form on column codes: entry [u][v] is t(u) J v for the vectors
    with codes u and v, n^{4d} entries (6,561 at d = 2, n = 3).  Cached,
    so the enumeration of GSp_2d(Z/n) and ``similitudes`` on the keys it
    gives read one table."""
    return tuple(_form_row(u, n) for u in _vectors(size, n))


def _enumerate_symplectic(d: int, n: int, sim: int | None) -> list:
    """Keys of all g with t(g) J g = c J; c = sim if given (a unit), else
    any unit.

    Columns are filled in partner pairs (i, 2d-1-i): inside a pair the
    form must be c, across pairs it must vanish; everything else is free.
    Each pair is drawn from the vectors orthogonal to every column placed
    before it, the intersection of their orthogonal sets, so the search
    from pair k on depends only on k, the allowed form values and those
    candidates: ``shares`` lists its key shares once per such triple.

    A column is its code in [0, N), N = n^{2d} (its index in
    ``_vectors``), and a matrix is its row-major key, the sum of the
    ``_column_spread`` values of its columns.  The form is read from
    ``_form_table``; its N^2 = n^{4d} entries are far fewer than the
    group's elements at d >= 2, and about as many at d = 1.
    """
    size = 2 * d
    if n ** size > _SCAN_GUARD // 10:
        raise ScopeError(f"column space {n}^{size} too large for backtracking")
    spread = _column_spread(size, n)
    table = _form_table(size, n)
    orth = _Lazy(lambda u: {v for v, f in enumerate(table[u]) if not f})

    def search(k: int, values, candidates) -> list:
        """Key shares of columns k..2d-1-k: pairs (u, v) of candidates
        as columns (k, 2d-1-k) whose form value is in values, each with
        the shares of the pairs after it."""
        first, partner, out = spread[k], spread[size - 1 - k], []
        for u in candidates:
            row, head = table[u], first[u]
            for v in candidates:
                if row[v] in values:
                    pair = head + partner[v]
                    if k + 1 == d:
                        out.append(pair)
                    else:
                        out.extend([pair + s for s in shares[
                            k + 1, (row[v],), candidates & orth[u] & orth[v]]])
        return out

    shares = _Lazy(lambda args: search(*args))
    factors = frozenset(units(n) if sim is None else [sim % n])
    return shares[0, factors, frozenset(range(n ** size))]


@lru_cache(maxsize=None)
def _brute_force_cached(kind: GroupKind, n: int, cap: int) -> tuple:
    """(keys, size): the sorted keys of kind over Z/n, checked, and the size
    of its matrices (1 for GSp_0, the similitude torus)."""
    fam, size = kind.family, kind.param
    if fam not in ("Sp", "GSp"):
        raise InputError(f"brute-force enumeration covers Sp and GSp, not {fam}")
    expected = _order_any_level(kind, n)
    if expected > cap:
        raise ScopeError(f"|{fam}({size}) over Z/{n}| = {expected} exceeds cap {cap}")
    if size == 0:
        # GSp_0 is the similitude torus GL_1 (1 x 1 matrices); Sp_0 is trivial.
        size, keys = (1, list(units(n))) if fam == "GSp" else (0, [0])
    else:
        keys = _enumerate_symplectic(size // 2, n, 1 if fam == "Sp" else None)
    # Keys order matrices as their tuples of rows do, so strictly increasing
    # sorted keys mean a duplicate-free enumeration, whose count must be the
    # order; both are checked before any matrix is built.
    keys.sort()
    if len(keys) != expected or not all(map(lt, keys, keys[1:])):
        raise ArithmeticError(
            f"enumerating {kind.family}({kind.param}) over Z/{n} gave "
            f"{len(keys)} elements, not {expected} distinct ones")
    return tuple(keys), size


def brute_force_group(kind: GroupKind, n: int, cap: int = DEFAULT_CAP):
    """Exhaustive, duplicate-free, canonically sorted enumeration of Sp or
    GSp over Z/n; GL and SL are refused.

    The enumeration uses only the symplectic-similitude identity; it is
    checked to be duplicate-free and of the closed-form order, also under
    ``python -O``, so a discrepancy in either direction fails loudly.
    """
    if not (is_int(n) and n >= 2):
        raise InputError(f"modulus must be an integer >= 2, got {n!r}")
    return _decoded(kind, n, cap)


@lru_cache(maxsize=None)
def _decoded(kind: GroupKind, n: int, cap: int) -> tuple:
    """The matrices of ``_brute_force_cached``, decoded once per group."""
    keys, size = _brute_force_cached(kind, n, cap)
    return _decode(keys, size, n)


# ---------------------------------------------------------------------------
# subgroup closures and orbits, on column codes

class _Lazy(dict):
    """A dict that fills a missing key with ``fill(key)`` when it is read."""

    def __init__(self, fill):
        self.fill = fill

    def __missing__(self, key):
        self[key] = value = self.fill(key)
        return value


class _ColumnCodes:
    """size x size matrices over Z/n as tuples of column codes; a column's
    code is its index in ``_vectors(size, n)``.  Each map is filled as it
    is read, so the work is bounded by the columns met, not by n^size.
    ``action(g)`` gives one map per generator g (a tuple of row tuples)."""

    def __init__(self, size: int, n: int):
        self.n, self.powers = n, tuple(n ** (size - 1 - i) for i in range(size))
        rows = tuple(p ** size for p in self.powers)  # weights of column 0 in a key
        self.code = _Lazy(lambda v: sum(map(mul, v, self.powers))).__getitem__
        self.column = _Lazy(
            lambda c: tuple([c // p % n for p in self.powers])).__getitem__
        self.spread = _Lazy(lambda c: sum(map(mul, self.column(c), rows))).__getitem__
        self.action = _Lazy(self._action).__getitem__

    def encode(self, x) -> tuple:
        return tuple(map(self.code, zip(*x)))

    def key(self, x) -> int:
        """The matrix's key, its row-major base-n number: entry (i, j)
        weighs n^(size^2 - 1 - i*size - j).  With every entry in [0, n),
        keys order matrices exactly as their tuples of rows do."""
        return sum(map(mul, map(self.spread, x), self.powers))

    def _action(self, g):
        """code(v) -> code(g v mod n), for g with any integer entries."""
        n, column, code = self.n, self.column, self.code
        return _Lazy(lambda c: code(tuple(
            [sum(map(mul, row, column(c))) % n for row in g]))).__getitem__


@lru_cache(maxsize=None)
def _column_codes(size: int, n: int) -> _ColumnCodes:
    """The one ``_ColumnCodes`` of (size, n), so closures, orbits and the
    enumeration share its maps and each generator's action."""
    return _ColumnCodes(size, n)


def _orbit(seed, acts, cap: int | None = None) -> set:
    """Breadth-first closure of {seed} under left multiplication, on column
    codes: ``acts`` holds one ``_ColumnCodes.action`` per generator g, so
    g x is ``tuple(map(act, x))`` and the orbit set hashes int tuples.
    Raises ScopeError once the orbit would pass ``cap`` elements (no cap if
    None).  The generator order fixes the visiting order on every run."""
    orbit = {seed}
    frontier = [seed]
    while frontier:
        nxt = []
        for x in frontier:
            for act in acts:
                y = tuple(map(act, x))
                if y not in orbit:
                    if cap is not None and len(orbit) >= cap:
                        raise ScopeError(f"orbit exceeded cap {cap}")
                    orbit.add(y)
                    nxt.append(y)
        frontier = nxt
    return orbit


def _closure_codes(gens, n: int, cap: int = DEFAULT_CAP) -> frozenset:
    """BFS closure of generator matrices under multiplication mod n, as the
    column-code tuples of its elements (``_ColumnCodes`` of (size, n)), so
    closures at one (size, n) compare and count without a matrix built."""
    if not gens:
        raise InputError("need at least one generator")
    codes = _column_codes(len(gens[0]), n)  # identity column j has code powers[j]
    return frozenset(_orbit(codes.powers, [codes.action(g) for g in gens], cap))


def subgroup_closure(gens, n: int, cap: int = DEFAULT_CAP):
    """BFS closure of generator matrices under multiplication mod n, as
    matrices: ``_closure_codes``, decoded by their keys."""
    closure = _closure_codes(gens, n, cap)
    size = len(gens[0])
    return frozenset(_decode(list(map(_column_codes(size, n).key, closure)), size, n))


def left_orbits(universe, gens, n: int):
    """Partition of ``universe`` (entries in [0, n)) into orbits of left
    multiplication by <gens>: {canonical representative (min of orbit):
    orbit size}.  The universe is encoded once, and each generator's action
    is shared with every other closure or orbit at (size, n).  Only
    generators are needed; a generation gap makes orbits split visibly
    rather than silently merge."""
    size = len(next(iter(universe), ()))
    codes = _column_codes(size, n)
    acts = [codes.action(g) for g in gens]
    remaining = set(map(codes.encode, universe))
    reps: dict = {}  # an orbit's least key: its size
    while remaining:
        orbit = _orbit(remaining.pop(), acts)
        remaining -= orbit
        reps[min(map(codes.key, orbit))] = len(orbit)
    return dict(zip(_decode(list(reps), size, n), reps.values()))


def orbit_canonical(x, gens, n: int, cap: int = DEFAULT_CAP):
    """Minimal element of the left orbit of x (canonical class label), on
    the shared column codes and generator actions of (size, n)."""
    x = mat_mod(x, n)
    codes = _column_codes(len(x), n)
    orbit = _orbit(codes.encode(x), [codes.action(g) for g in gens], cap)
    return _decode([min(map(codes.key, orbit))], len(x), n)[0]
