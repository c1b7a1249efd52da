"""Seeded request lists for the three benchmark workloads.

A workload is one pass of CLI requests; the harness repeats the pass for the
measured time.  Each pass is built from fixed slots.  In ``restrict`` and
``oracle`` a slot fixes the genus d, which sets most of a request's cost; in
``lookup``, where every request is short, the seed draws it.  The restriction
slots at d = 3, 4 and 5 fix the subcommand, and those at d = 5 and 6 fix the
stratum index, except the d = 5 ``chain-term`` slot.  The seed draws the rest:
the weight, level, profiles, chains, matrices and modes a slot leaves open,
the parabolic set of the d = 5 ``kostant`` slot, the subcommand of the second
d = 6 slot, and the order of the pass.  Different seeds therefore give
different argv lists with similar work; README.md gives the spread this
leaves across seeds.

Every request stays inside the calculator's current guards: d <= 6, the
brute-force caps, and no input known to hang.  Requests that must be
refused expect exit code 2; none expects the out-of-range exit 3, since a
later change may lift that guard.
"""

from __future__ import annotations

import random
from math import gcd
from typing import NamedTuple

WORKLOADS = ("restrict", "oracle", "lookup")
LEVELS = (3, 4, 5, 7, 8)


class Request(NamedTuple):
    argv: tuple[str, ...]
    expect: int  # exit code: 0 for an answer, 2 for refused input


def requests(workload: str, seed: int) -> list[Request]:
    """The pass of ``workload`` for ``seed``; the same seed gives the same list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    out = [Request(tuple(str(x) for x in argv), expect)
           for argv, expect in _BUILDERS[workload](rng)]
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# random inputs

def _weight(rng: random.Random, d: int) -> str:
    """A dominant weight a_1 >= ... >= a_d >= 0 with a similitude exponent m0."""
    a = sorted((rng.randint(0, 4) for _ in range(d)), reverse=True)
    return ",".join(map(str, a)) + f"@{rng.randint(-3, 3)}"


def _bound(rng: random.Random) -> str:
    x = rng.random()
    if x < 0.15:
        return "inf"
    if x < 0.3:
        return "-inf"
    return str(rng.randint(-12, 12))


def _profile(rng: random.Random, d: int) -> str:
    return ",".join(_bound(rng) for _ in range(d))


def _chain(rng: random.Random, d: int, r: int) -> str:
    """Thresholds s:a with s strictly decreasing and every s in [r, d-1]."""
    size = rng.randint(0, min(2, d - r))
    indices = sorted(rng.sample(range(r, d), size), reverse=True)
    return ",".join(f"{s}:{_bound(rng)}" for s in indices)


def _set_from(rng: random.Random, d: int, r: int) -> str:
    """A parabolic set with minimum r."""
    extra = [s for s in range(r + 1, d) if rng.random() < 0.4]
    return ",".join(map(str, [r] + extra))


def _mode(rng: random.Random) -> str:
    return rng.choice(("symbolic", "euler"))


def _restriction(rng: random.Random, cmd: str, d: int, r: int | None = None,
                 mode: str | None = None, S: str | None = None) -> list:
    """One restriction-family request; unset parameters are drawn from rng.

    Profiles and chains are passed as ``--opt=value`` because they may start
    with a minus sign.
    """
    n = rng.choice(LEVELS)
    if r is None:
        r = rng.randrange(d)
    argv = [cmd, "--d", d, "--n", n, "--lambda", _weight(rng, d)]
    if cmd == "kostant":
        return argv + ["--S", S if S is not None else _set_from(rng, d, r)]
    argv += ["--stratum", r]
    if cmd == "restrict-weighted":
        argv.append(f"--profile={_profile(rng, d)}")
    elif cmd == "euler":
        if rng.random() < 0.7:
            argv.append(f"--profile={_profile(rng, d)}")
        return argv  # always evaluated, takes no --mode
    elif cmd == "chain-term":
        argv.append(f"--chain={_chain(rng, d, r)}")
    return argv + ["--mode", mode or _mode(rng)]


# ---------------------------------------------------------------------------
# workloads

_RESTRICT_FAMILY = ("restrict-ic", "restrict-weighted", "euler", "chain-term",
                    "kostant")


def _restrict(rng: random.Random):
    """Weyl-group enumeration, Kostant representatives, truncation and the
    restriction engine; render on the symbolic requests."""
    slots = []
    # d = 3 and 4: every subcommand at any stratum, the three with a mode
    # twice.  Their cost is mostly interpreter start, so every parameter,
    # the mode included, is drawn from the seed.
    for d in (3, 4):
        for cmd in _RESTRICT_FAMILY:
            slots.append(_restriction(rng, cmd, d))
            if cmd not in ("euler", "kostant"):
                slots.append(_restriction(rng, cmd, d))
    # d = 5: the stratum fixes how many parabolic sets are summed, so it is
    # fixed per slot; r = 0 is the 2^4-set case in both modes.
    slots += [
        _restriction(rng, "restrict-ic", 5, 0, "euler"),
        _restriction(rng, "restrict-ic", 5, 0, "symbolic"),
        _restriction(rng, "restrict-weighted", 5, 1),
        _restriction(rng, "euler", 5, 2),
        _restriction(rng, "chain-term", 5, rng.randrange(5)),
        _restriction(rng, "kostant", 5, S=str(rng.randrange(5))),
    ]
    # d = 6 at r >= 2: each request enumerates the 46,080-element Weyl group
    # from scratch, so these dominate the tail.
    slots += [
        _restriction(rng, "restrict-ic", 6, 4),
        _restriction(rng, rng.choice(_RESTRICT_FAMILY[1:]), 6, 5, S="5"),
    ]
    # A little of the oracle layers, so no layer reads exactly zero.
    slots += [["oracle", "--d", 1, "--n", rng.randint(3, 6), "--S", 0],
              ["hecke-matrix", "--d", 1, "--n", 3, "--m", 6, "--S", 0]]
    return [(argv, 0) for argv in slots]


_D2_ORACLES = ((0, None), (0, "0,1"), (1, None), (1, "1"))
_HECKE_LEVELS = ((3, 6), (3, 9), (4, 8), (3, 12))


def _unit_matrix(rng: random.Random, m: int) -> str:
    """A 2x2 matrix mod m with unit determinant (GSp_2 = GL_2)."""
    while True:
        g = [rng.randrange(m) for _ in range(4)]
        if gcd(g[0] * g[3] - g[1] * g[2], m) == 1:
            return f"{g[0]},{g[1]};{g[2]},{g[3]}"


def _oracle(rng: random.Random):
    """Brute-force group enumeration, subgroup closure and orbit partitions."""
    r, S = rng.choice(_D2_ORACLES)
    slots = [["oracle", "--d", 2, "--n", 3, "--stratum", r]
             + ([] if S is None else ["--S", S])]
    for n in range(3, 13):
        slots.append(["oracle", "--d", 1, "--n", n]
                     + (["--S", 0] if rng.random() < 0.5 else []))
    for n, m in _HECKE_LEVELS:
        g = "identity" if rng.random() < 0.25 else _unit_matrix(rng, m)
        slots.append(["hecke-matrix", "--d", 1, "--n", n, "--m", m, "--S", 0, "--g", g])
    # A little of the restriction layers, so no layer reads exactly zero.
    slots += [_restriction(rng, "restrict-ic", 2, mode="symbolic"),
              _restriction(rng, "chain-term", 2, mode="euler")]
    return [(argv, 0) for argv in slots]


def _lookup(rng: random.Random):
    """Short requests: start-up, import, argument parsing and render."""
    def dn():
        return ["--d", rng.randint(1, 6), "--n", rng.choice(LEVELS)]

    def dnm():
        n = rng.choice((3, 4, 5))
        return ["--d", rng.randint(1, 6), "--n", n, "--m", n * rng.choice((2, 3))]

    def S_of(argv):
        d = argv[2]
        return _set_from(rng, d, rng.randrange(d))

    ok = []
    for _ in range(3):
        ok.append(["context", *dn()])
        argv = ["strata", *dn()]
        if rng.random() < 0.5:
            argv += ["--stratum", rng.randrange(argv[2])]
        ok.append(argv)
        for cmd in ("hecke-index", "transfer-degree", "fiber-count"):
            argv = [cmd, *dnm()]
            ok.append(argv if cmd == "transfer-degree" else argv + ["--S", S_of(argv)])
    for _ in range(2):
        argv = ["strata", *dn()]
        S = S_of(argv)
        ok.append(argv + ["--S", S, "--stratum", S.split(",")[0]])
    for _ in range(4):
        d = rng.randint(1, 6)
        ok.append(["expansion", "--d", d, "--n", rng.choice(LEVELS),
                   "--lambda", _weight(rng, d), "--stratum", rng.randrange(d),
                   f"--profile={_profile(rng, d)}"])
    for cmd in ("kostant", "restrict-ic", "restrict-weighted", "chain-term"):
        for mode in ("symbolic", "euler"):
            ok.append(_restriction(rng, cmd, rng.randint(1, 2), mode=mode))
    for S in ([], ["--S", 0]):
        ok.append(["oracle", "--d", 1, "--n", rng.randint(3, 6), *S])
    ok.append(["hecke-matrix", "--d", 1, "--n", 3, "--m", 6, "--S", 0])

    bad = []
    for _ in range(2):
        d = rng.randint(2, 4)
        increasing = [rng.randint(0, 2)]
        for _ in range(d - 1):
            increasing.append(increasing[-1] + rng.randint(1, 2))
        cmd = rng.choice(("kostant", "restrict-ic"))
        argv = _restriction(rng, cmd, d)
        argv[argv.index("--lambda") + 1] = ",".join(map(str, increasing)) + "@0"
        bad.append(argv)  # not dominant: a_1 < a_2
        argv = _restriction(rng, "restrict-weighted", d)
        at = next(i for i, tok in enumerate(argv) if str(tok).startswith("--profile="))
        argv[at] = f"--profile={_profile(rng, d + rng.choice((-1, 1)))}"
        bad.append(argv)  # profile of the wrong length
        bad.append(["context", "--d", d, "--n", rng.randint(-1, 2)])  # n < 3
        n = rng.choice((3, 4, 5))
        bad.append(["transfer-degree", "--d", d, "--n", n, "--m", n * 2 + 1])  # n does not divide m
    return [(argv, 0) for argv in ok] + [(argv, 2) for argv in bad]


_BUILDERS = {"restrict": _restrict, "oracle": _oracle, "lookup": _lookup}
