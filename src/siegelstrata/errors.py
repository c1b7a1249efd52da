"""Exception types and the shared genus/level/index checks.

Two failure families are kept apart so callers (and the CLI exit codes) can
distinguish "your input is mathematically invalid" from "this input is valid
but outside the configured computational envelope".
"""


class InputError(ValueError):
    """Invalid mathematical input: bad dominance, bad index, bad level."""


class LevelError(InputError):
    """Level or genus outside the standing hypotheses (n >= 3, d >= 1)."""


class ScopeError(RuntimeError):
    """Valid input, but beyond an enumeration cap or size guard."""


def is_int(x) -> bool:
    """An int that is not a bool: the only integer input the package takes,
    so 1.9, 0.5 or True is refused instead of truncated or read as 1."""
    return isinstance(x, int) and not isinstance(x, bool)


def check_genus(d, limit: int | None = None) -> None:
    """d must be a positive integer, and at most ``limit`` when one is given."""
    if not (is_int(d) and d >= 1):
        raise LevelError(f"genus must be a positive integer, got {d!r}")
    if limit is not None and d > limit:
        raise ScopeError(f"genus {d} exceeds the Weyl-group guard ({limit})")


def check_level(n) -> None:
    """Principal level n >= 3: the neatness (torsion-freeness) hypothesis."""
    if not (is_int(n) and n >= 3):
        raise LevelError(f"level must be an integer >= 3, got {n!r}")


def check_levels(n, m) -> None:
    """A nested pair of principal levels n | m."""
    check_level(n)
    if not (is_int(m) and m >= n and m % n == 0):
        raise LevelError(f"levels must satisfy n | m, got n={n}, m={m}")


def check_index(r, d: int) -> None:
    """Parabolic (stratum) index r in {0..d-1}."""
    if not (is_int(r) and 0 <= r <= d - 1):
        raise InputError(f"parabolic index {r!r} out of range for d={d}")
