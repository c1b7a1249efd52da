"""Exception types, the shared genus/level/index checks, and ``Value``, the
base of the package's value types.

Two failure families are kept apart so callers (and the CLI exit codes) can
distinguish "your input is mathematically invalid" from "this input is valid
but outside the configured computational envelope".
"""

try:
    from _collections import _tuplegetter  # CPython's C reader of one tuple item
except ImportError:  # not CPython: a property reads the item instead
    from operator import itemgetter

    def _tuplegetter(index, doc):
        return property(itemgetter(index), doc=doc)

# Bound once, so that a hot value type's own __new__ calling it pays no
# attribute lookup.
_new = tuple.__new__


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


class _ValueType(type):
    """Makes each ``Value`` class slotted (no instance ``__dict__``) and gives
    it one read-only property per annotated field; a field's class attribute
    is its default."""

    def __new__(mcls, name, bases, ns):
        ns["__slots__"] = ()
        cls = super().__new__(mcls, name, bases, ns)
        cls._fields = tuple(cls.__annotations__)
        cls._field_defaults = {}
        for i, field in enumerate(cls._fields):
            if field in ns:
                cls._field_defaults[field] = ns[field]
            elif cls._field_defaults:
                raise TypeError(f"{name}: field {field!r} without a default "
                                f"follows a field with one")
            setattr(cls, field, _tuplegetter(i, f"field {i}"))
        return cls


class Value(tuple, metaclass=_ValueType):
    """An immutable record that is the tuple of its fields, which a subclass
    declares as annotated class attributes (``mult: int = 1``).

    It hashes, compares and sorts as that tuple, prints as
    ``Name(field=value, ...)``, and copies and pickles through its
    constructor.  The constructor takes the fields in order, positionally or
    by name.  A subclass may define its own ``__new__`` with the fields as
    its parameters, in order: to validate them, or, as ``return _new(cls,
    (...))``, to build a hot type faster than the generic one does.  Each
    value type subclasses ``Value`` directly.
    """

    def __new__(cls, *args, **kwargs):
        fields = cls._fields
        if kwargs or len(args) != len(fields):
            if len(args) > len(fields):
                raise TypeError(f"{cls.__name__} takes {len(fields)} fields, "
                                f"got {len(args)}")
            try:
                args += tuple(kwargs.pop(f) if f in kwargs else cls._field_defaults[f]
                              for f in fields[len(args):])
            except KeyError as missing:
                raise TypeError(f"{cls.__name__} is missing field {missing}") from None
            if kwargs:
                raise TypeError(f"{cls.__name__} got unexpected or repeated "
                                f"fields {sorted(kwargs)}")
        return _new(cls, args)

    def __repr__(self) -> str:
        fields = ", ".join(map("{}={!r}".format, self._fields, self))
        return f"{type(self).__name__}({fields})"

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def _replace(self, **changes) -> "Value":
        """A copy with the named fields changed, built by the constructor."""
        values = [changes.pop(f, v) for f, v in zip(self._fields, self)]
        if changes:
            raise ValueError(f"unexpected field names: {sorted(changes)}")
        return type(self)(*values)
