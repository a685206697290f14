"""Run-time Scheme values.

Scheme data at run time:

* numbers, booleans, strings, symbols, characters -- the same Python
  representations the reader produces;
* pairs -- :class:`Pair` chains ending in :data:`NIL`;
* the empty list -- the singleton :data:`NIL`;
* the unspecified value -- the singleton :data:`UNSPECIFIED`;
* procedures -- closures of the interpreter or VM (each defines its own).

Mutation of pairs (``set-car!``/``set-cdr!``) is intentionally not
supported, so quoted constants may be shared freely.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.runtime.errors import PrimitiveError
from repro.sexp.datum import Char, Symbol


class Nil:
    """The empty list.  A singleton; compare with ``is``."""

    __slots__ = ()
    _instance: "Nil | None" = None

    def __new__(cls) -> "Nil":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "()"


NIL = Nil()


class Unspecified:
    """The unspecified (void) value.  A singleton; compare with ``is``."""

    __slots__ = ()
    _instance: "Unspecified | None" = None

    def __new__(cls) -> "Unspecified":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "#<unspecified>"


UNSPECIFIED = Unspecified()


class Pair:
    """A cons cell."""

    __slots__ = ("car", "cdr")

    def __init__(self, car: Any, cdr: Any):
        self.car = car
        self.cdr = cdr

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        from repro.runtime.values import value_to_datum

        try:
            return f"<pair {value_to_datum(self)!r}>"
        except Exception:
            return f"<pair {self.car!r} . {self.cdr!r}>"

    def __iter__(self) -> Iterator[Any]:
        node: Any = self
        while isinstance(node, Pair):
            yield node.car
            node = node.cdr
        if node is not NIL:
            raise PrimitiveError("iterate", "improper list")


def scheme_list(*items: Any) -> Any:
    """Build a Scheme list from Python arguments."""
    result: Any = NIL
    for item in reversed(items):
        result = Pair(item, result)
    return result


def is_list(value: Any) -> bool:
    """True if ``value`` is a proper list."""
    while isinstance(value, Pair):
        value = value.cdr
    return value is NIL


def is_truthy(value: Any) -> bool:
    """Scheme truthiness: everything except ``#f`` is true."""
    return value is not False


def datum_to_value(datum: Any) -> Any:
    """Convert reader data (Python lists/tuples) to run-time values."""
    if isinstance(datum, (list, tuple)):
        result: Any = NIL
        for item in reversed(datum):
            result = Pair(datum_to_value(item), result)
        return result
    return datum


def value_to_datum(value: Any) -> Any:
    """Convert a run-time value back to reader data; lists become Python lists."""
    if isinstance(value, Pair):
        items = []
        node: Any = value
        while isinstance(node, Pair):
            items.append(value_to_datum(node.car))
            node = node.cdr
        if node is not NIL:
            raise PrimitiveError("value->datum", "improper list")
        return items
    if value is NIL:
        return []
    return value


def scheme_eqv(a: Any, b: Any) -> bool:
    """R4RS ``eqv?``: identity, plus same-exactness numeric equality."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    if isinstance(a, float) and isinstance(b, float):
        return a == b
    if isinstance(a, Char) and isinstance(b, Char):
        return a == b
    return a is b


def constant_key(value: Any) -> tuple | None:
    """A key under which equal keys mean interchangeable constants, or
    ``None`` when ``value`` has none.

    Only *identity-safe* values have a key: exact numbers, booleans,
    characters, symbols, the empty list and the unspecified value —
    values ``eqv?`` compares by value (or singletons), so substituting
    one equal-keyed object for another is unobservable.  Strings and
    pairs compare by identity and have no key.  The key is type-tagged,
    so ``False``/``0`` and ``1``/``1.0`` stay apart; floats key on their
    bit pattern, so ``-0.0``/``0.0`` do too, and NaN has no key.
    """
    if value is NIL or value is UNSPECIFIED:
        return (type(value), value)
    if isinstance(value, (bool, int, Symbol, Char)):
        return (type(value), value)
    if isinstance(value, float):
        if value != value:
            return None
        return (float, value.hex())
    return None


def scheme_equal(a: Any, b: Any) -> bool:
    """R4RS ``equal?``: structural equality."""
    while True:
        if isinstance(a, Pair) and isinstance(b, Pair):
            if not scheme_equal(a.car, b.car):
                return False
            a, b = a.cdr, b.cdr
            continue
        if isinstance(a, str) and isinstance(b, str):
            return a == b
        return scheme_eqv(a, b)
