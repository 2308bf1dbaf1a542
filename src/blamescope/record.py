"""Immutable record classes, written out rather than generated.

The plain value records of the package are `typing.NamedTuple`s. The
records that check their arguments, derive a field or hold arrays are
`__slots__` classes on `Record` (compared by identity) or `Value`
(compared by their fields).
"""


class Record:
    """A record whose `__init__` sets each slot once, with
    `object.__setattr__` (most through `_init`), and that nothing sets
    again: assigning or deleting an attribute raises AttributeError. `_fields` names the constructor's arguments in order.
    `repr` shows them, and copy and pickle call the constructor on them, so
    a copy is checked, and its derived slots built, again. A record is
    equal only to itself."""

    __slots__ = ()

    def _init(self, *values):
        """Set the slots, in the order of `__slots__`, to `values`."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        """The constructor's arguments, in order."""
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key()))
        return f"{type(self).__qualname__}({args})"

    def __reduce__(self):
        return type(self), self._key()


class Value(Record):
    """A record equal to one of its own class whose `_fields` are equal,
    and hashed by them; a derived slot is neither compared nor hashed."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())
