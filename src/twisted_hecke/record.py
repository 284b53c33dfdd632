"""Records: small classes whose value is their fields, as plain ``__slots__``.

A record class names its fields in ``__slots__`` and assigns them in its
own ``__init__``.  Two records are equal when they are of the same class,
exactly, with equal fields; against any other type ``==`` returns
NotImplemented.  ``repr`` reads ``Name(field=value, ...)``, and copies and
pickles rebuild a record from its fields through the class's own
constructor.  A ``Record`` is mutable and unhashable.  A ``FrozenRecord``
is hashed by its fields and raises AttributeError on any assignment, so its
``__init__`` sets each field with ``object.__setattr__``.
"""

from __future__ import annotations

__all__ = ["Record", "FrozenRecord"]


class Record:
    __slots__ = ()
    __hash__ = None  # mutable

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # a slotted class pickles at protocols 0 and 1 only through this
        return type(self), self._fields()


class FrozenRecord(Record):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
