"""Frozen records: the base of the package's value types.

A record names its fields in ``__slots__``, in order, and sets each one in
its own ``__init__`` with ``object.__setattr__``, where its checks run too.
``Record`` gives it the rest: equality and a hash over the field tuple, the
``Name(field=value, ...)`` repr, refusal of assignment and deletion, and
pickling (and so deepcopy) through the constructor.  ``replace`` copies a
record with some fields changed, also through the constructor.

The methods are written out here once rather than generated per class at
import: a class generator would cost every short CLI call the import of
``inspect`` and a compile of each class's methods (see README).
"""

from __future__ import annotations


class Record:
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return (type(self), self._values())


def replace(record: Record, **changes) -> Record:
    """A copy of ``record`` with the named fields changed, built by its
    constructor; a name that is not a field raises TypeError."""
    fields = record.__slots__
    for name in changes:
        if name not in fields:
            raise TypeError(f"{type(record).__name__} has no field {name!r}")
    values = {f: changes[f] if f in changes else getattr(record, f) for f in fields}
    return type(record)(**values)
