"""Immutable value records, in place of frozen dataclasses.

A subclass names its fields in ``__slots__``, in order, and stores them
with ``_set`` from an ``__init__`` of its own.  As for a frozen
dataclass, two records are equal when they are of the same class with
equal fields, the hash is the hash of the tuple of the fields, the repr
is ``Name(field=value, ...)``, and assigning or deleting an attribute
raises AttributeError; copies and pickles are rebuilt through the
constructor.  Building the methods here rather than with
``dataclasses`` keeps that module, and the ``inspect`` it loads, off the
import path.  ``Poly``, ``Partition`` and ``ClassData`` are built and
compared so often that they write their own ``__init__``, ``__eq__`` and
``__hash__``.
"""


class Record:
    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({inner})"

    def __reduce__(self):
        return type(self), self._fields()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
