"""Immutable value classes without ``dataclasses``.

Importing ``dataclasses`` pulls in ``inspect`` and with it ``ast``,
``dis``, ``tokenize``, ``linecache`` and ``copy``, and every frozen
dataclass ``exec``s the methods it generates when its class body runs.
A single CLI query pays both at start-up.  ``Record`` gives a
``__slots__`` class the behaviour of a frozen dataclass instead:

* positional ``__init__`` over ``__slots__``, in order;
* equality only between instances of the same class, field by field;
* the hash of the field tuple;
* the dataclass ``repr``, e.g. ``FiniteWeight(n=2, coords=(1, 0))``;
* no assignment or deletion of a field after ``__init__``.

The weights, which the inner loops build and the oracle keys its dicts
by, override ``__init__``, ``__eq__`` and ``__hash__`` with hand-written
methods, so they pay for no generic loop over their fields.
"""

from __future__ import annotations


class Record:
    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__qualname__} takes {len(self.__slots__)} values")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return type(self), self._fields()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
