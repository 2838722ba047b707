"""Immutable value records, the base of the package's value types.

A record keeps its state in ``__slots__``, filled in order by ``_set``, and
names two or more fields in ``_fields``: equality, hash, ``repr``, pickling
and ``as_dict`` read those alone, and no value type overrides them; any
other slot is derived state.  A read-only mapping field (``MappingProxyType``)
hashes as the frozenset of its items and pickles as a ``dict`` copy, which
the constructor wraps again; other fields hash and pickle as they are.
``RationalMatrix`` and ``GradedPolynomial`` write their slots directly: their
constructors are hot, and ``_set`` costs about 0.3 µs more per construction.
"""

from operator import attrgetter
from types import MappingProxyType


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        cls._values = property(attrgetter(*cls._fields))  # the fields' tuple

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(tuple(
            frozenset(v.items()) if type(v) is MappingProxyType else v
            for v in self._values
        ))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        values = (dict(v) if type(v) is MappingProxyType else v for v in self._values)
        return self.__class__, tuple(values)

    def as_dict(self) -> dict:
        return dict(zip(self._fields, self._values))
