"""The shared base of the package's records.

A record is a ``__slots__`` class of named fields, with
``__slots__ = _fields = (...)`` and a plain ``__init__``, which is the
cheapest to build and to read.  Record gives it field-wise equality with
a record of the same type only, a hash of the fields and the repr
``Name(field=value, ...)``.  A record is no tuple: it is neither iterated
nor indexed.

Records are read-only by convention: nothing assigns to a field after
construction.  A changed record is a new one, built by its constructor.

The records built per solve step or scan row (GeneratrixState,
FreeBoundaryPortion, ViolationPoint, AnalysisReport) are built by
position, in ``_fields`` order: a class called with keywords packs them
into a dict that ``__init__`` matches by name, and on Python 3.11 (Intel
Xeon) a GeneratrixState took 520 ns by keyword, 200 ns by position.
"""
from __future__ import annotations


class Record:
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
