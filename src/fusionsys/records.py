"""The shared base of the result records.

A record lists its fields in ``__slots__`` and writes its ``__init__``.
Equality, hashing and ``repr`` (the text ``Name(field=value, ...)``) run
over its fields in declaration order, leaving out ``hidden`` ones (caches
and back references).  ``fields`` names them for a record that keeps an
instance ``__dict__`` instead of slots.  A record that may change after
construction sets ``__hash__ = None``.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Optional


class Record:
    __slots__ = ()

    def __init_subclass__(
        cls, fields: Optional[tuple[str, ...]] = None, hidden: tuple[str, ...] = ()
    ) -> None:
        super().__init_subclass__()
        shown = tuple(f for f in (cls.__slots__ if fields is None else fields) if f not in hidden)
        get = attrgetter(*shown)
        cls._shown = shown
        cls._values = staticmethod(get if len(shown) > 1 else lambda r: (get(r),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        pairs = ", ".join(f"{f}={v!r}" for f, v in zip(self._shown, self._values(self)))
        return f"{type(self).__qualname__}({pairs})"
