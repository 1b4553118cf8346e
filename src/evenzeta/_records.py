"""The base of the package's immutable value records.

A record is a direct, slotted subclass of ``Record`` whose ``__slots__``
name its fields in order and whose own ``__init__`` takes them in that order
and stores them with ``_assign``.  The base gives each record what a frozen
dataclass would, with nothing generated at import: assignment and deletion
raise ``AttributeError``, ``==`` compares the fields of two records of one
type (never a record with a tuple or a record of another type), equal
records hash equal, ``repr`` lists the fields, ``copy``, ``deepcopy`` and
``pickle`` rebuild through ``__init__``, and ``replace`` returns a copy with
some fields changed.
"""

from __future__ import annotations

_set = object.__setattr__


class Record:
    __slots__ = ()

    def _assign(self, *values: object) -> None:
        """Store the fields, given in slot order; for ``__init__`` only."""
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def replace(self, **changes: object) -> Record:
        """A copy of the same type with the named fields changed."""
        return type(self)(**({name: getattr(self, name) for name in self.__slots__} | changes))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()
