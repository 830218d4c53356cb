"""A base for the package's small record types, without `dataclasses`.

A subclass lists its fields in ``__slots__`` and sets them in ``__init__``;
it is then compared and printed field by field, as a dataclass would be.
It is unhashable unless it defines ``__hash__`` itself.
"""


class Record:
    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"
