"""The base class of the package's immutable value types.

A record names its fields in ``_fields`` and keeps them, with any derived
attributes, in ``__slots__``.  Its ``__init__`` checks the arguments and
stores them with ``object.__setattr__``: assigning or deleting an
attribute afterwards raises AttributeError.  The base gives every record

- ``==`` between records of the same class, comparing the field tuples,
  and NotImplemented for anything else;
- the hash of the field tuple, so caches key on the values;
- the repr ``Name(field=value, ...)``;
- pickling and copying that rebuild the record through its constructor,
  so derived attributes and cached hashes are computed afresh (a str's
  hash differs between processes).

None of this is generated at import.  The methods loop over ``_fields``;
a record hashed and compared on every operation writes its own out.
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    _fields: tuple = ()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._astuple()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
