"""Plain frozen value classes: equality, hash and repr over a declared field tuple.

A subclass names in ``_fields`` the fields that are compared and shown, in
constructor order, and writes its own ``__init__``, which fills
``self.__dict__`` directly.  Two instances are equal when they are of the
same class and their fields are equal; the repr is ``Name(field=value,
...)``.  A `FrozenValue` hashes as the tuple of its fields (so one with a
list field is unhashable) and refuses assignment and deletion;
``functools.cached_property`` still stores its value in ``__dict__``.  The
behaviour is that of ``dataclasses.dataclass(frozen=True)`` without
importing ``dataclasses`` (and ``inspect``) or generating methods at import
time: on a 2-core VM those took about 20 ms of every CLI call.
"""

from __future__ import annotations


class FrozenValue:
    __slots__ = ()
    _fields: tuple = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
