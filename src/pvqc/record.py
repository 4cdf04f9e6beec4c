"""The immutable record base of pvqc's protocol values.

A record class lists its fields, in positional order, as its `__slots__`,
and its own `__init__` runs the class's checks and then writes each field
once with `setfield`.  The base adds what the records share: equality by
exact type and field values, a matching hash, a repr that names every
field, AttributeError on assignment or deletion, and copies and unpickles
that rebuild the record through its `__init__`, so every instance passed
its checks.  It generates no code per class, so defining a record costs
no more than a plain class.
"""

from operator import attrgetter

# The one way a record's `__init__` writes a field past the base's
# `__setattr__`.
setfield = object.__setattr__


class Record:
    """Base of the immutable records.  A field named in `_uncompared`
    takes no part in equality or the hash."""

    __slots__ = ()
    _uncompared: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        compared = [f for f in cls.__slots__ if f not in cls._uncompared]
        # One field's getter returns the value, several a tuple: either
        # way, equal records give equal keys.
        cls._key = staticmethod(attrgetter(*compared))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # pickle, copy and deepcopy call the constructor on the fields.
        return type(self), tuple(getattr(self, f) for f in self.__slots__)
