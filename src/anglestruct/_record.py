"""Immutable records: one base for the package's value types.

A `Record` subclass names its fields as class annotations, in order; a
class attribute named like a field is its default.  A record is built by
keyword or by position, runs ``__post_init__`` if its class has one,
equals only a record of its own class with equal fields, hashes as its
field tuple and prints as ``Name(field=value, ...)``.  Assigning or
deleting an attribute raises `FrozenInstanceError`, an AttributeError.
All of this is worked out once per class, when it is made, and no code
is generated; an instance keeps its fields in its ``__dict__``, beside
what a `functools.cached_property` derives; a `_rational.ScaledVector`
keeps its vector's (den, ints) form there in place of its fields, and
is compared by it, which is equal exactly when the fields are.
"""

from operator import attrgetter


class FrozenInstanceError(AttributeError):
    """Raised on assigning or deleting an attribute of a record."""


class Record:
    """Base of the package's immutable records; see the module docstring."""

    def __init_subclass__(cls):
        names = tuple(vars(cls).get("__annotations__", ()))
        cls._fields, cls._field_set = names, frozenset(names)
        cls._defaults = {f: vars(cls)[f] for f in names if f in vars(cls)}
        cls._post_init = hasattr(cls, "__post_init__")
        get = attrgetter(*names)
        cls._values = cls._compared = staticmethod(
            get if len(names) > 1 else lambda record: (get(record),))
        super().__init_subclass__()

    def __init__(self, *args, **kwargs):
        if args or kwargs.keys() != self._field_set:
            kwargs = self._bind(args, kwargs)
        self.__dict__.update(kwargs)
        if self._post_init:
            self.__post_init__()

    @classmethod
    def _bind(cls, args, kwargs) -> dict:
        """The fields of a call with positions, defaults or a wrong name."""
        named = dict(zip(cls._fields, args))
        bound = {**cls._defaults, **named, **kwargs}
        if len(args) > len(cls._fields) or named.keys() & kwargs.keys() \
                or bound.keys() != cls._field_set:
            raise TypeError("%s() takes fields %s; got %d by position and "
                            "%s by name" % (cls.__qualname__, cls._fields,
                                            len(args), tuple(kwargs)))
        return bound

    def __setattr__(self, name, value):
        raise FrozenInstanceError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise FrozenInstanceError("cannot delete field %r" % name)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._compared(self) == other._compared(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            f"{name}={value!r}"
            for name, value in zip(self._fields, self._values(self))))
