"""Immutable value records: one small base for the package's frozen values.

A subclass names its fields as annotations, in order; an annotation with a
value at class level is a field with that default, which a record built
without the field reads from the class.  Fields are inherited.
The base reads them once, in ``__init_subclass__``, and supplies:

* ``__init__``, positional or keyword;
* ``==``: records are equal when they are of the same class and their
  compared fields are equal, and ``hash`` is the hash of the tuple of those
  fields; ``uncompared=(...)`` in the class statement leaves fields out of
  both;
* ``repr`` as ``Name(field=value, ...)``, over every field;
* immutability: assigning or deleting an attribute raises
  ``dataclasses.FrozenInstanceError``;
* ``asdict()``, the fields by name, not copied;
* ``copy``, ``deepcopy`` and ``pickle``, which pass the fields in order to
  ``__init__``, so a record that writes its own takes them in that order.

The base's ``__init__`` is generic, and slower than a generated one: on
CPython 3.11 on a shared 2-core virtual machine, about 0.3 us more per
record built positionally and 0.7-0.9 us more by keyword.  It also fills
``__dict__``, where a later read of a field, a method or a class attribute
is up to three times slower than from the values a frozen dataclass keeps
inline.  So a record that is built on every request or read far more often
than it is built (the group descriptors, ``QuadValue``, ``pmv.GammaAlgebra``
and ``pmv.Element``), a record with ``__slots__`` and a record that checks
its fields write their own ``__init__`` and set the fields with
``object.__setattr__``; ``cli.Report`` passes its fields on positionally.
"""

from operator import attrgetter


def _frozen(self, name, *value):
    from dataclasses import FrozenInstanceError  # only on this path: not loaded otherwise

    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


class Record:
    __slots__ = ()
    # not annotated, so not fields: the names of the fields, of those that
    # == and hash read, and of those with a default
    _fields = _compared = _defaulted = ()

    def __init_subclass__(cls, uncompared=()):
        own = tuple(n for n in cls.__dict__.get("__annotations__", {}) if n not in cls._fields)
        cls._fields += own
        cls._compared += tuple(n for n in own if n not in uncompared)
        cls._defaulted += tuple(n for n in own if n in cls.__dict__)
        # the tuple of the compared fields: attrgetter makes one of two or more
        names = cls._compared
        get = attrgetter(*names) if names else lambda r: ()
        cls._key = staticmethod(get if len(names) != 1 else lambda r: (get(r),))

    def __init__(self, *args, **kwargs):
        fields, values = self._fields, self.__dict__
        values.update(zip(fields, args))
        if kwargs or len(args) != len(fields):
            # no argument is surplus, repeated or unknown, and every field left
            # out has a default, which the record reads from its class
            values.update(kwargs)
            missing = set(fields).difference(values)
            bad = len(values) != len(args) + len(kwargs) or len(values) + len(missing) != len(fields)
            if bad or not missing.issubset(self._defaulted):
                raise TypeError(f"wrong arguments for {type(self).__name__}{fields}")

    def __eq__(self, other):
        return self._key(self) == self._key(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._fields)})"

    __setattr__ = __delattr__ = _frozen

    def __reduce__(self):  # copy and pickle rebuild a record through its __init__
        return type(self), tuple(getattr(self, n) for n in self._fields)

    def asdict(self) -> dict:
        return {n: getattr(self, n) for n in self._fields}
