"""Immutable value classes, written out instead of generated.

A subclass of Value lists its fields in __slots__ and writes its own
__init__, which stores each field with setfield. The base gives it
equality by class and fields, a hash of the fields, a repr of the form
Name(field=value, ...) and an AttributeError on assignment. Nothing is
compiled from source when a class is created, which keeps the import of
the package cheap: a CLI launch pays it for every equation.
"""

from operator import attrgetter

# Stores a field of an instance under construction; Value.__setattr__
# refuses every later assignment.
setfield = object.__setattr__


class Value:
    __slots__ = ()

    def __init_subclass__(cls):
        fields = cls.__slots__
        # one field keys by its value, several by the tuple of values
        cls._key = attrgetter(*fields) if fields \
            else staticmethod(lambda self: ())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self.__slots__))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, which takes
        # the fields positionally in __slots__ order
        return self.__class__, tuple(getattr(self, f) for f in self.__slots__)
