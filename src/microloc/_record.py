"""The base of the package's stateful classes.

Records that nothing changes after construction are collections.namedtuple
subclasses with __slots__ = (): frozen, equal and hashed by their field
tuple.  A class whose fields can change after construction derives from
Record and names its fields in _fields; Record gives it the repr and ==
a dataclass would, and no hash.  Neither form needs an import beyond
collections, which re and functools load anyway.
"""


class Record:
    """repr and == over the attributes named in _fields; no hash.

    Two instances are equal when they are of the same class and their
    field tuples are equal.
    """

    __slots__ = ()
    _fields = ()
    __hash__ = None

    def __repr__(self):
        inner = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({inner})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = self._fields
        return [getattr(self, f) for f in fields] == [getattr(other, f) for f in fields]
