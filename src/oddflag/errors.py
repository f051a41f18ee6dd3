"""Exception types shared across the package, and the base of its values."""


class DomainError(ValueError):
    """An argument lies outside the supported combinatorial domain."""


class VerificationError(RuntimeError):
    """A machine-checked structural claim failed.

    Raised when two routes that must agree (e.g. a closed form and its
    search oracle, or a shape tag and its defining predicate) disagree.
    """


class _Frozen:
    """Base of the package's immutable value classes.

    A subclass names its fields in ``__match_args__``.  The base binds
    positional and keyword values to them (``__init__``), gives the
    ``Name(field=value, ...)`` repr, equality with objects of the same
    class only, the hash of the tuple of fields, and refuses assignment and
    deletion.  A class that checks or normalises its input writes its own
    ``__init__``, which sets the fields with ``object.__setattr__``.
    Classes compared or hashed in hot loops spell out their own ``__eq__``
    and ``__hash__``.

    The base has no instance dict.  A class that keeps no computed
    attribute declares ``__slots__ = __match_args__ = (...)``, so its
    values hold their fields and nothing else; a class that keeps one
    (through ``weyl._Once``, or the quantum graph's index adjacency)
    declares no slots and keeps it in its dict.  A copy or an unpickled
    value is rebuilt through the class's ``__init__`` from its fields
    (``__reduce__``), since restoring state would assign to it: it is
    validated again and carries no kept attribute.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init__(self, *args: object, **kwargs: object) -> None:
        names = self.__match_args__
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    def _bind(self, args: tuple, kwargs: dict) -> tuple:
        """The field values in order, from positional and keyword values.

        Raises ``TypeError`` for a value that is extra, unknown, given
        twice or missing, as a written-out signature would.
        """
        names, cls = self.__match_args__, type(self).__qualname__
        if len(args) > len(names):
            raise TypeError(f"{cls}() takes {len(names)} values, got {len(args)}")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError(f"{cls}() got an unknown field {name!r}")
            if name in values:
                raise TypeError(f"{cls}() got field {name!r} twice")
            values[name] = value
        missing = [name for name in names if name not in values]
        if missing:
            raise TypeError(f"{cls}() missing fields {', '.join(map(repr, missing))}")
        return tuple(values[name] for name in names)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
