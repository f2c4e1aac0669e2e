"""Frozen value records without generated code.

A subclass of ``Record`` declares its fields as class annotations, in order,
each with an optional class-attribute default.  One shared ``__init__``
binds positional and keyword arguments to them and then calls
``__post_init__``; an instance refuses assignment and deletion, compares and
hashes by its class and field values, and prints as
``Name(field=value, ...)``.  No method is generated per class, so defining
a record costs its field tuple and defaults, where the standard library's
frozen classes exec six generated methods each on every import, which no
bytecode cache keeps.
"""

from __future__ import annotations

__all__ = ["FrozenInstanceError", "Record", "replace"]


class FrozenInstanceError(AttributeError):
    """Assignment to or deletion of a record's attribute."""


class Record:
    """Base of the frozen records; see the module docstring."""

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__dict__.get("__annotations__", {}))
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}
        for name, value in cls._defaults.items():
            if type(value).__hash__ is None:
                raise ValueError(f"{cls.__name__}.{name}: a mutable default would be shared by every instance")

    def __init__(self, *args, **kwargs) -> None:
        cls = type(self)
        names = cls._fields
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} arguments but {len(args)} were given")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {name!r}")
            if name in values:
                raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
            values[name] = value
        for name in names:
            if name in values:
                value = values[name]
            elif name in cls._defaults:
                value = cls._defaults[name]
            else:
                raise TypeError(f"{cls.__name__}() missing required argument {name!r}")
            # not through self.__dict__, which would turn the instance's
            # inline attribute values into a dict and double the cost of reading them
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Validation hook, run after the fields are bound."""

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"


def replace(record: Record, /, **changes) -> Record:
    """A copy of record with some fields changed, validated as a new record is."""
    return type(record)(**{**{name: getattr(record, name) for name in record._fields}, **changes})
