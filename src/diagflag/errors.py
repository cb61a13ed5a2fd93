"""Exceptions, the immutable value base `Record`, the violation report
type, and the strict checks and the document reader the library shares."""

from __future__ import annotations

from contextlib import contextmanager
from operator import attrgetter

_set = object.__setattr__


class DomainError(ValueError):
    """Rejected input: a precondition or schema constraint is violated."""


class ScaleError(DomainError):
    """Input exceeds the size bound of a brute-force operation."""


class InternalCheckError(RuntimeError):
    """A built-in redundancy check failed (two-formula disagreement,
    oracle mismatch, or another invariant the library maintains itself)."""


class Record:
    """Base of the library's immutable values.

    A subclass's fields are its own annotations, in order; a class
    attribute of the same name is the field's default.  Instances are
    built positionally or by keyword, then `__post_init__` runs (looked
    up on the class at each call).  Equality holds between
    instances of the same class with equal field tuples, the hash is the
    hash of that tuple, `repr` is `Name(field=value, ...)`, and attributes
    can be neither set nor deleted; `__post_init__` and alternative
    constructors set fields through `object.__setattr__`.  No method is
    generated, so defining a record costs nothing at import.
    """

    _fields: tuple[str, ...]
    _defaults: dict

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = fields = tuple(cls.__dict__.get("__annotations__", {}))
        cls._defaults = {n: cls.__dict__[n] for n in fields if n in cls.__dict__}
        if len(fields) == 1:
            get = attrgetter(fields[0])
            cls._key = staticmethod(lambda obj: (get(obj),))
        else:
            cls._key = attrgetter(*fields)

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        i = 0
        for name in fields:  # faster than zip(fields, args) on a few fields
            _set(self, name, args[i])
            i += 1
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values of a call with keywords, defaults or a wrong
        argument count; TypeError naming the first fault."""
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} arguments, got {len(args)}")
        for name in kwargs:
            if name in fields[: len(args)]:
                raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
            if name not in fields:
                raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {name!r}")
        values = list(args)
        for name in fields[len(args) :]:
            if name in kwargs:
                values.append(kwargs[name])
            elif name in cls._defaults:
                values.append(cls._defaults[name])
            else:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        return values

    def __post_init__(self) -> None:
        pass

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class ValidationReport(Record):
    """Outcome of a structural validation: the list of violated clauses.

    Violations are data, not failures; an empty report means the object
    satisfies every clause.
    """

    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok

    def to_json_obj(self) -> dict:
        return {"ok": self.ok, "violations": list(self.violations)}


def is_int(x, minimum: int | None = None) -> bool:
    """True for an int (at least `minimum` when given).  JSON documents are
    read strictly: floats, strings and bools (an int subclass) are not
    integers and are never coerced."""
    return type(x) is int and (minimum is None or x >= minimum)


def strict_int(x, what: str) -> int:
    """x itself when `is_int(x)`; DomainError naming `what` otherwise."""
    if not is_int(x):
        raise DomainError(f"{what} must be an integer, got {x!r}")
    return x


def strict_bool(x, what: str) -> bool:
    """x itself when it is a bool; DomainError naming `what` otherwise.
    JSON documents are read strictly: `"no"`, `0`, `1` and `null` are not
    booleans and are never coerced."""
    if type(x) is not bool:
        raise DomainError(f"{what} must be a boolean, got {x!r}")
    return x


def strict_list(x, what: str) -> list:
    """x itself when it is a JSON array; DomainError naming `what` otherwise:
    a string or an object is never read as one, so `"12"` is not `[1, 2]`."""
    if type(x) is not list:
        raise DomainError(f"{what} must be an array, not {type(x).__name__}")
    return x


@contextmanager
def reading(kind: str):
    """Read a `kind` document: a KeyError, TypeError, ValueError or AttributeError
    inside becomes DomainError("bad {kind} document: ..."); a ScaleError passes unchanged."""
    try:
        yield
    except ScaleError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise DomainError(f"bad {kind} document: {exc}") from exc
