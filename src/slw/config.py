"""Run configuration, resource caps, the toolkit's error types, the frozen
record base that slw's value types share, and the line syntax that the `.aut`,
`.net` and DAG readers share."""

from __future__ import annotations

from typing import Iterator, Optional


class SlwError(Exception):
    """Base class for all toolkit errors."""


class InputError(SlwError):
    """Malformed input: files, formulas, slices, automata (CLI exit code 3)."""


class ResourceError(SlwError):
    """A configured cap was exceeded (CLI exit code 2)."""

    def __init__(self, message: str, *, context: str = ""):
        super().__init__(message if not context else f"{message} [{context}]")
        self.context = context


class PreconditionError(SlwError):
    """An operation was called on operands that violate its stated preconditions."""


# -- the line syntax of slw's text formats -------------------------------------------


def text_lines(text: str) -> Iterator[tuple[int, str]]:
    """Each stripped line of `text` with its number, but blank lines and `#` comments."""
    for n, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if line and not line.startswith("#"):
            yield n, line


def once(n: int, seen, key: str, what: str) -> None:
    """Refuse `key` at line `n` if `seen` holds it already."""
    if key in seen:
        raise InputError(f"line {n}: {what} {key!r} given twice")


def split_fields(n: int, words) -> tuple[list, dict]:
    """Line `n`'s words as bare words and `key=value` fields, each given once."""
    bare, fields = {}, {}
    for word in words:
        key, eq, value = word.partition("=")
        seen = fields if eq else bare
        once(n, seen, key, "field" if eq else "word")
        seen[key] = value
    return list(bare), fields


def decimal(word: str) -> Optional[int]:
    """`word` as a count if it is a decimal numeral (`str.isdecimal`), else
    None: `²` is a digit to `str.isdigit` but no numeral to `int`."""
    return int(word) if word.isdecimal() else None


def count(n: int, key: str, value: str) -> int:
    """The count of field `key=value` on line `n`."""
    number = decimal(value)
    if number is None:
        raise InputError(f"line {n}: bad count in {key}={value}")
    return number


class Record:
    """A frozen value record whose fields are the names in its `__slots__`.

    A subclass gets what a frozen dataclass gives: a positional `__init__`,
    `__match_args__`, equality only with records of its own class, the hash
    of its field tuple, the repr `Name(field=value, ...)`, copying and
    pickling, and no assignment after construction.
    """
    # Not `dataclasses`: importing it (it imports `inspect`) and generating the
    # methods of every record class costs about 28 ms per process at import,
    # and every slw command is a process.

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls.__match_args__ = cls.__dict__["__slots__"]

    def __init__(self, *values):
        fields = self.__match_args__
        if len(values) != len(fields):
            raise TypeError(f"{type(self).__name__}() takes {len(fields)} field(s), "
                            f"{len(values)} given")
        for name, value in zip(fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__, since __setattr__ refuses
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class RunConfig(Record):
    """Resource caps shared by oracles, compilers and the CLI.

    Enumeration oracles are exponential by design; the caps make them fail
    loudly instead of hanging.
    """

    __slots__ = ("max_states", "max_enum_vertices")

    def __init__(self,
                 max_states: int = 10**6,         # states of any one construction
                 max_enum_vertices: int = 6):     # enumeration oracles: largest DAG/poset
        super().__init__(max_states, max_enum_vertices)
        if min(self.max_states, self.max_enum_vertices) <= 0:
            raise InputError("all caps must be positive")


DEFAULT_CONFIG = RunConfig()

# enumeration oracles: the most edges of a DAG they expand
MAX_ENUM_EDGES = 10
