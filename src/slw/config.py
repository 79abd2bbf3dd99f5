"""Run configuration, resource caps and the toolkit's error types."""

from __future__ import annotations

from dataclasses import dataclass


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


@dataclass(frozen=True)
class RunConfig:
    """Resource caps shared by oracles, compilers and the CLI.

    Enumeration oracles are exponential by design; the caps make them fail
    loudly instead of hanging.
    """

    max_states: int = 10**6          # states of any one construction
    max_enum_vertices: int = 6       # enumeration oracles: largest DAG/poset
    max_enum_edges: int = 10
    max_words: int = 500_000         # language-enumeration cap (words visited)

    def __post_init__(self):
        if min(self.max_states, self.max_enum_vertices, self.max_enum_edges, self.max_words) <= 0:
            raise InputError("all caps must be positive")


DEFAULT_CONFIG = RunConfig()
