"""Exception hierarchy shared across the toolkit: one class per failing exit code.

Everything derives from FormukitError so callers can catch broadly. The CLI
exits 2 on a ValidationError (a bad input, config or request: a value outside
its domain, a missing API key, an empty store, a duplicate id, profiles with no
overlap, a run the solver cannot resolve), 3 on a TransportError and 4 on a
ParseError. DuplicateTimeError, a ParseError, marks a repeated profile time: in
a model answer it exits 4, and readers of input files turn it into a
ValidationError.
"""


class FormukitError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(FormukitError, ValueError):
    """An input, configuration or request is invalid or outside its domain (exit 2)."""


class ParseError(FormukitError, ValueError):
    """No usable profile table or prompt input could be read (exit 4)."""


class DuplicateTimeError(ParseError):
    """Two profile points share the same time."""


class TransportError(FormukitError, RuntimeError):
    """The model endpoint failed or answered with something not a completion (exit 3)."""
