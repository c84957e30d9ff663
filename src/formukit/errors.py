"""Exception hierarchy shared across the toolkit.

Everything derives from FormukitError so callers can catch broadly; the CLI
maps subtrees onto its exit codes (validation/config -> 2, transport -> 3,
parse -> 4).
"""


class FormukitError(Exception):
    """Base class for all toolkit errors."""


class DomainError(FormukitError, ValueError):
    """An input is outside the physical or mathematical domain of an operation."""


class IntegrationError(FormukitError, RuntimeError):
    """The dissolution solver failed."""


class ConfigurationError(FormukitError, ValueError):
    """Invalid configuration: infeasible bounds, missing API key, bad paths."""


class StrategyPreconditionError(FormukitError, ValueError):
    """A prompt strategy's preconditions are unmet (e.g. few-shot with no examples)."""


class ParseError(FormukitError, ValueError):
    """No parseable profile table found in a response."""


class EmptyProfileError(ParseError):
    """A profile table was found but its data array is empty."""


class DuplicateTimeError(ParseError):
    """Two profile points share the same time."""


class MockParseError(ParseError):
    """The mock backend could not recover a formulation input from the prompt."""


class AlignmentError(FormukitError, ValueError):
    """Reference and predicted profiles have no usable time overlap."""


class DegenerateReferenceError(FormukitError, ValueError):
    """Reference profile has zero variance; R^2 is undefined."""


class ConflictError(FormukitError, ValueError):
    """A record id already exists in the store and overwrite was not requested."""


class ValidationError(FormukitError, ValueError):
    """A record or input violates its schema."""


class EmptyStoreError(FormukitError, ValueError):
    """Retrieval was attempted against an empty store."""


class TransportError(FormukitError, RuntimeError):
    """A transport-level failure (connection error, 5xx, 429) after retries."""


class RequestError(FormukitError, RuntimeError):
    """A non-retryable HTTP client error (4xx other than 429)."""
