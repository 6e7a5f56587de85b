"""Exception types shared across the package.

There is one class per outcome a caller tells apart. ``ConfigurationError``
makes the CLI exit 2. ``ParseError`` is a file ``mine`` rejects and moves
past. ``InputError`` is a broken precondition; where input enters, the
caller re-raises it as a refusal of that input. ``SamplingError`` is
re-raised with the id of the shape it came from. Any other
``PartembedError`` makes the CLI exit 1.
"""


class PartembedError(Exception):
    """Base class for all errors raised by this package."""


class InputError(PartembedError, ValueError):
    """A caller-supplied value violates an operation's precondition."""


class ParseError(PartembedError, ValueError):
    """A file or document could not be parsed."""


class SamplingError(PartembedError, ValueError):
    """Triplets cannot be drawn from the given shape."""


class ConfigurationError(PartembedError, ValueError):
    """A run configuration is inconsistent or incomplete."""
