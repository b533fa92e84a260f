"""Exception hierarchy, and the guard that keeps value classes immutable.

Two branches matter to the command line: ValidationError (structurally bad
data or a violated analysis precondition, exit status 1) and InputError
(unreadable or malformed input files, exit status 2).  The message, not the
class, names the fault.
"""


class Frozen:
    """Base of the immutable plain classes: assigning or deleting an
    attribute raises AttributeError.  Their constructors, and the cached
    properties they read, fill ``__dict__`` directly."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class RoughMapError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(RoughMapError):
    """Structurally invalid data or a violated operation precondition."""


class InputError(RoughMapError):
    """Unreadable, malformed, or schema-violating input file."""


class MapValidationError(ValidationError):
    """Node collection does not form a valid rooted tree."""


class UnknownParentError(MapValidationError):
    """A node names a parent that is not in the map."""
