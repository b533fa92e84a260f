"""Exception hierarchy, and the guard that keeps value classes immutable.

Two branches matter to the command line: ValidationError (structurally bad
data or a violated analysis precondition, exit status 1) and InputError
(unreadable or malformed input files, exit status 2).
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


# rough-set layer

class InvalidSubsetError(ValidationError):
    """Queried set contains elements outside the universe."""


class UnknownAttributeError(ValidationError):
    """Attribute selection names an attribute the table does not have."""


# concept-map layer

class MapValidationError(ValidationError):
    """Node collection does not form a valid rooted tree."""


class DuplicateNodeError(MapValidationError):
    pass


class UnknownParentError(MapValidationError):
    pass


class CycleError(MapValidationError):
    pass


class RootCountError(MapValidationError):
    pass


class RootMismatchError(ValidationError):
    """Teacher and student maps disagree on the root concept."""


class SubjectMismatchError(ValidationError):
    """Teacher and student maps name different subjects."""


# analysis layer

class NothingToAnalyzeError(ValidationError):
    """Map consists of a single node, so no level can be classified."""


# grading layer

class PercentRangeError(ValidationError):
    """Percentage outside the 0..100 range."""


class ReportFormatError(ValidationError):
    """Unknown report format name."""


# file layer

class MapFileParseError(InputError):
    """Concept-map file is not well-formed JSON or misses required fields."""


class RosterSchemaError(InputError):
    """Roster CSV misses required columns or violates field constraints."""


class DuplicateRegisterError(InputError):
    """Two roster rows share a register number."""
