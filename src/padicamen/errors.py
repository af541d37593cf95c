"""Exception types shared across the package."""


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class SpecParseError(ToolkitError):
    """A group spec string or input file could not be parsed."""


class GroupValidationError(ToolkitError):
    """A Cayley table failed validation (non-Latin, non-associative, ...)."""


class OrderCapError(ToolkitError):
    """A computation was refused because the group order exceeds the cap."""


class OutputError(ToolkitError):
    """The output document could not be written."""


class InternalCheckError(ToolkitError):
    """An exact internal cross-check failed.

    These checks guard identities that hold by theorem for every valid
    input, so raising one always signals an implementation bug, never a
    data condition.
    """
