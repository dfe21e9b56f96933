"""Common base for all library errors.

The CLI maps any FinitaryError on an input path to exit code 2; specific
subclasses live next to the code that raises them, except TooLarge,
which several modules raise.
"""


class FinitaryError(Exception):
    pass


class TooLarge(FinitaryError):
    """An enumeration would exceed its documented size cap."""
