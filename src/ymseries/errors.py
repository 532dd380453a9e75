"""The two bases of every exception class the package defines.

InputError: the caller's input lies outside what the function accepts.
ExactnessError: an exact invariant guaranteed by the theory did not hold,
such as a non-integral exponent or codimension.  Every series here is a
Poincare series and every check an exact identity, so this is always a
fault in the program, never a user mistake.

The command line maps the two to exit codes 2 and 3.
"""


class InputError(ValueError):
    """The caller's input lies outside what the function accepts."""


class ExactnessError(RuntimeError):
    """An exact invariant guaranteed by the theory did not hold: an internal fault."""
