"""Exception hierarchy shared by all distcolor modules."""


class Error(Exception):
    """Base class for all distcolor errors."""


class InvalidPrime(Error):
    """A prime modulus argument is composite or out of range."""


class NotPrime(Error):
    """An argument required to be prime is composite."""


class TooLarge(Error):
    """Input exceeds a documented size cap."""


class OutOfRange(Error):
    """Index outside its valid range."""


class BadInput(Error):
    """Malformed or inconsistent argument values."""


class OddCycle(Error):
    """A two-coloring attempt ran into an odd cycle."""


class UnsupportedN(Error):
    """No qualifying prime exists for the requested ground-set size."""


class IncompleteColoring(Error):
    """A coloring does not assign a label to every vertex."""


class OutOfValidity(Error):
    """Parameters lie outside a formula's validity region."""


class InternalContradiction(Error):
    """A cross-check that should be mathematically impossible failed."""
