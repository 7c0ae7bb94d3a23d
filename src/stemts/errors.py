"""Exception hierarchy shared across the package.

Every failure a caller is expected to handle maps to one subclass of
``StemError``, so the CLI can catch a single base class and turn it into a
nonzero exit with the message on stderr.
"""

from numbers import Integral


class StemError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(StemError, ValueError):
    """A setting or flag value is out of range; also a ``ValueError`` for callers."""


class SchemaError(StemError):
    """A file header or record layout does not match the documented schema."""


class ParseError(StemError):
    """A cell could not be parsed; the message carries the offending row."""


class MalformedDatasetError(StemError):
    """A sample violates the dataset contract (gaps, duplicates, bad shape)."""


class EmptyDatasetError(StemError):
    """A dataset source contained no samples."""


class EmptySpecError(StemError):
    """A synthetic spec declares no classes or no samples per class."""


class InvalidTargetError(StemError):
    """A padding target is shorter than the sample it should extend."""


class TooShortError(StemError):
    """A sequence is too short to symbolize (needs at least two points)."""


class InvalidCodeError(StemError):
    """An event code lies outside the alphabet for the given dimension count."""


class EmptyInputError(StemError):
    """An operation that needs at least one sequence received none."""


class DuplicateFeatureError(StemError):
    """The same tuple appears twice in a feature list."""


class IncompatibleVocabularyError(StemError, ValueError):
    """Sequences, or a sequence and a vocabulary, disagree on the dimension count."""


class UnlabeledDataError(StemError):
    """A labeled-data operation received samples without labels."""


class DegenerateTaskError(StemError):
    """Classification was requested on fewer than two classes."""


def check_int(name: str, value, low: int) -> int:
    """``value`` as an ``int``; a ``ConfigError`` naming ``name`` unless it is an integer
    (not a bool) >= ``low``, so a numpy integer is stored, and written, as a Python one."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < low:
        raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)
