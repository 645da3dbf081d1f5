"""Exception types shared across the package."""


class NswError(Exception):
    """Base class for package errors."""


class UsageError(NswError):
    """Caller-side problem (bad file, bad config); the CLI maps these to exit code 2."""


class _RowError(UsageError):
    """Input-file error tied to a 1-based data row."""

    def __init__(self, row, message=""):
        self.row = row
        super().__init__(f"row {row}: {message}" if message else f"row {row}")


# -- bar ingestion ------------------------------------------------------------

class MissingFile(UsageError):
    pass


class ParseError(_RowError):
    pass


class NonMonotonicTimestamp(_RowError):
    pass


class NonUniformSpacing(_RowError):
    pass


class NonPositivePrice(_RowError):
    pass


# -- simulation ---------------------------------------------------------------

class InvalidStep(NswError):
    pass


class NegativeDiffusion(NswError):
    pass


# -- wavelets -----------------------------------------------------------------

class UnsupportedFamily(UsageError):
    pass


class SeriesTooShort(NswError):
    pass


# -- model fitting ------------------------------------------------------------

class WindowTooShort(NswError):
    pass


class DegenerateWindow(NswError):
    pass


# -- stationary density -------------------------------------------------------

class NonIntegrable(NswError):
    pass


class GridMismatch(NswError):
    pass


class TooFewPoints(NswError):
    pass


# -- signal engine ------------------------------------------------------------

class NotWarmedUp(NswError):
    pass


# -- portfolio ----------------------------------------------------------------

class NonPositiveEquity(NswError):
    pass


class TooShort(NswError):
    pass


class NegativeVariance(NswError):
    pass


class NotPSD(NswError):
    pass


# -- baselines / backtest -----------------------------------------------------

class EmptyGrid(UsageError):
    pass


class MisalignedSeries(NswError):
    pass


class ConfigError(UsageError, ValueError):
    pass
