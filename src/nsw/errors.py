"""Exception types shared across the package, and the reason table."""

# The reason table: why a window has no density or a bar is held, one uint8 code each (1-4 are FitStack.status)
REASONS = ("pass", "non_finite", "zero_variance", "non_finite_fit", "ill_conditioned", "no_mass", "edge_mass",
           "conv_non_integrable", "grid_mismatch", "ks_reject")
MESSAGES = ("gate passed", "window contains non-finite values", "zero variance over the window",
            "non-finite drift or diffusion coefficients", "design rank-deficient or nearly so: no identified fit",
            "density has no positive finite mass on the grid", "drift not confining: boundary mass past the edge limit",
            "convolution density has no positive mass", "density supports do not overlap",
            "densities differ: KS statistic at or past the gate threshold")
(PASS, NON_FINITE, ZERO_VARIANCE, NON_FINITE_FIT, ILL_CONDITIONED, NO_MASS, EDGE_MASS, CONV_NON_INTEGRABLE,
 GRID_MISMATCH, KS_REJECT) = range(len(REASONS))


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


class MisalignedSeries(UsageError):
    pass


class ConfigError(UsageError, ValueError):
    pass
