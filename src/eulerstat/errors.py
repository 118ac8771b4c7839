"""Exception types shared across the package."""


class ResolutionError(ValueError):
    """A grid is too coarse for the requested modal content."""


class ShapeError(ValueError):
    """An array does not have the expected shape."""


class InconsistencyError(ValueError):
    """Input violates a mathematical precondition (e.g. nonzero mean vorticity)."""


class SnapshotFormatError(ValueError):
    """A file is not a complete, finite snapshot of the current format."""


class BlowUpError(RuntimeError):
    """The time integration produced non-finite coefficients.

    Attributes
    ----------
    time : float or None
        Simulation time at which the failure was detected.
    sample_index : int or None
        Monte Carlo sample that failed, when run through an ensemble.
    """

    def __init__(self, message, time=None, sample_index=None):
        super().__init__(message)
        self.time = time
        self.sample_index = sample_index
