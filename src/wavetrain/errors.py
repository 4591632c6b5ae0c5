"""Exception types shared across the package."""


class WavetrainError(Exception):
    """Base class for all package-specific errors."""


class ModelParameterError(WavetrainError, ValueError):
    """A reaction model was constructed with out-of-range parameters."""


class ProfileConvergenceError(WavetrainError):
    """Newton iteration for a wave profile failed to converge."""

    def __init__(self, message, residual_norm=None, history=None):
        super().__init__(message)
        self.residual_norm = residual_norm
        self.history = list(history) if history is not None else []


class DegenerateProfileError(WavetrainError):
    """The solver landed on (or was started from) a constant state."""


class BranchTrackingError(WavetrainError):
    """Eigenvalue branch continuation hit an overlap ambiguity."""


class DiagonalizationError(WavetrainError):
    """A Bloch fiber's eigenvector matrix is too ill-conditioned to propagate
    through."""


class ResolutionError(WavetrainError):
    """A spectral truncation does not resolve the eigenvalues it is used for."""


class AdmissibilityError(WavetrainError, ValueError):
    """A cutoff or grid parameter violates its admissibility constraints."""


class BlowUpError(WavetrainError):
    """Time integration left the trust region (norm blow-up / NaN)."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


class ExtractionDivergenceError(WavetrainError):
    """The fixed-point modulation extraction diverged."""

    def __init__(self, message, iterations=None, update_norms=None):
        super().__init__(message)
        self.iterations = iterations
        self.update_norms = list(update_norms) if update_norms is not None else []


class ShiftFitError(WavetrainError):
    """No translate of the wave is nearest the last snapshot where Newton's
    method looks for it: the phase limit is undefined."""


class PhaseWarpError(WavetrainError):
    """The extracted phase field is too steep for the coordinate warp.

    The projection route records a snapshot whose max |psi_x| reaches 1/2
    (the warp x -> x - gamma/N - psi(x) stops being invertible) as a failed
    row.  Raised when the Duhamel route starts from a trace with such a row,
    and when psi_x reaches 1 in the residual terms (the 1/(1 - psi_x)
    factors become singular).
    """
