"""Exception hierarchy shared across the package."""


class SvyestError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(SvyestError):
    """An argument is outside its documented domain."""


class SizeError(ParameterError):
    """A requested enumeration or allocation is combinatorially infeasible."""


class DesignError(SvyestError):
    """A sampling design cannot be applied to the given population."""


class AllocationError(DesignError):
    """Stratum sample sizes cannot satisfy the allocation constraints."""


class LoadError(SvyestError):
    """A delimited input file is missing, malformed, or non-numeric."""


class SingularMatrixError(SvyestError):
    """A weighted Gram matrix is rank deficient beyond the condition guard."""


class PredictorError(SvyestError):
    """A fitted predictor produced a non-finite value."""


class ConvergenceError(SvyestError):
    """An iterative fit hit its sweep limit before converging.

    Carries the last iterate, the objective trace and, where the problem
    has one, the duality gap of the last iterate, so callers can inspect how
    far the optimisation got.
    """

    def __init__(self, message, *, coef=None, objective_trace=None, dual_gap=None):
        super().__init__(message)
        self.coef = coef
        self.objective_trace = objective_trace
        self.dual_gap = dual_gap


class RunError(SvyestError):
    """A Monte Carlo run failed (for example, a method failed too often)."""
