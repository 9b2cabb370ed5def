"""Exception taxonomy.

``ConfigError`` marks rejected inputs (CLI exit code 1); ``ComputeError``
subclasses mark numerical failures in otherwise well-formed requests
(CLI exit code 2).
"""

from __future__ import annotations


class IfslabError(Exception):
    """Base class for all package errors."""


class ConfigError(IfslabError):
    """Malformed configuration, file, or argument."""


class ComputeError(IfslabError):
    """Numerical failure during an otherwise valid computation."""


class NonFiniteState(ComputeError):
    """An iterate overflowed or became NaN (diverging system)."""

    def __init__(self, message: str = "iterate overflowed (system appears to diverge)"):
        super().__init__(message)


class IndivisibleBatch(ConfigError):
    """Partition batching requires the batch size to divide n."""


class NotPositiveDefinite(ComputeError):
    """Preconditioner failed its Cholesky factorization or eigen bounds."""


class SingularBatchHessian(ComputeError):
    """A per-batch Hessian solve failed in the stochastic Newton builder."""


class InsufficientScales(ComputeError):
    """Too few box-counting scales survived the saturation filter."""


class PreconditionViolation(ComputeError):
    """A proposition's step-size/radius hypothesis fails; message names it."""


class NonContractiveEstimate(ComputeError):
    """Mean log Jacobian norm is >= 0, or 0 within rounding, where a
    contractive system is required."""


class ZeroOperator(ComputeError):
    """Power iteration received an operator that annihilates its start vector."""


class DimensionTooLarge(ConfigError):
    """Dense-oracle request beyond the supported ambient dimension."""


class ZeroMeanLogNorm(ComputeError):
    """1/R would divide by a mean log norm indistinguishable from zero."""


class DegenerateVariance(ComputeError):
    """Correlation requested for a constant sequence."""
