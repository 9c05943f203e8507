"""Shared exception types.

ConfigError and its DatasetError/IncompatibleDataError kin signal bad
input or configuration, OptimizationError a diverged training run,
NonFiniteError a forward pass that overflowed and WorkerDiedError a
pool worker process that died (CLI exit code 2);
VerificationError signals a failed self-verification (CLI exit code 1).
"""


class ConfigError(Exception):
    """Invalid configuration, flags, or file schema."""


class DatasetError(ConfigError):
    """A dataset file or its sidecar metadata is missing or malformed."""


class IncompatibleDataError(ConfigError):
    """The dataset cannot support the requested operation or protocol."""


class OptimizationError(RuntimeError):
    """Training aborted, e.g. on a non-finite gradient or logit."""


class NonFiniteError(ValueError):
    """A computation met a non-finite value, e.g. an overflowed logit."""


class WorkerDiedError(RuntimeError):
    """A process-pool worker died before finishing its job."""


class VerificationError(Exception):
    """A self-check suite reported a failing property."""
