"""Exception types shared across the package.

There is no command-line entry point yet; the CLI planned in ROADMAP
item 2 is to map these to process exit codes: ConfigError -> 2,
DataError -> 3, DivergenceError -> 4.
"""


class VtlmError(Exception):
    pass


class ConfigError(VtlmError):
    """Invalid or inconsistent configuration."""


class DataError(VtlmError):
    """Corpus files missing, malformed, or incompatible."""


class DivergenceError(VtlmError):
    """Training produced a non-finite loss. Nothing raises it yet: the
    training loop stops and returns `diverged=True` (ROADMAP item 8)."""


class NumericError(VtlmError):
    """Numeric-domain violation (e.g. non-finite attention scores)."""


class TransferError(ConfigError):
    """Pretrained weights incompatible with the target model."""
