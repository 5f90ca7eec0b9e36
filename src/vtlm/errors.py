"""Exception types shared across the package.

There is no command-line entry point yet; the CLI planned in ROADMAP
item 4 is to map these to process exit codes: ConfigError -> 2,
DataError -> 3, DivergenceError -> 4.
"""


class VtlmError(Exception):
    pass


class ConfigError(VtlmError):
    """Invalid or inconsistent configuration."""


class DataError(VtlmError):
    """Input the package cannot use: a token id or region label outside
    its vocabulary, examples with differing region counts in one batch,
    an empty split, an evaluation with nothing to score (no examples, or
    no masked target), a checkpoint that is corrupt, truncated or does
    not fit the model, a resume without its `best.ckpt`, or one whose
    `last.ckpt` header holds a corrupt `step`, `best_step`, `metrics`
    or `best_metric`."""


class DivergenceError(VtlmError):
    """Training produced a non-finite loss. Nothing raises it yet: the
    training loop stops and returns `diverged=True` (ROADMAP item 8)."""


class NumericError(VtlmError):
    """Numeric-domain violation (e.g. non-finite attention scores)."""


class TransferError(ConfigError):
    """Pretrained weights incompatible with the target model."""
