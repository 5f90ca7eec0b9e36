"""Exception types shared across the package, and the one home of its
"must be an int", "must be >= N" and "unknown X" checks: `check_int`
(an int, not a bool, at least `low` when given), `check_choice` (one
of a set of names) and `check_real` (a real number, not a bool).

There is no command-line entry point yet; the CLI planned in ROADMAP
item 4 is to map these to process exit codes: ConfigError -> 2,
DataError -> 3, DivergenceError -> 4.
"""

import numbers


class VtlmError(Exception):
    pass


class ConfigError(VtlmError):
    """Invalid or inconsistent configuration."""


class DataError(VtlmError):
    """Input the package cannot use: a token id or region label outside
    its vocabulary, examples with differing region counts in one batch,
    an empty split, an evaluation with nothing to score (no examples, or
    no masked target), a derangement of fewer than two items, a
    checkpoint that is corrupt, truncated or does not fit the model, a
    resume without its `best.ckpt`, or one whose `last.ckpt` header
    holds a corrupt `step`, `best_step`, `metrics` or `best_metric`."""


class DivergenceError(VtlmError):
    """Training produced a non-finite loss. Nothing raises it yet: the
    training loop stops and returns `diverged=True` (ROADMAP item 8)."""


class NumericError(VtlmError):
    """Numeric-domain violation (e.g. non-finite attention scores)."""


class TransferError(ConfigError):
    """Pretrained weights incompatible with the target model."""


def check_int(name: str, value, low: int | None = None) -> None:
    """Raise ConfigError unless `value` is an int and not a bool, and,
    given `low`, at least `low`."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{name} must be an int, got {value!r}")
    if low is not None and value < low:
        raise ConfigError(f"{name} must be >= {low}, got {value}")


def check_real(name: str, value) -> None:
    """Raise ConfigError unless `value` is a real number and not a bool."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ConfigError(f"{name} must be a real number, got {value!r}")


def check_choice(name: str, value, choices) -> None:
    """Raise ConfigError unless `value` is one of `choices`."""
    if value not in choices:
        raise ConfigError(f"unknown {name} {value!r}")
