"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Raised for invalid distribution or simulation configuration.

    The CLI maps this to exit code 2 (usage/config error).
    """


class InvariantError(RuntimeError):
    """Raised when an internal invariant or cross-check fails.

    Used instead of ``assert``, which ``python -O`` removes, so that the
    checks the validation suite relies on always run.
    """
