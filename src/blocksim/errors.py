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


class RunError(RuntimeError):
    """Raised when a replication runs out of memory, naming it.

    The CLI maps this to exit code 3 (the run failed), as it does a bare
    MemoryError and a dead pool worker.
    """
