"""Exception types shared across the package, and its one count rule."""

# The largest count a config accepts: one array of that many float64
# values is 16 GiB, and larger counts overflow inside a run.
MAX_COUNT = 2**31 - 1


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


def check_count(name: str, count, most: int = MAX_COUNT):
    """Return ``count``; raise ConfigError unless 1 <= count <= most."""
    if count < 1:
        raise ConfigError(f"{name} must be >= 1, got {count}")
    if count > most:
        raise ConfigError(f"{name} must be <= {most}, got {count}")
    return count
