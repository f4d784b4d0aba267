"""Exception types shared across modules (CLI maps these to exit codes)."""

__all__ = ["ConfigError", "DataError", "GenerationError"]


class ConfigError(ValueError):
    """Invalid run configuration (exit code 2)."""


class DataError(ValueError):
    """Malformed or unreadable input data (exit code 3)."""


class GenerationError(RuntimeError):
    """Graph generation could not fill every slot, or a worker process died (exit code 5)."""
