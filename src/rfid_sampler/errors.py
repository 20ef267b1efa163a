"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid input: a scenario, a population, or an argument outside its range."""


class ProtocolError(RuntimeError):
    """A protocol run could not complete (seed pool exhausted, cap hit)."""
