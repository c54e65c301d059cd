"""Exception types shared across the package."""


class RabenchError(Exception):
    """Base class for all errors raised by this package."""


class InvalidModelError(RabenchError):
    """A domain object violates one of its invariants.

    ``violations`` carries every detected problem, not just the first.
    """

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class DimensionError(InvalidModelError):
    """Shapes of beliefs, rules, and spaces do not line up."""


class TrialDataError(RabenchError):
    """Trial records reference unknown states, actions, or signals.

    ``trial_ids`` lists the offending records, each id as ``str(id)``, as a
    trial CSV shows an integer id.
    """

    def __init__(self, message, trial_ids=()):
        self.trial_ids = list(map(str, trial_ids))
        if self.trial_ids:
            message = f"{message} (trials: {', '.join(self.trial_ids)})"
        super().__init__(message)


class ConfigError(RabenchError):
    """A design config file cannot be parsed into a valid experiment."""
