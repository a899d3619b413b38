"""Exception types shared across the package."""


class WatchlabError(Exception):
    """Base class for all errors raised by watchlab."""


class MalformedRow(WatchlabError):
    def __init__(self, line: int, reason: str):
        self.line = line
        super().__init__(f"row {line}: {reason}")


class MissingColumn(WatchlabError):
    def __init__(self, name: str):
        super().__init__(f"missing column: {name}")


class EmptyDataset(WatchlabError):
    pass


class MissingTimestamps(WatchlabError):
    pass


class CurveOrderViolation(WatchlabError):
    pass


class GroupTooSmall(WatchlabError):
    def __init__(self, count: int):
        super().__init__(f"group has {count} samples")


class NoFittableGroups(WatchlabError):
    pass


class LikelihoodDecrease(WatchlabError):
    def __init__(self, d: int, loglik: float, previous: float):
        super().__init__(f"duration group {d}: EM log-likelihood fell from {previous!r} "
                         f"to {loglik!r}")


class EmptyCurve(WatchlabError):
    pass


class CurveCollapse(WatchlabError):
    pass


class NumericOverflow(WatchlabError):
    pass


class LengthMismatch(WatchlabError):
    pass


class DegenerateDenominator(WatchlabError):
    pass


class NoEvaluableUsers(WatchlabError):
    pass


class NonFiniteLoss(WatchlabError):
    pass


class ConfigError(WatchlabError):
    """Invalid pipeline configuration (CLI exits with code 2)."""


class NonFiniteScores(WatchlabError):
    pass


class NonBinaryLabels(WatchlabError):
    pass
