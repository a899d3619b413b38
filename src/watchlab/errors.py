"""Exception types shared across the package."""


class WatchlabError(Exception):
    """Base class for all errors raised by watchlab."""


class MalformedRow(WatchlabError):
    def __init__(self, line: int, reason: str):
        self.line = line
        super().__init__(f"row {line}: {reason}")


class MissingColumn(WatchlabError):
    pass


class EmptyDataset(WatchlabError):
    pass


class MissingTimestamps(WatchlabError):
    pass


class CurveOrderViolation(WatchlabError):
    pass


class GroupTooSmall(WatchlabError):
    pass


class NoFittableGroups(WatchlabError):
    pass


class LikelihoodDecrease(WatchlabError):
    pass


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
