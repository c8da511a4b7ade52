"""Exception types shared across the package."""


class RuinlabError(Exception):
    """Base class for all package-specific errors."""


class DomainError(RuinlabError):
    """An argument lies outside the mathematical domain of the operation."""


class UnsupportedCombination(RuinlabError):
    """No analytic or sampling route exists for this law/tilt combination."""


class NonFiniteMoment(RuinlabError):
    """A tilted first moment is infinite, so the pair cannot be admissible."""


class SecondMomentInfinite(RuinlabError):
    """The claim law has no finite second moment (required by linear tilts)."""


class NotRuinInducing(RuinlabError):
    """The pair violates c*E[W e^delta] <= E[X e^gamma] or meets it with zero
    tilted drift: the tilted walk may never reach the barrier, or reaches it
    after a time of infinite mean."""

    def __init__(self, lhs: float, rhs: float):
        super().__init__(
            "tilt is not ruin-inducing with a positive drift: c*E[W e^delta] = "
            f"{lhs:.10g} {'>' if lhs > rhs else '<='} E[X e^gamma] = {rhs:.10g}, "
            f"tilted drift {rhs - lhs:.3g}"
        )
        self.lhs = lhs
        self.rhs = rhs


class MgfUnavailable(RuinlabError):
    """The moment generating function has zero radius of convergence."""


class NoBracket(RuinlabError):
    """A root solve found no sign change or no usable root: the analytic layer's "no answer"."""


class StepCapExceeded(RuinlabError):
    """A replication hit the step cap before terminating.

    Signals a non-admissible or numerically degenerate tilt; the estimate
    must not be silently truncated.
    """

    def __init__(self, replication: int, steps: int):
        super().__init__(
            f"replication {replication} exceeded the step cap ({steps} steps); "
            "the tilt is likely not ruin-inducing"
        )
        self.replication = replication
        self.steps = steps


class ConfigError(RuinlabError):
    """A model/tilt/run configuration failed to parse or validate."""
