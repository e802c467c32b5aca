"""Exception types shared across the package."""


class ChoreSwapError(Exception):
    """Base class for all package errors."""


class Finding(ChoreSwapError):
    """A reportable finding, exit 2 on the command line: a failed
    postcondition, a start that fails its gate, a certificate a pipeline
    built that does not validate, or an input that contradicts a
    derivation the pipeline relies on."""


class ParseError(ChoreSwapError):
    """Malformed input file; carries a 1-based line and column."""

    def __init__(self, message, line=None, col=None):
        loc = ", ".join(f"{k} {v}" for k, v in (("line", line), ("col", col)) if v is not None)
        super().__init__(f"{message} ({loc})" if loc else message)
        self.line = line
        self.col = col


class MalformedHeader(ParseError):
    pass


class BadRational(ParseError):
    pass


class NonPositiveDisutility(ParseError):
    pass


class RowCountMismatch(ParseError):
    pass


class AgentOutOfRange(ChoreSwapError):
    pass


class ChoreOutOfRange(ChoreSwapError):
    pass


class InvalidDistribution(ChoreSwapError):
    pass


class IncompleteAllocation(ChoreSwapError):
    pass


class PriceLengthMismatch(ChoreSwapError):
    pass


class NonPositivePrice(ChoreSwapError):
    pass


class EmptyBundle(ChoreSwapError):
    def __init__(self, agent):
        super().__init__(f"agent {agent + 1} has an empty bundle")
        self.agent = agent


class ChoreNotHeld(ChoreSwapError):
    pass


class SelfSwap(ChoreSwapError):
    pass


class CertificateInvalid(Finding):
    def __init__(self, violations):
        super().__init__(
            "certificate invalid: " + "; ".join(str(v) for v in violations)
        )
        self.violations = violations


class PostconditionViolated(Finding):
    """An always-on invariant monitor fired. Carries the full trace."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class BudgetExceeded(ChoreSwapError):
    pass


class NotBivalued(ChoreSwapError):
    pass


class RhoNotLessThanK(Finding):
    pass


class TooManyChores(ChoreSwapError):
    pass


class RoundedInputInvalid(ChoreSwapError):
    def __init__(self, violations):
        super().__init__(
            "rounded input invalid: " + "; ".join(str(v) for v in violations)
        )
        self.violations = violations


class CouplingUnsatisfiable(Finding):
    pass


class TraceMismatch(ChoreSwapError):
    pass


class GenerationBudgetExceeded(ChoreSwapError):
    pass


class InvariantViolation(Finding):
    pass
