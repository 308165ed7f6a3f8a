"""Exception hierarchy shared across the toolkit."""

from __future__ import annotations


class ReconfNetError(Exception):
    """Base class for all toolkit errors."""


class InvalidNetworkError(ReconfNetError):
    """A network failed validation; carries the machine-readable issues."""

    def __init__(self, issues):
        self.issues = tuple(issues)
        detail = "; ".join(f"{i.code}: {i.message}" for i in self.issues)
        super().__init__(f"invalid network: {detail}")


class FlowOnUnselectedLinkError(ReconfNetError):
    """A flow uses a reconfigurable link that is not part of the matching."""


class NonConservedFlowError(ReconfNetError):
    """Flow conservation is violated at an interior node."""


class InvalidDemandError(ReconfNetError, ValueError):
    """A demand is a self-demand, negative, not finite, or has an endpoint
    outside the network."""


class InfeasibleDemandError(ReconfNetError):
    """A positive demand has no route of positive capacity."""


class NumericalFailureError(ReconfNetError):
    """The LP solver did not converge; the result is reported, never guessed."""


class SolverUnavailableError(ReconfNetError):
    """The installed scipy lacks the HiGHS binding the LP solver calls."""


class NotSingleSourceError(ReconfNetError):
    """The demand matrix is not single-source (or single-destination)."""


class NotSingleCommodityError(ReconfNetError):
    """The demand matrix holds more than one commodity."""


class NonUniformCapacitiesError(ReconfNetError):
    """Capacities are not a single positive value across all directions."""


class InstanceTooLargeError(ReconfNetError, RuntimeError):
    """The instance exceeds the exhaustive-search or path-search limits."""


class InvalidDegreeError(ReconfNetError):
    """Regular-graph parameters are infeasible (n*k odd or k >= n)."""


class GenerationTimeoutError(ReconfNetError):
    """Topology sampling exceeded the rejection budget."""


class TraceParseError(ReconfNetError):
    """A demand trace file has a malformed row."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class TopologyParseError(ReconfNetError, ValueError):
    """A topology file has a malformed record or a node id outside its
    ``# nodes=N`` header."""

    def __init__(self, line_no: int, line: str, reason: str = "malformed topology record"):
        self.line_no = line_no
        super().__init__(f"{reason} at line {line_no}: {line!r}")


class EmptyRecordSetError(ReconfNetError):
    """Summary requested over zero run records."""
