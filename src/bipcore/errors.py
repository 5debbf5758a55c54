"""Exception types shared across the package."""


class BipcoreError(Exception):
    """Base class for package-specific errors."""


class GraphFormatError(BipcoreError, ValueError):
    """Raised when an edge-list file cannot be parsed or validated."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DegenerateGraphError(BipcoreError, ValueError):
    """Raised when an operation needs both sides of the graph nonempty."""


class SizeCapError(BipcoreError):
    """Raised when an exact computation would exceed its instance-size cap."""


class NotTwoLinkedError(BipcoreError, ValueError):
    """Raised when a vertex set is not a valid polymer (not 2-linked)."""


class ClusterBudgetError(BipcoreError):
    """Raised when the series coefficients an expansion engine would store
    pass ``clusters.MAX_COEFFICIENTS``, or the clusters the Ursell
    reference (``clusters.ClusterEngine``) would enumerate pass its own limit.

    The expansion never truncates silently.  ``approx_log_Z`` and the
    truncated sampler retry at smaller depths and flag ``degraded``; depth 1
    stores no coefficient, so they never raise this.  The exact sampler
    backend (when it is built, never during a draw), ``truncated_cumulant``
    and ``decay_experiment`` do.  ``clusters_seen`` is the count that passed
    the budget: the coefficient total when an expansion engine raises it,
    the cluster count when the Ursell reference does.
    """

    def __init__(self, message: str, clusters_seen: int = 0):
        super().__init__(message)
        self.clusters_seen = clusters_seen


class CertificationError(BipcoreError):
    """Raised when a computation refuses to run without a valid convergence
    certificate (or, for complex regions, when the region condition fails)."""


class StructuralMismatchError(BipcoreError, ValueError):
    """Raised when a graph does not match the structural hypothesis of the
    requested special-case condition check."""


class GenerationError(BipcoreError, RuntimeError):
    """Raised when a random graph generator finds no valid graph within its
    attempts."""
