"""Exception types shared across the package."""


class GroupGrowthError(Exception):
    """Base class for all package errors."""


class InvalidSpec(GroupGrowthError, ValueError):
    """A group or manifold description violates its invariants."""


class InvalidGenus(InvalidSpec):
    """Surface genus below 2 (torus and sphere carry no hyperbolic bound)."""


class NoEnumerableGroup(InvalidSpec):
    """The manifold is a classification-only tag without an element-level group."""


class ClosureBudgetExceeded(GroupGrowthError):
    """The geodesic-substitution closure grew past its configured size."""


class WindowTooSmall(GroupGrowthError, ValueError):
    """A fit window holds fewer than the required number of points."""

