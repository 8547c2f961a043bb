"""Exception types shared across the package, and the helper that quotes input in their messages."""


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


def shown(value) -> str:
    """repr(value) for an error message, cut after 200 characters with '...'.

    A spec can be arbitrarily large or deeply nested; the message echoes
    only its start, so it stays one short line.
    """
    text = repr(value)
    return text if len(text) <= 200 else text[:200] + "..."
