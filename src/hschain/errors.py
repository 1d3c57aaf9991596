"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Raised when a chain specification or argument is invalid."""


class CapacityError(RuntimeError):
    """Raised by :func:`hschain.table.check_grid_budget`, before anything is
    allocated, when a backend's predicted bytes pass the memory budget or its
    predicted work passes its ceiling.  The message states the prediction
    and, where one exists, the backend that can handle the request instead.
    """


class ConvergenceError(RuntimeError):
    """Raised when an iterative numerical routine fails to reach its
    tolerance; the message reports the residual actually achieved."""
