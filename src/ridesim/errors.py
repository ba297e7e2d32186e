"""Exception hierarchy shared across the package."""


class RidesimError(Exception):
    """Base class for all errors raised by this package."""


class GraphParseError(RidesimError):
    """A graph CSV file is malformed; the message names file and row."""


class GraphValidationError(RidesimError):
    """A parsed graph violates an invariant (dangling edge, bad attribute,
    missing strong connectivity); the message names the offending element."""


class ConfigError(RidesimError):
    """A scenario or plan file is invalid.

    ``path`` is the JSON path of the offending element (e.g.
    ``platforms[0].commission_rate``), or the file path for file-level
    problems.
    """

    def __init__(self, path: str, message: str = ""):
        super().__init__(f"{message}: {path}" if message else path)
        self.path = path


class SimulationError(RidesimError):
    """A run cannot go on: a decision hook raised or gave an answer outside
    its contract, or an agent attempted an impossible transition. The
    message names the simulated time, and for a hook its slot and agent. A
    hook's failure is a bug in that hook, which may be the user's; anything
    else is a bug in ridesim. Never normal output."""


class LogValidationError(RidesimError):
    """An event log failed replay validation."""
