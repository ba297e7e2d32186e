"""Exception hierarchy shared across the package."""


class RidesimError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(RidesimError):
    """An input is invalid: a config, plan or flag, or an input file (a
    graph's nodes or edges, requests, drivers, a stored ``events.csv``).
    The message reads ``why: where``.

    ``path`` says where: the JSON path of the offending element (e.g.
    ``platforms[0].commission_rate``), the flag, the file for file-level
    problems, ``<file>:row N`` for one CSV row, or ``grid_city(RxC)`` for a
    generated grid.
    """

    def __init__(self, path: str, message: str = ""):
        super().__init__(f"{message}: {path}" if message else path)
        self.path = path
        self.message = message


class SimulationError(RidesimError):
    """A run cannot go on: a decision hook raised or gave an answer outside
    its contract, an agent attempted an impossible transition, or a number
    overflowed. The message names the simulated time (for a KPI, the day
    and the column), and for a hook its slot and agent. A hook's failure is
    a bug in that hook, which may be the user's; an overflow comes from the
    config's values; anything else is a bug in ridesim. Never normal
    output."""


class LogValidationError(RidesimError):
    """An event log's content failed replay validation."""
