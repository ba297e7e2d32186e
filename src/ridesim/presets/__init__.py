"""Bundled scenario and plan presets, loadable by bare name from the CLI.

e1: one platform, 200 travellers, 10 drivers, west-weighted demand.
e2: plan sweeping demand x fleet size with replications.
e3: plan where an entrant platform varies fleet and per-km fare against
    an incumbent with 20 dedicated drivers at 1.0/km.
e4: 100 drivers serving 200 travellers, income-learning participation;
    meant for multi-day runs.
"""

from importlib import resources


def names() -> list[str]:
    return sorted(
        entry.name[:-5]
        for entry in resources.files(__name__).iterdir()
        if entry.name.endswith(".json")
    )


def path(name: str):
    """The bundled preset file ``name`` as an ``importlib.resources`` path."""
    return resources.files(__name__).joinpath(name + ".json")


def read_text(name: str) -> str:
    return path(name).read_text(encoding="utf-8")
