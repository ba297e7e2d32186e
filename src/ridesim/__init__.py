"""Deterministic agent-based simulator of two-sided ride-hailing platforms.

A road network with precomputed shortest-path skims, microscopic travellers
and drivers, one or more matching platforms, pluggable decision modules,
KPI pipelines and an experiment runner (replications, parameter grids,
day-to-day learning until convergence).
"""

__version__ = "0.1.0"
