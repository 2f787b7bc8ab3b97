"""Discrete-event simulation kernel (simulator, processes, resources, stats)."""

from repro.sim.core import GRANTED, Event, Simulator, all_of, any_of
from repro.sim.process import Interrupt, Process, ProcessGenerator, sleep_event, spawn
from repro.sim.resources import Lock, Resource, Store
from repro.sim.stats import Counter, LatencySample, StatRegistry, TimeWeightedGauge

__all__ = [
    "GRANTED",
    "Event",
    "Simulator",
    "all_of",
    "any_of",
    "Interrupt",
    "Process",
    "ProcessGenerator",
    "sleep_event",
    "spawn",
    "Lock",
    "Resource",
    "Store",
    "Counter",
    "LatencySample",
    "StatRegistry",
    "TimeWeightedGauge",
]
