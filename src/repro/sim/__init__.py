"""Discrete-event simulation kernel (clock, processes, resources, stats)."""

from .core import (CheckpointInfo, Condition, Event, Interrupt, Process,
                   Simulator, Timeout, TrainSchedule, drain_freelists)
from .resources import Resource, Store
from .snapshot import Checkpoint, ScenarioEngine, fork_available
from .stats import BandwidthMeter, LatencyCollector, Summary, summarize

__all__ = [
    "Condition", "Event", "Interrupt", "Process", "Simulator", "Timeout",
    "CheckpointInfo", "TrainSchedule", "drain_freelists",
    "Checkpoint", "ScenarioEngine", "fork_available",
    "Resource", "Store",
    "BandwidthMeter", "LatencyCollector", "Summary", "summarize",
]
