"""Synthesis model: netlists, resource accounting and build flows."""

from .flow import BuildFlow, BuildResult, LockedShellCheckpoint
from .netlist import (
    MODULE_LIBRARY,
    Module,
    NetlistError,
    get_module,
    modules_for_services,
    total_resources,
)
from .resources import ResourceVector, utilization_report

__all__ = [
    "BuildFlow",
    "BuildResult",
    "LockedShellCheckpoint",
    "Module",
    "MODULE_LIBRARY",
    "NetlistError",
    "get_module",
    "modules_for_services",
    "total_resources",
    "ResourceVector",
    "utilization_report",
]
