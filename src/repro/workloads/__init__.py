"""Seeded workload builders for the experiments."""

from repro.workloads.generators import (
    RegisterWorkload,
    SnapshotWorkload,
    build_max_register_system,
    build_register_system,
    build_snapshot_system,
)

__all__ = [
    "RegisterWorkload",
    "SnapshotWorkload",
    "build_max_register_system",
    "build_register_system",
    "build_snapshot_system",
]
