"""rdsw: a workbench for finite random dynamical systems on the circle,
interval, and projective line: synchronization diagnostics, quenched limit
laws, Lyapunov and large-deviation estimates, matrix cocycles, and transfer
operator discretizations, all driven by reproducible counter-based streams.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .gallery import gallery, gallery_facts, gallery_ids
from .geometry import CIRCLE, INTERVAL, PROJECTIVE, distance
from .systems import (
    AffineMap,
    MapSpec,
    MoebiusMap,
    PerturbedRotation,
    Rotation,
    SystemSpec,
    TabulatedMap,
    WordStream,
    iterate,
)

__all__ = [
    "__version__",
    "CIRCLE",
    "INTERVAL",
    "PROJECTIVE",
    "distance",
    "MapSpec",
    "AffineMap",
    "Rotation",
    "PerturbedRotation",
    "MoebiusMap",
    "TabulatedMap",
    "SystemSpec",
    "WordStream",
    "iterate",
    "gallery",
    "gallery_ids",
    "gallery_facts",
]
