"""Runtime limits.

A :class:`Config` travels into graph construction and enumeration: the
vertex budget stops a build or an enumeration before it grows past
``max_vertices``, and ``output_dir`` anchors CLI file outputs.  Every build
runs on one thread.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ParseError


@dataclass(frozen=True, slots=True)
class Config:
    """Construction limits.

    Attributes:
        max_vertices: Hard cap on graph and enumeration size.
        output_dir: Directory for CLI-generated files.
    """

    max_vertices: int = 10**6
    output_dir: Path = field(default_factory=lambda: Path("."))

    def __post_init__(self) -> None:
        if self.max_vertices < 1:
            raise ParseError(f"max_vertices must be positive, got {self.max_vertices}")


DEFAULT_CONFIG = Config()


def resolve_threads() -> int:
    """The core count; no build reads it."""
    return os.cpu_count() or 1  # kept only because perfbench/run.py imports it
