"""Runtime limits and the thread setting.

A :class:`Config` travels into graph construction and enumeration: the
vertex budget stops a build or an enumeration before it grows past
``max_vertices``, and ``output_dir`` anchors CLI file outputs.  Every build
runs on one thread, so ``threads`` and the environment variable
``CRYSTAL_THREADS`` change nothing; they are still accepted and validated.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ParseError

THREADS_ENV_VAR = "CRYSTAL_THREADS"


@dataclass(frozen=True, slots=True)
class Config:
    """Construction limits.

    Attributes:
        max_vertices: Hard cap on graph and enumeration size.
        threads: Accepted and validated but unused: every build runs on one
            thread.
        output_dir: Directory for CLI-generated files.
    """

    max_vertices: int = 10**6
    threads: int | None = None
    output_dir: Path = field(default_factory=lambda: Path("."))

    def __post_init__(self) -> None:
        if self.max_vertices < 1:
            raise ParseError(f"max_vertices must be positive, got {self.max_vertices}")
        if self.threads is not None and self.threads < 1:
            raise ParseError(f"threads must be positive, got {self.threads}")


DEFAULT_CONFIG = Config()


def resolve_threads(config: Config | None = None) -> int:
    """The thread setting: ``CRYSTAL_THREADS`` beats config beats cores.

    No build reads it; the CLI calls it so that a malformed environment
    value is still refused.

    Raises:
        ParseError: The environment variable is not a positive integer.
    """
    env = os.environ.get(THREADS_ENV_VAR)
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise ParseError(
                f"{THREADS_ENV_VAR} must be an integer, got {env!r}"
            ) from None
        if value < 1:
            raise ParseError(f"{THREADS_ENV_VAR} must be positive, got {value}")
        return value
    if config is not None and config.threads is not None:
        return config.threads
    return os.cpu_count() or 1
