"""Package surface: every exported name exists.

Checks:
* each name in ``crystals.__all__`` resolves on the package, so an export
  left behind by a deleted function fails here rather than at import time of
  a caller.
"""

from __future__ import annotations

import crystals


def test_every_export_resolves():
    missing = [name for name in crystals.__all__ if not hasattr(crystals, name)]
    assert missing == []
    assert len(set(crystals.__all__)) == len(crystals.__all__)
