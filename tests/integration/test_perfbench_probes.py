"""Every probe the traced benchmark installs still names a live target.

``perfbench.spans.install`` raises ``AttributeError`` when a probe's
``module:qualname`` target is gone, so a refactor that renames or deletes
a probed function would otherwise surface only on a ``--trace 1``
benchmark run.  Installing and uninstalling the full probe set here turns
that into a tier-1 failure.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from perfbench import spans  # noqa: E402
from perfbench.layers import PROBES  # noqa: E402


def test_every_probe_target_resolves_and_uninstalls():
    undo = spans.install(spans.Tracer(), PROBES)
    try:
        # Every target is patched at least where it is defined.
        targets = sum(len(probe.targets) for probe in PROBES)
        assert len(undo) >= targets
    finally:
        spans.uninstall(undo)
    for owner, attr, original in undo:
        assert getattr(owner, attr) is original
