"""Where and on what a benchmark result was measured."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from importlib import metadata
from pathlib import Path
from typing import Any, Dict, Optional


def _git(root: Path, *args: str) -> Optional[str]:
    # Only a checkout that is itself a repository: never a parent's.
    if not (root / ".git").exists():
        return None
    completed = subprocess.run(
        ["git", "-C", str(root), *args], capture_output=True, text=True, timeout=30
    )
    return completed.stdout.strip() if completed.returncode == 0 else None


def source_digest(root: Path) -> str:
    """SHA-256 over the paths and bytes of ``src/**/*.py``: the code measured."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def describe(root: Path, seed: int, blas_threads: int) -> Dict[str, Any]:
    status = _git(root, "status", "--porcelain", "--", "src")
    return {
        "commit": _git(root, "rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "src_sha256": source_digest(root),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_threads": blas_threads,
        "workload_seed": seed,
    }
