"""Order statistics for op timings, and ``-X importtime`` parsing."""

from __future__ import annotations

import statistics
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

#: A tail percentile is only reported with at least this many samples
#: beyond it.
TAIL_BEYOND = 10
#: Samples needed for a tail percentile above the median.
TAIL_SAMPLES = 2 * TAIL_BEYOND + 1


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(value, percentile, samples_beyond)`` of the reported tail.

    The tail is the highest nearest-rank percentile that still has
    :data:`TAIL_BEYOND` samples beyond it: with ``n`` sorted samples that
    is position ``n - 11``, at percentile ``100 * (n - 10) / n``.  With
    fewer than 21 samples no percentile above the median has that many
    beyond it; the slowest sample is reported instead (percentile 100,
    none beyond), so a run that holds few ops still shows one slow op.
    """
    if not values:
        raise ValueError("tail() needs at least one sample")
    ordered = sorted(values)
    n = len(ordered)
    if n < TAIL_SAMPLES:
        return ordered[-1], 100.0, 0
    position = n - TAIL_BEYOND - 1
    return ordered[position], 100.0 * (position + 1) / n, TAIL_BEYOND


def _by_kind(labels: Sequence[str], values: Sequence[float]) -> Dict[str, float]:
    groups: Dict[str, List[float]] = {}
    for label, value in zip(labels, values):
        groups.setdefault(label, []).append(value)
    return {label: statistics.median(group) for label, group in groups.items()}


def mix_median(labels: Sequence[str], values: Sequence[float]) -> float:
    """The mean, over the op kinds in ``labels``, of each kind's median.

    A workload cycles through a mix of op kinds whose costs differ by
    large factors.  The pooled median of such a mix sits in the gap
    between two kinds, where it is set by the extremes of both; the
    per-kind medians are each stable.
    """
    return statistics.fmean(_by_kind(labels, values).values())


def mix_tail(labels: Sequence[str], values: Sequence[float]) -> Tuple[float, float, int]:
    """:func:`mix_median` scaled by the :func:`tail` of per-op slowdowns.

    Each op's slowdown is its time over its kind's median, so ops of every
    kind pool into one sample; the tail percentile and samples beyond it
    are those of that pooled sample.
    """
    medians = _by_kind(labels, values)
    slowdown, percentile, beyond = tail(
        [value / medians[label] for label, value in zip(labels, values)]
    )
    return statistics.fmean(medians.values()) * slowdown, percentile, beyond


def throughput(records: Sequence[Mapping[str, Any]]) -> float:
    """Ops completed per second of summed op time.

    A stalled op lowers the rate by all of its time, as it does for a
    caller waiting on each op in turn.
    """
    return len(records) / sum(record["seconds"] for record in records)


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def parse_importtime(stderr: str) -> List[Tuple[int, str, float]]:
    """``(depth, module, cumulative_s)`` rows of ``python -X importtime``."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue  # the header row
        name = fields[2].rstrip()
        stripped = name.lstrip()
        depth = (len(name) - len(stripped) - 1) // 2
        rows.append((depth, stripped, int(fields[1]) / 1e6))
    return rows


def package_import_seconds(
    rows: Sequence[Tuple[int, str, float]], packages: Iterable[str]
) -> Dict[str, float]:
    """Cumulative import time of each top-level package.

    ``-X importtime`` prints a child before its parent, so reading the rows
    backwards visits parents first.  A row counts toward package ``p`` when
    it is ``p`` or a submodule of ``p`` and no enclosing row already
    belongs to ``p`` (its time is then inside the enclosing row's).
    """
    packages = list(packages)
    totals = {package: 0.0 for package in packages}
    ancestors: List[str] = []
    for depth, name, cumulative in reversed(rows):
        del ancestors[depth:]
        for package in packages:
            if _within(name, package) and not any(
                _within(parent, package) for parent in ancestors
            ):
                totals[package] += cumulative
        ancestors.append(name)
    return totals


def _within(module: str, package: str) -> bool:
    return module == package or module.startswith(package + ".")
