"""Cross-run history: per-metric time series + trend regression gate.

:class:`HistoryStore` is an append-only JSONL file of
:class:`HistoryPoint` rows — one scalar per (series, run) — fed from
two sources:

* trace files written by ``--trace PATH`` (:meth:`ingest_trace` /
  :meth:`ingest_analysis`), whose per-span-path wall totals become
  ``span:<path>`` series, counters ``counter:<name>`` series, and
  histogram quantiles ``hist:<name>:<q>`` series;
* pytest-benchmark JSON artifacts (:meth:`ingest_bench`), whose
  per-benchmark means become ``bench:<fullname>`` series.

Both key a file the same way: the run id is the file name, the time its
mtime, and the git sha whatever the caller passes.  Runs are
deduplicated by ``run_id``, so re-ingesting the same file is idempotent
and CI can cache the store across nightly jobs.

:func:`detect_regressions` is the one wall-time regression gate: for
each series it compares the newest point against the rolling median of
the preceding :data:`WINDOW` points and flags values beyond ``median +
max(MAD_K * 1.4826 * MAD, MIN_REL * median, MIN_ABS)`` — robust to
outliers in the baseline window, and silent (warn-only by construction)
until :data:`MIN_POINTS` runs have accumulated.  Counters are not
trended: ``repro trace --diff`` checks them exactly.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

from repro.obs.analyze import analysis_to_dict
from repro.obs.trace_io import TraceSchemaError, read_trace

__all__ = [
    "HistoryPoint",
    "HistoryStore",
    "Regression",
    "detect_regressions",
]

_HISTORY_FILE = "history.jsonl"

#: Scale factor making the median absolute deviation a consistent
#: estimator of the standard deviation under normality.
MAD_SCALE = 1.4826

#: Trend-gate baseline: median and MAD of a series' last WINDOW prior
#: points.  The band's half-width is the largest of MAD_K scaled MADs,
#: MIN_REL of the median, and MIN_ABS.
WINDOW = 8
MAD_K = 4.0
MIN_REL = 0.10
MIN_ABS = 1e-6
#: Series with fewer points are skipped: warn-only until a baseline
#: accumulates.
MIN_POINTS = 5
#: Series the gate judges: wall-carrying ones.  Counters are exact
#: (``repro trace --diff``), so their trends are never gated.
GATED_PREFIXES = ("span:", "bench:", "hist:")


@dataclass(frozen=True)
class HistoryPoint:
    """One scalar observation of one series in one run."""

    series: str
    value: float
    sha: str = ""
    ts: float = 0.0
    run_id: str = ""
    source: str = ""

    def to_json(self) -> Dict[str, object]:
        return {
            "series": self.series,
            "value": self.value,
            "sha": self.sha,
            "ts": self.ts,
            "run_id": self.run_id,
            "source": self.source,
        }


class HistoryStore:
    """Append-only on-disk store of :class:`HistoryPoint` rows.

    The directory is made by the first :meth:`append`; a store that was
    never written loads no points.
    """

    def __init__(self, root: str) -> None:
        self.root = root

    @property
    def path(self) -> str:
        return os.path.join(self.root, _HISTORY_FILE)

    # -- raw read/write ------------------------------------------------
    def append(self, points: Iterable[HistoryPoint]) -> int:
        os.makedirs(self.root, exist_ok=True)
        n = 0
        with open(self.path, "a", encoding="utf-8") as fh:
            for point in points:
                fh.write(json.dumps(point.to_json(), sort_keys=True) + "\n")
                n += 1
        return n

    def load(self) -> List[HistoryPoint]:
        """All points, file order (= ingestion order); torn lines skipped."""
        out: List[HistoryPoint] = []
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except OSError:
            return out
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn concurrent append
            if not isinstance(obj, dict):
                continue
            series = obj.get("series")
            value = obj.get("value")
            if not isinstance(series, str) or not isinstance(
                value, (int, float)
            ):
                continue
            out.append(
                HistoryPoint(
                    series=series,
                    value=float(value),
                    sha=str(obj.get("sha", "") or ""),
                    ts=float(obj.get("ts", 0.0) or 0.0),
                    run_id=str(obj.get("run_id", "") or ""),
                    source=str(obj.get("source", "") or ""),
                )
            )
        return out

    def run_ids(self) -> List[str]:
        seen: List[str] = []
        for point in self.load():
            if point.run_id and point.run_id not in seen:
                seen.append(point.run_id)
        return seen

    def series(self) -> Dict[str, List[HistoryPoint]]:
        """Points grouped by series name, each sorted by (ts, file order)."""
        groups: Dict[str, List[HistoryPoint]] = {}
        for point in self.load():
            groups.setdefault(point.series, []).append(point)
        for points in groups.values():
            points.sort(key=lambda p: p.ts)
        return groups

    # -- ingestion -----------------------------------------------------
    def ingest_analysis(
        self,
        payload: Dict[str, object],
        *,
        sha: str = "",
        ts: float = 0.0,
        run_id: str = "",
        source: str = "",
    ) -> int:
        """Index one ``analysis_to_dict`` payload; 0 if run_id is known."""
        if run_id and run_id in self.run_ids():
            return 0
        points: List[HistoryPoint] = []

        def point(series: str, value: float) -> None:
            points.append(
                HistoryPoint(
                    series=series,
                    value=float(value),
                    sha=sha,
                    ts=ts,
                    run_id=run_id,
                    source=source,
                )
            )

        paths = payload.get("paths")
        if isinstance(paths, list):
            for row in paths:
                if isinstance(row, dict) and isinstance(
                    row.get("total_s"), (int, float)
                ):
                    point(f"span:{row.get('path', '')}", row["total_s"])
        counters = payload.get("counters")
        if isinstance(counters, dict):
            for name, value in counters.items():
                if isinstance(value, (int, float)):
                    point(f"counter:{name}", value)
        histograms = payload.get("histograms")
        if isinstance(histograms, dict):
            for name, summary in histograms.items():
                if not isinstance(summary, dict):
                    continue
                for q in ("p50", "p95", "p99"):
                    if isinstance(summary.get(q), (int, float)):
                        point(f"hist:{name}:{q}", summary[q])
        return self.append(points)

    def ingest_trace(self, path: str, *, sha: str = "") -> int:
        """Ingest one trace file (``--trace PATH``); points added.

        The series are :meth:`ingest_analysis`'s over the file's
        ``analysis_to_dict`` payload.  Raises ``OSError`` or
        :class:`TraceSchemaError` when the file cannot be read as a
        trace.
        """
        payload = analysis_to_dict(read_trace(path))
        return self.ingest_analysis(
            payload,
            sha=sha,
            ts=_mtime(path),
            run_id=os.path.basename(path),
            source=path,
        )

    def ingest_bench(self, path: str, *, sha: str = "") -> int:
        """Ingest one pytest-benchmark JSON artifact; points added.

        Each benchmark's mean wall time becomes one ``bench:<fullname>``
        point, in fullname order.  Rows without a string ``fullname``, a
        ``stats`` object and a numeric mean are skipped.
        """
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            raise TraceSchemaError(
                f"{path}: not a benchmark JSON file: {err}"
            )
        benches = data.get("benchmarks") if isinstance(data, dict) else None
        if not isinstance(benches, list):
            raise TraceSchemaError(f"{path}: no 'benchmarks' array")
        run_id = os.path.basename(path)
        if run_id in self.run_ids():
            return 0
        ts = _mtime(path)
        means = []
        for bench in benches:
            if not isinstance(bench, dict):
                continue
            fullname = bench.get("fullname")
            stats = bench.get("stats")
            if not isinstance(fullname, str) or not isinstance(stats, dict):
                continue
            mean = stats.get("mean")
            if isinstance(mean, (int, float)):
                means.append((fullname, float(mean)))
        means.sort(key=lambda item: item[0])
        return self.append(
            HistoryPoint(
                series=f"bench:{name}",
                value=mean,
                sha=sha,
                ts=ts,
                run_id=run_id,
                source=path,
            )
            for name, mean in means
        )


def _mtime(path: str) -> float:
    """A source file's mtime, the time its points carry (0.0 if gone)."""
    try:
        return os.path.getmtime(path)
    except OSError:
        return 0.0


# ----------------------------------------------------------------------
# trend gate


@dataclass(frozen=True)
class Regression:
    """One series whose newest point broke its rolling trend."""

    series: str
    value: float
    median: float
    threshold: float
    n_points: int
    sha: str = ""
    run_id: str = ""

    @property
    def ratio(self) -> float:
        if self.median <= 0:
            return float("inf")
        return self.value / self.median

    def describe(self) -> str:
        return (
            f"{self.series}: {self.value:.6g} vs rolling median "
            f"{self.median:.6g} ({self.ratio:.2f}x, threshold "
            f"{self.threshold:.6g}, n={self.n_points})"
        )


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def detect_regressions(store: HistoryStore) -> List[Regression]:
    """Flag series whose newest point exceeds the rolling-trend band.

    For each :data:`GATED_PREFIXES` series with at least
    :data:`MIN_POINTS` observations, the newest value is compared
    against the median of the preceding :data:`WINDOW` points; it
    regresses when it exceeds ``median + max(MAD_K * 1.4826 * MAD,
    MIN_REL * median, MIN_ABS)``.  The MAD term adapts the band to each
    series' noise; the relative and absolute floors keep near-constant
    series (MAD ~ 0) from flagging on measurement jitter.
    """
    out: List[Regression] = []
    for name, points in sorted(store.series().items()):
        if not name.startswith(GATED_PREFIXES):
            continue
        if len(points) < MIN_POINTS:
            continue
        newest = points[-1]
        baseline = [p.value for p in points[:-1]][-WINDOW:]
        med = _median(baseline)
        mad = _median([abs(v - med) for v in baseline])
        threshold = med + max(
            MAD_K * MAD_SCALE * mad, MIN_REL * med, MIN_ABS
        )
        if newest.value > threshold:
            out.append(
                Regression(
                    series=name,
                    value=newest.value,
                    median=med,
                    threshold=threshold,
                    n_points=len(points),
                    sha=newest.sha,
                    run_id=newest.run_id,
                )
            )
    return out
