"""Performance-class labeling (paper §IV-A, Figure 4).

1. Sort the measured times ascending.
2. Convolve with a step kernel of radius ``r`` — ``-1`` over the left
   half-window, ``+1`` over the right — so jumps in the sorted curve
   become peaks.  ``r`` is 0.5 % of the measurement count (minimum 1), a
   screen against small fluctuations.
3. Detect peaks and keep those with prominence at or above the 98th
   percentile; each surviving peak is a class boundary.
4. Label every measurement with its class (0 = fastest class).

Each class also carries its observed time range — the interval used by the
paper's Table V accuracy metric ("the proportion of implementations with
performance that falls within the label's range").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.errors import LabelingError
from repro.ml.peaks import prominent_peaks


@dataclass(frozen=True)
class LabelingConfig:
    """Knobs of the labeling procedure (paper defaults)."""

    #: Step-kernel radius as a fraction of the number of measurements.
    radius_fraction: float = 0.005
    #: Minimum kernel radius.
    min_radius: int = 1
    #: Keep peaks with prominence at/above this percentile.
    prominence_percentile: float = 98.0
    #: Scale-free floor: a boundary peak must additionally have prominence
    #: of at least this fraction of the total time spread (screens float
    #: noise on near-flat data; the paper's percentile screen alone is not
    #: scale-free).
    min_prominence_fraction: float = 0.01

    def radius(self, n: int) -> int:
        return max(self.min_radius, int(round(self.radius_fraction * n)))


@dataclass(frozen=True)
class ClassInfo:
    """One performance class: index interval in the sorted order + times."""

    label: int
    #: Half-open [start, stop) interval into the sorted measurement array.
    start: int
    stop: int
    t_min: float
    t_max: float

    @property
    def size(self) -> int:
        return self.stop - self.start

    def contains_time(self, t: float) -> bool:
        return self.t_min <= t <= self.t_max


@dataclass
class LabelResult:
    """Output of :func:`label_by_performance`."""

    #: Class label per input measurement (original order).
    labels: np.ndarray
    #: Class metadata, fastest first.
    classes: List[ClassInfo]
    #: Sorted times (ascending) — Figure 4a.
    sorted_times: np.ndarray
    #: Convolution signal over the sorted times — Figure 4b.  Index i of
    #: this array corresponds to sorted index i + radius.
    convolution: np.ndarray
    #: Prominence threshold actually applied.
    prominence_threshold: float
    #: Sorted-order boundary positions (indices into sorted_times).
    boundaries: np.ndarray
    #: Kernel radius used.
    radius: int

    @property
    def n_classes(self) -> int:
        return len(self.classes)


def step_kernel_convolution(sorted_times: np.ndarray, radius: int) -> np.ndarray:
    """Convolve the sorted curve with the ±r step kernel (valid region only).

    Output index ``i`` corresponds to sorted index ``i + radius``: the value
    is ``sum(a[i+1 .. i+r]) - sum(a[i-r+1 .. i])`` — the jump in local mean
    across position ``i`` scaled by ``r``.
    """
    if radius < 1:
        raise LabelingError("kernel radius must be >= 1")
    a = np.asarray(sorted_times, dtype=float)
    n = len(a)
    if n < 2 * radius + 1:
        return np.zeros(0)
    # kernel: r taps of -1 (past) followed by r taps of +1 (future).
    kernel = np.concatenate([np.ones(radius), -np.ones(radius)])
    # np.convolve flips the kernel; arrange so output[i] = future - past.
    out = np.convolve(a, kernel, mode="valid")
    # 'valid' length is n - 2r + 1; drop the last element so that output
    # index i maps to boundary between sorted positions i+r-1 and i+r.
    return out[:-1] if len(out) > 0 else out


def label_by_performance(
    times: Sequence[float], config: LabelingConfig = LabelingConfig()
) -> LabelResult:
    """Assign a performance-class label to every measurement."""
    t = np.asarray(list(times), dtype=float)
    n = len(t)
    if n == 0:
        raise LabelingError("no measurements to label")
    order = np.argsort(t, kind="stable")
    sorted_t = t[order]
    radius = config.radius(n)
    conv = step_kernel_convolution(sorted_t, radius)
    if len(conv) == 0:
        peaks = np.array([], dtype=int)
        threshold = 0.0
    else:
        peaks, proms, threshold = prominent_peaks(
            conv, config.prominence_percentile
        )
        spread = float(sorted_t[-1] - sorted_t[0])
        floor = config.min_prominence_fraction * spread * radius
        if floor > 0:
            keep = proms >= floor
            peaks = peaks[keep]
    # Convolution index i maps to sorted index i + radius; a peak there
    # means a jump between sorted positions (boundary before index).
    boundaries = np.sort(peaks + radius)
    # Deduplicate and drop degenerate edges.
    boundaries = np.unique(boundaries[(boundaries > 0) & (boundaries < n)])

    classes: List[ClassInfo] = []
    starts = np.concatenate([[0], boundaries])
    stops = np.concatenate([boundaries, [n]])
    for label, (lo, hi) in enumerate(zip(starts, stops)):
        seg = sorted_t[lo:hi]
        classes.append(
            ClassInfo(
                label=label,
                start=int(lo),
                stop=int(hi),
                t_min=float(seg.min()),
                t_max=float(seg.max()),
            )
        )
    labels_sorted = np.zeros(n, dtype=int)
    for c in classes:
        labels_sorted[c.start : c.stop] = c.label
    labels = np.empty(n, dtype=int)
    labels[order] = labels_sorted
    return LabelResult(
        labels=labels,
        classes=classes,
        sorted_times=sorted_t,
        convolution=conv,
        prominence_threshold=threshold,
        boundaries=boundaries,
        radius=radius,
    )
