"""Segmentation quality metrics on mask pairs and point sets."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import UndefinedMetricError
from .mask import boundary_points


@dataclass
class ConfusionCounts:
    tp: int
    tn: int
    fp: int
    fn: int


@dataclass
class MetricsReport:
    iou: float
    hausdorff: float
    mcc: float
    fp_rate: float
    fn_rate: float


@dataclass
class DatasetSummary:
    miou: float
    siou: float  # population standard deviation of per-image IoU
    mean_hausdorff: float
    mean_mcc: float
    mean_fp_rate: float
    mean_fn_rate: float
    count: int


def confusion(pred: np.ndarray, gt: np.ndarray) -> ConfusionCounts:
    """Pixelwise confusion counts; foreground is the positive class.

    One AND and three count_nonzero passes over the frame; tn follows
    by arithmetic.
    """
    pred = np.asarray(pred, dtype=bool)
    gt = np.asarray(gt, dtype=bool)
    if pred.shape != gt.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {gt.shape}")
    tp = int(np.count_nonzero(pred & gt))
    fp = int(np.count_nonzero(pred)) - tp
    fn = int(np.count_nonzero(gt)) - tp
    return ConfusionCounts(tp, pred.size - tp - fp - fn, fp, fn)


def iou(counts: ConfusionCounts) -> float:
    """tp / (tp + fp + fn); 1 when both masks are empty."""
    denom = counts.tp + counts.fp + counts.fn
    return counts.tp / denom if denom else 1.0


def mcc(counts: ConfusionCounts) -> float:
    """Matthews correlation coefficient; 0 when any marginal is empty."""
    tp, tn, fp, fn = counts.tp, counts.tn, counts.fp, counts.fn
    denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)  # exact int product
    if denom == 0:
        return 0.0
    return (tp * tn - fp * fn) / math.sqrt(denom)


def fp_fn_rates(counts: ConfusionCounts):
    """(fp / (fp + tn), fn / (fn + tp)); 0 for empty denominators."""
    fp_rate = counts.fp / (counts.fp + counts.tn) if counts.fp + counts.tn else 0.0
    fn_rate = counts.fn / (counts.fn + counts.tp) if counts.fn + counts.tp else 0.0
    return fp_rate, fn_rate


def hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric Hausdorff distance between two finite point sets.

    The larger of the two directed distances, each the farthest of the
    nearest-neighbour distances found by one k-d tree query pass: time
    O((N + M) log) for typical sets, memory O(N + M). The distances are
    the exact Euclidean ones, equal to those of the all-pairs matrix.
    A NaN or infinite coordinate raises ValueError.
    """
    a = np.asarray(a, dtype=float).reshape(-1, 2)
    b = np.asarray(b, dtype=float).reshape(-1, 2)
    if len(a) == 0 or len(b) == 0:
        raise UndefinedMetricError("Hausdorff distance needs non-empty sets")
    ab = cKDTree(b).query(a)[0].max()
    ba = cKDTree(a).query(b)[0].max()
    return float(max(ab, ba))


def compare_masks(pred: np.ndarray, gt: np.ndarray) -> MetricsReport:
    """All per-pair metrics. Hausdorff is taken between boundary pixel sets.

    If either mask is empty the Hausdorff entry is NaN (the other
    metrics keep their conventional degenerate values). Cost: four
    passes over the frame for the counts, O(bounding box) per mask for
    the boundary pixels and O((N + M) log) for the Hausdorff distance;
    memory O(H*W) bytes.
    """
    counts = confusion(pred, gt)
    try:
        hd = hausdorff(boundary_points(pred), boundary_points(gt))
    except UndefinedMetricError:
        hd = 0.0 if not (np.any(pred) or np.any(gt)) else math.nan
    fp_rate, fn_rate = fp_fn_rates(counts)
    return MetricsReport(iou(counts), hd, mcc(counts), fp_rate, fn_rate)


def summarize(reports) -> DatasetSummary:
    """Arithmetic means plus the population std-dev of IoU."""
    reports = list(reports)
    if not reports:
        raise ValueError("summarize needs at least one report")
    ious = np.array([r.iou for r in reports])
    return DatasetSummary(
        miou=float(ious.mean()),
        siou=float(ious.std()),
        mean_hausdorff=float(np.mean([r.hausdorff for r in reports])),
        mean_mcc=float(np.mean([r.mcc for r in reports])),
        mean_fp_rate=float(np.mean([r.fp_rate for r in reports])),
        mean_fn_rate=float(np.mean([r.fn_rate for r in reports])),
        count=len(reports),
    )


def write_metrics_csv(path, ids, reports, summary: DatasetSummary | None = None):
    """Per-image rows plus an optional trailing summary row."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["image_id", "iou", "hausdorff", "mcc", "fp_rate", "fn_rate"])
        for image_id, r in zip(ids, reports):
            writer.writerow([image_id, r.iou, r.hausdorff, r.mcc, r.fp_rate, r.fn_rate])
        if summary is not None:
            writer.writerow(["__summary__", summary.miou, summary.mean_hausdorff,
                             summary.mean_mcc, summary.mean_fp_rate, summary.mean_fn_rate])


