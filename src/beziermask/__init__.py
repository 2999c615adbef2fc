"""Piecewise Bezier codec for binary segmentation masks.

Encodes a mask as four chained quintic Bezier arcs split at the
boundary's extreme points, decodes at any resolution, and evaluates
fidelity, gradients and noise sensitivity.
"""

from .bezier import BezierSegment, basis_matrix, eval_de_casteljau
from .decoder import (LossValue, SampleSet, contour_loss, decode_jacobian,
                      decode_points, sample_parameters, smooth_l1)
from .experiments import (FidelityResult, SensitivityCurve, ShapeSpec,
                          blob_corpus, degree_sweep,
                          fidelity_study, generate_shape, perturb_contour,
                          polygon_baseline, sensitivity_sweep)
from .errors import (BezierMaskError, ContourFormatError, DegenerateShapeError,
                     EmptyMaskError, PgmFormatError, UndefinedMetricError)
from .fitting import (FitReport, PiecewiseContour, contour_from_json,
                      contour_to_json, decode_contour, encode_mask, fit_arc,
                      find_extreme_points, flatten, scale_contour, unflatten)
from .mask import (BoundaryTrace, boundary_points, largest_component, load_pgm,
                   morphological_smooth, polygon_to_mask,
                   rasterize_polygon, save_pgm,
                   trace_boundary, trace_object)
from .metrics import (ConfusionCounts, DatasetSummary, MetricsReport,
                      compare_masks, confusion, fp_fn_rates, hausdorff, iou,
                      mcc, summarize)

__version__ = "0.1.0"
