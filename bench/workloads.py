"""The four workloads: their inputs, one item each, a traced copy of
that item, and the checks on its output.

An item is one closed-loop operation through beziermask's public
functions. The traced copy records a span around each call into a
layer's public function. encode_mask and compare_masks are called
through their public steps in their place, and must give the
composite's output. sensitivity_sweep and contour_loss are called
themselves, with span-recording wrappers bound for the call to the step
names they look up (Tracer.bound). After each polygon_to_mask the
traced copy also runs rasterize_polygon on its own, so the outline cost
is the difference of the two.
"""

import hashlib

import numpy as np
from scipy import ndimage

from beziermask import decoder, experiments, fitting, metrics
from beziermask import mask as mask_ops

import checks
from spans import peak_mb

KINDS = ("blob", "ellipse", "dumbbell")
DEGREE = 5
SAMPLES = 128       # decode_contour samples per segment, as `eval` uses
# spans that repeat work already inside another span, kept out of part sums
EXTRA_SPANS = ("mask.rasterize_polygon",)


def generate(tr, kind, size, scale, seed):
    spec = experiments.ShapeSpec(kind, size, size, seed, scale)
    return tr.call("experiments.generate_shape", experiments.generate_shape, spec)


def count_points(tr):
    return lambda trace, *args: tr.count("mask.trace_boundary.points", len(trace))


def count_arc_points(tr):
    return lambda fit, *args: tr.count("fitting.arc_points", int(fit[1].arc_lengths.sum()))


def traced_encode(tr, m):
    """encode_mask(m) through its three public steps."""
    work = tr.call("mask.largest_component", mask_ops.largest_component, m)
    trace = tr.wrap("mask.trace_boundary", mask_ops.trace_boundary, count_points(tr))(work)
    h, w = m.shape
    contour, _ = tr.wrap("fitting.encode_trace", fitting.encode_trace,
                         count_arc_points(tr))(trace, DEGREE, w, h)
    return contour


def traced_compare(tr, pred, gt):
    """compare_masks(pred, gt) through its public steps (both masks non-empty)."""
    counts = tr.call("metrics.confusion", metrics.confusion, pred, gt)
    a = tr.call("mask.boundary_points", mask_ops.boundary_points, pred)
    b = tr.call("mask.boundary_points", mask_ops.boundary_points, gt)
    tr.count("metrics.hausdorff.pairs", len(a) * len(b))
    hd = tr.call("metrics.hausdorff", metrics.hausdorff, a, b)
    fp_rate, fn_rate = metrics.fp_fn_rates(counts)
    return metrics.MetricsReport(metrics.iou(counts), hd, metrics.mcc(counts),
                                 fp_rate, fn_rate)


def add_specks(m, rng):
    """1 to 3 squares of 1-3 px, each kept only where it touches nothing."""
    h, w = m.shape
    taken = ndimage.binary_dilation(m, structure=np.ones((3, 3), bool), iterations=2)
    for _ in range(int(rng.integers(1, 4))):
        size = int(rng.integers(1, 4))
        r, c = int(rng.integers(0, h - size)), int(rng.integers(0, w - size))
        if not taken[r:r + size, c:c + size].any():
            m[r:r + size, c:c + size] = True
            taken[max(r - 2, 0):r + size + 2, max(c - 2, 0):c + size + 2] = True
    return m


def check_encoding(contour, text, source):
    checks.check_extremes(contour, source)
    checks.check_json_roundtrip(contour, fitting.contour_from_json(text))
    checks.check_fidelity(fitting.decode_contour(contour, SAMPLES), source)


class Workload:
    """A workload provides make_inputs(seed, tr) -> inputs, run(input) ->
    output, run_traced(input, tr) -> the same output through spans,
    check(input, output), which raises CheckFailed, and fingerprint(output)
    for comparing repeats and the traced output with the untraced one."""

    name = ""
    tail_pct = 0       # item_ms_tail percentile
    min_items = 0      # leaves at least ten items beyond tail_pct
    calibration = {}   # weights of the reference kernels, see calibrate.py

    def peaks(self, inp, out):
        return {}


class Encode256(Workload):
    """What `encode` does per file: PGM bytes -> contour JSON."""

    name = "encode-256"
    tail_pct = 95
    min_items = 1000
    calibration = {"interpreter": 1, "small_arrays": 5, "labels": 3}
    size = 256
    count = 36
    scales = (0.3, 0.6, 0.9)

    def make_inputs(self, seed, tr):
        out = []
        for i in range(self.count):
            kind, scale = KINDS[i % 3], self.scales[(i // 3) % 3]
            m = generate(tr, kind, self.size, scale, seed * 1000 + i)
            if i % 4 == 0:
                m = add_specks(m, np.random.default_rng([seed, i]))
            out.append((mask_ops.save_pgm(m), m))
        return out

    def run(self, inp):
        m = mask_ops.load_pgm(inp[0])
        contour, _ = fitting.encode_mask(m, DEGREE)
        return contour, fitting.contour_to_json(contour)

    def run_traced(self, inp, tr):
        m = tr.call("mask.load_pgm", mask_ops.load_pgm, inp[0])
        contour = traced_encode(tr, m)
        return contour, tr.call("fitting.contour_to_json", fitting.contour_to_json, contour)

    def check(self, inp, out):
        check_encoding(*out, inp[1])

    def fingerprint(self, out):
        return out[1]


class Roundtrip2048(Workload):
    """`encode` then `eval` on large frames."""

    name = "roundtrip-2048"
    tail_pct = 75
    min_items = 40
    calibration = {"labels": 3, "large_arrays": 7}
    size = 2048
    scales = (0.5, 0.7)
    per_kind = 2

    def make_inputs(self, seed, tr):
        out = []
        for scale in self.scales:
            for kind in KINDS:
                for _ in range(self.per_kind):
                    m = generate(tr, kind, self.size, scale, seed * 1000 + len(out))
                    out.append((mask_ops.save_pgm(m), m))
        return out

    def run(self, inp):
        gt = mask_ops.load_pgm(inp[0])
        contour, _ = fitting.encode_mask(gt, DEGREE)
        text = fitting.contour_to_json(contour)
        h, w = gt.shape
        back = fitting.scale_contour(fitting.contour_from_json(text), w, h)
        poly = fitting.decode_contour(back, SAMPLES)
        raster = mask_ops.polygon_to_mask(poly, w, h)
        return contour, text, poly, raster, metrics.compare_masks(raster, gt)

    def run_traced(self, inp, tr):
        gt = tr.call("mask.load_pgm", mask_ops.load_pgm, inp[0])
        contour = traced_encode(tr, gt)
        text = tr.call("fitting.contour_to_json", fitting.contour_to_json, contour)
        h, w = gt.shape
        parsed = tr.call("fitting.contour_from_json", fitting.contour_from_json, text)
        back = tr.call("fitting.scale_contour", fitting.scale_contour, parsed, w, h)
        poly = tr.call("fitting.decode_contour", fitting.decode_contour, back, SAMPLES)
        raster = tr.call("mask.polygon_to_mask", mask_ops.polygon_to_mask, poly, w, h)
        report = traced_compare(tr, raster, gt)
        tr.call("mask.rasterize_polygon", mask_ops.rasterize_polygon, poly, w, h)
        return contour, text, poly, raster, report

    def check(self, inp, out):
        contour, text, poly, raster, report = out
        check_encoding(contour, text, inp[1])
        checks.check_raster(raster, poly, inp[1])
        checks.check_metrics(report, raster, inp[1])

    def fingerprint(self, out):
        contour, text, poly, raster, report = out
        digest = hashlib.blake2b(np.packbits(raster).tobytes()).hexdigest()
        return text, poly.tobytes(), digest, (report.iou, report.hausdorff, report.mcc,
                                              report.fp_rate, report.fn_rate)

    def peaks(self, inp, out):
        _, _, poly, raster, _ = out
        h, w = raster.shape
        a = mask_ops.boundary_points(raster)
        b = mask_ops.boundary_points(inp[1])
        return {"mask.polygon_to_mask.peak_mb": peak_mb(mask_ops.polygon_to_mask, poly, w, h),
                "metrics.hausdorff.peak_mb": peak_mb(metrics.hausdorff, a, b)}


class Sensitivity256(Workload):
    """One single-mask sensitivity_sweep per item."""

    name = "sensitivity-256"
    tail_pct = 90
    min_items = 100
    calibration = {"small_arrays": 4, "labels": 4, "large_arrays": 2}
    size = 256
    scales = (0.4, 0.7)
    per_kind = 2
    deltas = (0.0, 1.0, 2.0, 4.0, 8.0)
    trials = 2
    points = 20        # vertices of the polygon baseline, the sweep's default

    def make_inputs(self, seed, tr):
        out = []
        for scale in self.scales:
            for kind in KINDS:
                for _ in range(self.per_kind):
                    shape_seed = seed * 1000 + len(out)
                    out.append((generate(tr, kind, self.size, scale, shape_seed), shape_seed))
        return out

    def run(self, inp):
        m, sweep_seed = inp
        return experiments.sensitivity_sweep([m], self.deltas, self.trials, sweep_seed,
                                             SAMPLES, self.points)

    def run_traced(self, inp, tr):
        m = inp[0]
        h, w = m.shape
        drawn = []

        def rasterized(raster, poly, *args):
            tr.count("experiments.sensitivity_sweep.rasterizations", 1)
            drawn.append(poly)

        steps = [(mask_ops, "largest_component", "mask.largest_component"),
                 (mask_ops, "trace_boundary", "mask.trace_boundary", count_points(tr)),
                 (fitting, "encode_trace", "fitting.encode_trace", count_arc_points(tr)),
                 (experiments, "trace_boundary", "mask.trace_boundary", count_points(tr)),
                 (experiments, "polygon_baseline", "experiments.polygon_baseline"),
                 (experiments, "perturb_contour", "experiments.perturb_contour"),
                 (fitting, "decode_contour", "fitting.decode_contour"),
                 (experiments, "polygon_to_mask", "mask.polygon_to_mask", rasterized)]
        with tr.bound(steps):
            curve = tr.call("experiments.sensitivity_sweep", self.run, inp)
        for poly in drawn:
            tr.call("mask.rasterize_polygon", mask_ops.rasterize_polygon, poly, w, h)
        return curve

    def clean(self, m):
        contour, _ = fitting.encode_mask(m, DEGREE)
        return fitting.decode_contour(contour, SAMPLES)

    def check(self, inp, out):
        """The delta-0 entries must score the clean rasters, each of
        which must pass the benchmark's raster check first."""
        m = inp[0]
        h, w = m.shape
        poly = self.clean(m)
        checks.check_fidelity(poly, m)
        clean = mask_ops.polygon_to_mask(poly, w, h)
        checks.check_raster(clean, poly, m)
        points = mask_ops.trace_boundary(m).points
        baseline = points[np.round(np.arange(self.points) * len(points) / self.points).astype(int)]
        clean_baseline = mask_ops.polygon_to_mask(baseline, w, h)
        checks.check_raster(clean_baseline, baseline)
        checks.check_sweep_at_zero(out, self.deltas, checks.pixel_iou(clean, m),
                                   checks.pixel_iou(clean_baseline, m))

    def fingerprint(self, out):
        return out.miou_bezier.tobytes(), out.miou_polygon.tobytes()

    def peaks(self, inp, out):
        m = inp[0]
        h, w = m.shape
        return {"mask.polygon_to_mask.peak_mb":
                peak_mb(mask_ops.polygon_to_mask, self.clean(m), w, h)}


class LossGrad(Workload):
    """contour_loss(pred, gt, n=72): the training path."""

    name = "loss-grad"
    tail_pct = 75      # every item does the same work; beyond p75 is interference
    min_items = 100
    calibration = {"small_arrays": 8, "labels": 2}
    size = 256
    masks = 16
    scales = (0.4, 0.6, 0.8)
    sigmas = (0.5, 1.0, 2.0, 4.0)   # pixels of Gaussian noise on the 40-vector
    n = 72

    def make_inputs(self, seed, tr):
        rng = np.random.default_rng([seed, 4])
        out = []
        for i in range(self.masks):
            m = generate(tr, KINDS[i % 3], self.size, self.scales[i % 3], seed * 1000 + i)
            gt, _ = fitting.encode_mask(m, DEGREE)
            base = fitting.flatten(gt)
            for sigma in self.sigmas:
                pred = fitting.unflatten(base + rng.normal(0.0, sigma, 40), gt.width, gt.height)
                out.append((pred, gt))
        return out

    def run(self, inp):
        return decoder.contour_loss(inp[0], inp[1], n=self.n)

    def run_traced(self, inp, tr):
        steps = [(decoder, "smooth_l1", "decoder.smooth_l1"),
                 (decoder, "decode_points", "decoder.decode_points"),
                 (decoder, "decode_jacobian", "decoder.decode_jacobian")]
        with tr.bound(steps):
            return tr.call("decoder.contour_loss", self.run, inp)

    def check(self, inp, out):
        pred, gt = inp
        samples = decoder.sample_parameters(self.n, 0)
        checks.check_loss(out, pred, gt, samples.ts, samples.segment_ids)
        checks.check_gradient(out.gradient, pred, gt, samples.ts, samples.segment_ids)
        checks.check_zero_loss(decoder.contour_loss(gt, gt, n=self.n))

    def fingerprint(self, out):
        return out.total, out.gradient.tobytes()


WORKLOADS = {w.name: w for w in (Encode256(), Roundtrip2048(), Sensitivity256(), LossGrad())}
