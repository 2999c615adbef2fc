"""Batch command-line front end.

Subcommands: encode, decode, render, eval, fidelity, sensitivity,
degree-sweep, gen-synthetic, gradcheck. All outputs are written
atomically (temp file + rename) and every run is deterministic given
its inputs, --seed and any --jobs value.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import decoder, experiments, fitting, metrics
from . import mask as mask_ops
from .errors import BezierMaskError


def _write_atomic(path: Path, data: bytes):
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_csv_atomic(path: Path, rows):
    import io
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    _write_atomic(path, buf.getvalue().encode())


def _collect_inputs(paths, suffix: str) -> list:
    out = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            out.extend(sorted(p.glob(f"*{suffix}")))
        else:
            out.append(p)
    return out


def _pmap(fn, items, jobs: int):
    if jobs <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------- encode

def _encode_one(args):
    path_str, degree, smooth_radius, out_dir = args
    path = Path(path_str)
    try:
        m = mask_ops.load_pgm(path.read_bytes())
        contour, report = fitting.encode_mask(m, degree, smooth_radius)
        _write_atomic(Path(out_dir) / f"{path.stem}.json",
                      fitting.contour_to_json(contour).encode())
        return path.stem, None, report.residuals.tolist(), report.arc_lengths.tolist()
    except (BezierMaskError, OSError, ValueError) as e:
        return path.stem, f"{type(e).__name__}: {e}", None, None


def cmd_encode(args) -> int:
    inputs = _collect_inputs(args.inputs, ".pgm")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    work = [(str(p), args.degree, args.smooth_radius, str(out_dir)) for p in inputs]
    results = _pmap(_encode_one, work, args.jobs)
    rows = [["image_id", "arc", "residual_rms", "arc_points"]]
    failures = 0
    for stem, err, residuals, lengths in results:
        if err is not None:
            failures += 1
            print(f"encode failed: {stem}: {err}", file=sys.stderr)
            continue
        for k in range(4):
            rows.append([stem, k, residuals[k], lengths[k]])
    _write_csv_atomic(out_dir / "fit_report.csv", rows)
    return 1 if failures else 0


# ---------------------------------------------------------------- decode / render

def _read_contour(args) -> fitting.PiecewiseContour:
    """The contour JSON named on the command line, once --samples is checked."""
    if args.samples < 2:
        raise BezierMaskError(f"--samples must be >= 2, got {args.samples}")
    return fitting.contour_from_json(Path(args.contour).read_text())


def cmd_decode(args) -> int:
    contour = _read_contour(args)
    width = args.width or contour.width
    height = args.height or contour.height
    scaled = fitting.scale_contour(contour, width, height)
    poly = fitting.decode_contour(scaled, args.samples)
    raster = mask_ops.polygon_to_mask(poly, width, height)
    _write_atomic(Path(args.out), mask_ops.save_pgm(raster))
    return 0


def cmd_render(args) -> int:
    contour = _read_contour(args)
    poly = fitting.decode_contour(contour, args.samples)
    img = np.zeros((contour.height, contour.width), dtype=bool)
    x, y = np.floor(poly).T
    inside = (x >= 0) & (x < contour.width) & (y >= 0) & (y < contour.height)
    img[y[inside].astype(int), x[inside].astype(int)] = True
    _write_atomic(Path(args.out), mask_ops.save_pgm(img))
    return 0


# ---------------------------------------------------------------- eval

def _load_pred(path: Path, gt_shape) -> np.ndarray:
    if path.suffix == ".json":
        contour = fitting.contour_from_json(path.read_text())
        h, w = gt_shape
        scaled = fitting.scale_contour(contour, w, h)
        poly = fitting.decode_contour(scaled, fitting.DEFAULT_SAMPLES)
        return mask_ops.polygon_to_mask(poly, w, h)
    return mask_ops.load_pgm(path.read_bytes())


def cmd_eval(args) -> int:
    preds = {p.stem: p for p in _collect_inputs(args.pred, ".pgm")}
    for p in _collect_inputs(args.pred, ".json"):
        preds.setdefault(p.stem, p)
    gts = {p.stem: p for p in _collect_inputs(args.gt, ".pgm")}
    stems = sorted(preds.keys() & gts.keys())
    for stem in sorted(preds.keys() ^ gts.keys()):
        print(f"unmatched stem skipped: {stem}", file=sys.stderr)
    if not stems:
        print("no matched pred/gt pairs", file=sys.stderr)
        return 1
    scored, reports = [], []
    for stem in stems:
        try:
            gt = mask_ops.load_pgm(gts[stem].read_bytes())
            pred = _load_pred(preds[stem], gt.shape)
            reports.append(metrics.compare_masks(pred, gt))
        except (BezierMaskError, OSError, ValueError) as e:
            print(f"eval failed: {stem}: {type(e).__name__}: {e}", file=sys.stderr)
            continue
        scored.append(stem)
    if reports:
        _write_csv_atomic(Path(args.out),
                          metrics.csv_rows(scored, reports, metrics.summarize(reports)))
    return 0 if len(reports) == len(stems) else 1


# ---------------------------------------------------------------- studies

def cmd_fidelity(args) -> int:
    masks = experiments.blob_corpus(args.count, args.seed)
    res = experiments.fidelity_study(masks, args.degree, args.samples,
                                     args.smooth_radius)
    rows = [["image_id", "iou"]]
    rows += [[i, v] for i, v in enumerate(res.ious)]
    rows.append(["__summary_miou__", res.miou])
    rows.append(["__summary_siou__", res.siou])
    rows.append(["__mean_residual__", res.mean_residual])
    _write_csv_atomic(Path(args.out), rows)
    print(f"fidelity: miou={res.miou:.4f} siou={res.siou:.4f} "
          f"skipped={res.skipped}")
    return 0


def cmd_sensitivity(args) -> int:
    masks = experiments.blob_corpus(args.count, args.seed)
    deltas = [float(d) for d in args.deltas.split(",")]
    curve = experiments.sensitivity_sweep(masks, deltas, args.trials, args.seed)
    rows = [["delta", "representation", "miou", "trials"]]
    for d, mb, mp in zip(curve.deltas, curve.miou_bezier, curve.miou_polygon):
        rows.append([d, "bezier", mb, curve.trials])
        rows.append([d, "polygon", mp, curve.trials])
    _write_csv_atomic(Path(args.out), rows)
    for d, mb, mp in zip(curve.deltas, curve.miou_bezier, curve.miou_polygon):
        print(f"delta={d:g} bezier={mb:.4f} polygon={mp:.4f}")
    return 0


def cmd_degree_sweep(args) -> int:
    masks = experiments.blob_corpus(args.count, args.seed)
    degrees = [int(d) for d in args.degrees.split(",")]
    res = experiments.degree_sweep(masks, degrees)
    rows = [["degree", "mean_residual_rms"]]
    rows += [[d, res[d]] for d in degrees]
    _write_csv_atomic(Path(args.out), rows)
    for d in degrees:
        print(f"degree={d} mean_residual={res[d]:.5f}")
    return 0


def cmd_gen_synthetic(args) -> int:
    out_dir = Path(args.out)
    for i in range(args.count):
        spec = experiments.ShapeSpec(args.kind, args.width, args.height,
                                     args.seed + i, args.scale)
        m = experiments.generate_shape(spec)
        _write_atomic(out_dir / f"{args.kind}_{i:04d}.pgm", mask_ops.save_pgm(m))
    return 0


def cmd_gradcheck(args) -> int:
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(args.count):
        pred = fitting.unflatten(rng.uniform(16.0, 240.0, 40), 256, 256)
        gt = fitting.unflatten(rng.uniform(16.0, 240.0, 40), 256, 256)
        loss = decoder.contour_loss(pred, gt, n=args.n_loss_samples, seed=args.seed)
        fd = _fd_gradient(pred, gt, args.n_loss_samples, args.seed)
        rel = np.linalg.norm(loss.gradient - fd) / max(np.linalg.norm(fd), 1e-300)
        worst = max(worst, rel)
    ok = worst < 1e-5
    print(f"gradcheck: max relative error {worst:.3e} -> {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _fd_gradient(pred, gt, n, seed):
    step = 1e-5
    base = fitting.flatten(pred)
    out = np.empty(40)
    for i in range(40):
        hi, lo = base.copy(), base.copy()
        hi[i] += step
        lo[i] -= step
        lhi = decoder.contour_loss(fitting.unflatten(hi, pred.width, pred.height),
                                   gt, n=n, seed=seed).total
        llo = decoder.contour_loss(fitting.unflatten(lo, pred.width, pred.height),
                                   gt, n=n, seed=seed).total
        out[i] = (lhi - llo) / (2.0 * step)
    return out


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="beziermask",
                                 description=__doc__.strip().splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("encode", help="fit contours to PGM masks")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--out", required=True)
    p.add_argument("--degree", type=int, default=5)
    p.add_argument("--smooth-radius", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(fn=cmd_encode)

    p = sub.add_parser("decode", help="rasterize a contour JSON to a PGM mask")
    p.add_argument("contour")
    p.add_argument("--out", required=True)
    p.add_argument("--width", type=int, default=0)
    p.add_argument("--height", type=int, default=0)
    p.add_argument("--samples", type=int, default=fitting.DEFAULT_SAMPLES)
    p.set_defaults(fn=cmd_decode)

    p = sub.add_parser("render", help="draw the contour outline as a PGM")
    p.add_argument("contour")
    p.add_argument("--out", required=True)
    p.add_argument("--samples", type=int, default=fitting.DEFAULT_SAMPLES)
    p.set_defaults(fn=cmd_render)

    p = sub.add_parser("eval", help="score predictions against ground truth masks")
    p.add_argument("--pred", nargs="+", required=True)
    p.add_argument("--gt", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("fidelity", help="encode/decode IoU study on synthetic blobs")
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--degree", type=int, default=5)
    p.add_argument("--samples", type=int, default=fitting.DEFAULT_SAMPLES)
    p.add_argument("--smooth-radius", type=int, default=0)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(fn=cmd_fidelity)

    p = sub.add_parser("sensitivity", help="noise robustness: bezier vs polygon")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--deltas", default="2,5,10,15,20")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(fn=cmd_sensitivity)

    p = sub.add_parser("degree-sweep", help="fit residual vs curve degree")
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--degrees", default="3,5,7,9")
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(fn=cmd_degree_sweep)

    p = sub.add_parser("gen-synthetic", help="write a synthetic mask corpus")
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--kind", choices=["blob", "ellipse", "dumbbell"], default="blob")
    p.add_argument("--width", type=int, default=256)
    p.add_argument("--height", type=int, default=256)
    p.add_argument("--scale", type=float, default=0.6)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(fn=cmd_gen_synthetic)

    p = sub.add_parser("gradcheck", help="verify analytic loss gradients")
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--n-loss-samples", type=int, default=72)
    common(p)
    p.set_defaults(fn=cmd_gradcheck)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (BezierMaskError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
