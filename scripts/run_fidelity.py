#!/usr/bin/env python3
"""Encode/decode fidelity study on the standard synthetic corpus: 200
blobs, 50 ellipses and 50 dumbbells at 256x256, fitted at degree 5.

Reports per-kind and overall mean IoU plus the mean per-arc fit residual.
"""

from beziermask.experiments import ShapeSpec, fidelity_study, generate_shape

# (kind, count, seed of the first mask) of each part of the corpus
CORPUS = [("blob", 200, 0), ("ellipse", 50, 10_000), ("dumbbell", 50, 20_000)]


def main():
    all_ious = []
    for kind, count, base in CORPUS:
        masks = [generate_shape(ShapeSpec(kind, seed=base + i)) for i in range(count)]
        res = fidelity_study(masks)
        all_ious.extend(res.ious)
        print(f"{kind:9s} n={count:4d} miou={res.miou:.4f} "
              f"siou={res.siou:.4f} residual={res.mean_residual:.3f}px "
              f"skipped={res.skipped}")
    n = len(all_ious)
    print(f"{'overall':9s} n={n:4d} miou={sum(all_ious) / n:.4f}")


if __name__ == "__main__":
    main()
