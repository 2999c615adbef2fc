"""Tests for the synthetic corpus and the two study drivers."""

import itertools
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage

import beziermask
from beziermask import (DegenerateShapeError, ShapeSpec, blob_corpus,
                        degree_sweep, fidelity_study, generate_shape,
                        perturb_contour, polygon_baseline, polygon_to_mask,
                        sensitivity_sweep)
from beziermask.experiments import _key
from beziermask.fitting import encode_mask, flatten
from beziermask.mask import trace_boundary
from beziermask.metrics import compare_masks


class TestShapeSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            ShapeSpec("triangle")

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            ShapeSpec("blob", scale=0.0)
        with pytest.raises(ValueError):
            ShapeSpec("blob", scale=1.5)


class TestGenerateShape:
    def test_deterministic(self):
        a = generate_shape(ShapeSpec("blob", seed=42))
        b = generate_shape(ShapeSpec("blob", seed=42))
        assert np.array_equal(a, b)
        c = generate_shape(ShapeSpec("blob", seed=43))
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("kind", ["blob", "ellipse", "dumbbell"])
    def test_single_component_over_seeds(self, kind):
        for seed in range(12):
            m = generate_shape(ShapeSpec(kind, 128, 128, seed, 0.6))
            assert m.dtype == bool and m.shape == (128, 128)
            assert m.any()
            _, n = ndimage.label(m, structure=np.ones((3, 3), dtype=int))
            assert n == 1

    def test_ellipse_area_band(self):
        # scale 0.5 on a 256 frame: semi-axes in [0.3, 0.5] * 64 pixels of
        # radius 64, so area is between pi*0.09 and pi*0.25 of r0^2
        areas = [generate_shape(ShapeSpec("ellipse", seed=s, scale=0.5)).sum()
                 for s in range(8)]
        lo, hi = 0.05 * 256**2, 0.25 * 256**2
        assert all(lo < a < hi for a in areas)

    def test_blob_area_scales_with_scale(self):
        small = generate_shape(ShapeSpec("blob", seed=5, scale=0.3)).sum()
        large = generate_shape(ShapeSpec("blob", seed=5, scale=0.7)).sum()
        assert large > 3 * small  # area grows roughly with scale squared

    def test_blob_corpus_length_and_variety(self):
        corpus = blob_corpus(5, seed=100)
        assert len(corpus) == 5
        assert len({m.tobytes() for m in corpus}) == 5

    def test_blob_corpus_rejects_negative_count(self):
        # the corpus was empty, and the studies blamed its masks
        with pytest.raises(ValueError, match="^count must be >= 0, got -1$"):
            blob_corpus(-1)


class TestPerturbContour:
    def test_delta_zero_is_identity(self, blob_masks):
        contour, _ = encode_mask(blob_masks[0], degree=5)
        same = perturb_contour(contour, 0.0, seed=1)
        assert np.array_equal(flatten(same), flatten(contour))

    def test_seed_determinism(self, blob_masks):
        contour, _ = encode_mask(blob_masks[0], degree=5)
        a = perturb_contour(contour, 3.0, seed=9)
        b = perturb_contour(contour, 3.0, seed=9)
        assert np.array_equal(flatten(a), flatten(b))
        c = perturb_contour(contour, 3.0, seed=10)
        assert not np.array_equal(flatten(a), flatten(c))

    def test_noise_std_matches_delta(self, blob_masks):
        contour, _ = encode_mask(blob_masks[0], degree=5)
        base = flatten(contour)
        diffs = np.concatenate([flatten(perturb_contour(contour, 2.0, s)) - base
                                for s in range(2500)])  # 100k draws
        assert abs(diffs.std() - 2.0) < 0.04  # within 2%
        assert abs(diffs.mean()) < 0.02

    def test_negative_delta_rejected(self, blob_masks):
        contour, _ = encode_mask(blob_masks[0], degree=5)
        # a NaN or infinite delta failed as a contour error, blaming the contour
        for delta in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="^delta must be finite and >= 0, got "):
                perturb_contour(contour, delta, seed=0)

    def test_closure_preserved(self, blob_masks):
        contour, _ = encode_mask(blob_masks[0], degree=5)
        noisy = perturb_contour(contour, 5.0, seed=3)
        for k in range(4):
            end = noisy.segments[k].control_points[-1]
            start = noisy.segments[(k + 1) % 4].control_points[0]
            assert np.array_equal(end, start)


class TestPolygonBaseline:
    def test_even_indexing(self, disc_mask):
        trace = trace_boundary(disc_mask)
        m = len(trace)
        verts = polygon_baseline(trace, 20)
        idx = np.round(np.arange(20) * m / 20).astype(int)
        assert np.array_equal(verts, trace.points[idx])

    def test_k_equals_m_is_identity(self, disc_mask):
        trace = trace_boundary(disc_mask)
        verts = polygon_baseline(trace, len(trace))
        assert np.array_equal(verts, trace.points)

    def test_too_short_trace_rejected(self):
        m = np.zeros((8, 8), bool)
        m[3:5, 3:5] = True
        trace = trace_boundary(m)
        with pytest.raises(DegenerateShapeError):
            polygon_baseline(trace, 20)

    def test_k_below_three_rejected(self, disc_mask):
        with pytest.raises(ValueError):
            polygon_baseline(trace_boundary(disc_mask), 2)

    def test_disc_twenty_gon_iou(self, disc_mask):
        verts = polygon_baseline(trace_boundary(disc_mask), 20)
        raster = polygon_to_mask(verts, 64, 64)
        assert compare_masks(raster, disc_mask).iou > 0.9


class TestFidelityStudy:
    def test_blobs_fit_well(self, blob_masks):
        res = fidelity_study(blob_masks)
        assert res.skipped == 0
        assert len(res.ious) == len(blob_masks)
        assert res.miou > 0.95
        assert res.mean_residual < 3.0

    def test_all_degenerate_raises(self):
        tiny = np.zeros((8, 8), bool)
        tiny[4, 4] = True
        with pytest.raises(DegenerateShapeError):
            fidelity_study([tiny])

    def test_degenerate_masks_are_counted(self, blob_masks):
        tiny = np.zeros((8, 8), bool)
        tiny[4, 4] = True
        res = fidelity_study([blob_masks[0], tiny])
        assert res.skipped == 1 and len(res.ious) == 1


def with_speck(m):
    """m plus a separate 3x3 speck in its top-left corner."""
    out = m.copy()
    assert not out[:6, :6].any()
    out[1:4, 1:4] = True
    return out


@pytest.fixture(scope="module")
def small_blob():
    return generate_shape(ShapeSpec("blob", 128, 128, 3, 0.6))


class TestDegreeSweep:
    def test_residual_decreases_with_degree(self, blob_masks):
        out = degree_sweep(blob_masks[:4], degrees=(3, 5, 7, 9))
        assert out[3] > out[5] > out[7] > out[9]

    def test_speck_is_dropped(self, small_blob):
        assert (degree_sweep([with_speck(small_blob)], degrees=(3, 5))
                == degree_sweep([small_blob], degrees=(3, 5)))

    def test_empty_corpus_rejected(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateShapeError):
                degree_sweep([], degrees=(3, 5))


class TestSensitivitySweep:
    def test_zero_delta_matches_fidelity(self, blob_masks):
        masks = blob_masks[:3]
        curve = sensitivity_sweep(masks, deltas=[0.0], trials=1, seed=0)
        base = fidelity_study(masks)
        assert curve.miou_bezier[0] == pytest.approx(base.miou, abs=1e-12)

    def test_deterministic_and_monotone_shape(self, blob_masks):
        masks = blob_masks[:3]
        a = sensitivity_sweep(masks, deltas=[0.0, 4.0], trials=3, seed=7)
        b = sensitivity_sweep(masks, deltas=[0.0, 4.0], trials=3, seed=7)
        assert np.array_equal(a.miou_bezier, b.miou_bezier)
        assert np.array_equal(a.miou_polygon, b.miou_polygon)
        assert a.miou_bezier[1] < a.miou_bezier[0]
        assert a.miou_polygon[1] < a.miou_polygon[0]

    def test_bezier_beats_polygon_under_noise(self, blob_masks):
        curve = sensitivity_sweep(blob_masks[:4], deltas=[5.0, 10.0],
                                  trials=4, seed=0)
        assert np.all(curve.miou_bezier >= curve.miou_polygon)

    def test_mask_with_speck(self, small_blob):
        # traced on the largest component, as encode_mask does; scored
        # against the mask as given, speck included
        m = with_speck(small_blob)
        curve = sensitivity_sweep([m], deltas=[0.0, 3.0], trials=2, seed=1)
        assert curve.miou_bezier[0] == fidelity_study([m]).miou
        clean = sensitivity_sweep([small_blob], deltas=[0.0, 3.0], trials=2, seed=1)
        assert np.all(curve.miou_bezier < clean.miou_bezier)
        assert np.all(curve.miou_polygon < clean.miou_polygon)

    def test_bad_deltas_rejected(self, blob_masks):
        with pytest.raises(ValueError):
            sensitivity_sweep(blob_masks[:1], deltas=[], trials=1)
        with pytest.raises(ValueError):
            sensitivity_sweep(blob_masks[:1], deltas=[-1.0], trials=1)

    @pytest.mark.parametrize("deltas, trials, message", [
        ([1.0], 0, "trials must be >= 1"), ([1.0], -1, "trials must be >= 1"),
        ([np.nan], 1, "deltas must be"), ([0.0, np.inf], 1, "deltas must be"),
        ([-np.inf], 1, "deltas must be")])
    def test_bad_arguments_fail_up_front(self, blob_masks, deltas, trials, message):
        # with no trials the curve was 0/0 (NaN, with a RuntimeWarning) or
        # -0.0, and a NaN or infinite delta failed later as a contour error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                sensitivity_sweep(blob_masks[:1], deltas, trials)

    def test_points_below_three_fail_up_front(self, blob_masks):
        # polygon_baseline raised "polygon needs k >= 3" after the first fit
        with pytest.raises(ValueError, match="^points must be >= 3, got 2$"):
            sensitivity_sweep(blob_masks[:1], [1.0], 1, points=2)

    def test_negative_seed_fails_up_front(self, blob_masks):
        # numpy raised "expected non-negative integer" from the first trial
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            sensitivity_sweep(blob_masks[:1], [1.0], 1, -1)

    def test_word_keys_give_the_list_key_streams(self):
        """The sweep hands SeedSequence the words of [seed, i, di, t]
        (experiments._key): the same pool, so the same streams, as the
        list, for one- to four-word values and both spawned children."""
        seeds = (0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 3, 10 ** 30)
        for key in itertools.product(seeds, *[(0, 1, 2 ** 32)] * 3):
            words = _key(*key)
            assert words.dtype == np.uint32
            for child in (0, 1):
                got = np.random.SeedSequence(words, spawn_key=(child,)).generate_state(4)
                want = np.random.SeedSequence(list(key), spawn_key=(child,)).generate_state(4)
                assert np.array_equal(got, want), (key, child)

    def test_memory_does_not_grow_with_trials(self):
        """A sweep rasterizes in stacks of at most 4 MiB of frames: four
        1024^2 frames, so twenty trials peak about where four do."""
        m = generate_shape(ShapeSpec("blob", 1024, 1024, 2, 0.6))
        peaks = []
        for trials in (4, 20):
            tracemalloc.start()
            try:
                sensitivity_sweep([m], [0.0, 2.0], trials)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0]


def test_run_fidelity_script():
    """scripts/run_fidelity.py prints one line per shape kind of its
    200/50/50 corpus and one overall line."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(Path(beziermask.__file__).parents[1]))
    out = subprocess.run([sys.executable, str(root / "scripts" / "run_fidelity.py")], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == [
        "blob      n= 200 miou=0.9805 siou=0.0084 residual=1.002px skipped=0",
        "ellipse   n=  50 miou=0.9950 siou=0.0006 residual=0.378px skipped=0",
        "dumbbell  n=  50 miou=0.9657 siou=0.0069 residual=1.007px skipped=0",
        "overall   n= 300 miou=0.9804",
    ]
