"""End-to-end tests of the command line interface."""

import csv
import errno
import io
import json
import os

import numpy as np
import pytest

from beziermask import fitting, metrics
from beziermask.cli import main
from beziermask.mask import load_pgm, polygon_to_mask, save_pgm


def write_pgm(path, mask):
    path.write_bytes(save_pgm(mask))


def read_pgm(path):
    return load_pgm(path.read_bytes())


@pytest.fixture
def mask_dir(tmp_path, blob_masks):
    d = tmp_path / "masks"
    d.mkdir()
    for i, m in enumerate(blob_masks[:4]):
        write_pgm(d / f"blob{i}.pgm", m)
    return d


def run(*argv):
    return main([str(a) for a in argv])


class TestEncode:
    def test_writes_contours_and_report(self, mask_dir, tmp_path):
        out = tmp_path / "enc"
        assert run("encode", mask_dir, "--out", out) == 0
        files = sorted(p.name for p in out.glob("*.json"))
        assert files == [f"blob{i}.json" for i in range(4)]
        with open(out / "fit_report.csv") as f:
            rows = list(csv.reader(f))
        assert len(rows) == 17  # header + 4 arcs per mask
        doc = json.loads((out / "blob0.json").read_text())
        assert doc["width"] == 256 and len(doc["segments"]) == 4

    def test_empty_mask_fails_nonzero(self, tmp_path):
        empty = tmp_path / "empty.pgm"
        write_pgm(empty, np.zeros((32, 32), bool))
        assert run("encode", empty, "--out", tmp_path / "enc") != 0

    def test_jobs_bitwise_deterministic(self, mask_dir, tmp_path):
        out1, out2 = tmp_path / "j1", tmp_path / "j2"
        assert run("encode", mask_dir, "--out", out1, "--jobs", "1") == 0
        assert run("encode", mask_dir, "--out", out2, "--jobs", "2") == 0
        for p in sorted(out1.glob("*")):
            assert p.read_bytes() == (out2 / p.name).read_bytes()


class TestDecodeRenderEval:
    @pytest.fixture
    def encoded(self, mask_dir, tmp_path):
        out = tmp_path / "enc"
        assert run("encode", mask_dir, "--out", out) == 0
        return out

    def test_decode_roundtrip_iou(self, encoded, mask_dir, tmp_path):
        out = tmp_path / "dec.pgm"
        assert run("decode", encoded / "blob0.json", "--out", out) == 0
        pred = read_pgm(out)
        gt = read_pgm(mask_dir / "blob0.pgm")
        inter, union = np.sum(pred & gt), np.sum(pred | gt)
        assert inter / union > 0.9

    def test_decode_tiny_frame_no_crash(self, encoded, tmp_path):
        out = tmp_path / "tiny.pgm"
        assert run("decode", encoded / "blob0.json", "--out", out,
                   "--width", "1", "--height", "1") == 0
        assert read_pgm(out).shape == (1, 1)

    def test_decode_far_control_point(self, encoded, tmp_path, capsys):
        # a finite but huge coordinate: a PGM or a typed error, never numpy's
        doc = json.loads((encoded / "blob0.json").read_text())
        doc["segments"][1]["control_points"][2] = [1e300, 5.0]
        src = tmp_path / "far.json"
        src.write_text(json.dumps(doc))
        out = tmp_path / "far.pgm"
        code = run("decode", src, "--out", out)
        if code == 0:
            assert read_pgm(out).shape == (doc["height"], doc["width"])
        else:
            assert code == 1 and "error:" in capsys.readouterr().err

    def test_decode_double_resolution(self, encoded, mask_dir, tmp_path):
        out = tmp_path / "big.pgm"
        assert run("decode", encoded / "blob0.json", "--out", out,
                   "--width", "512", "--height", "512") == 0
        big = read_pgm(out)
        # majority-vote 2x2 downsample should land close to the source
        down = big.reshape(256, 2, 256, 2).sum(axis=(1, 3)) >= 2
        gt = read_pgm(mask_dir / "blob0.pgm")
        inter, union = np.sum(down & gt), np.sum(down | gt)
        assert inter / union > 0.9

    def test_render_outline(self, encoded, tmp_path):
        out = tmp_path / "out.pgm"
        assert run("render", encoded / "blob0.json", "--out", out) == 0
        outline = read_pgm(out)
        assert outline.any()
        # an outline is sparse compared to the filled shape
        assert outline.sum() < 0.2 * outline.size

    def test_render_stamps_only_vertices_in_the_frame(self, encoded, tmp_path):
        contour = fitting.contour_from_json((encoded / "blob0.json").read_text())
        want = np.zeros((contour.height, contour.width), dtype=bool)
        cols, rows = np.floor(fitting.decode_contour(contour, 128)).astype(int).T
        want[rows, cols] = True
        out = tmp_path / "in.pgm"
        assert run("render", encoded / "blob0.json", "--out", out) == 0
        assert out.read_bytes() == save_pgm(want)
        # the same contour moved one frame width to the right draws nothing
        shifted = fitting.PiecewiseContour(contour.control_points + [contour.width, 0.0],
                                           contour.width, contour.height)
        src = tmp_path / "shifted.json"
        src.write_text(fitting.contour_to_json(shifted))
        assert run("render", src, "--out", out) == 0
        assert not read_pgm(out).any()

    def test_eval_writes_metrics(self, encoded, mask_dir, tmp_path):
        out = tmp_path / "metrics.csv"
        assert run("eval", "--pred", encoded, "--gt", mask_dir,
                   "--out", out) == 0
        with open(out) as f:
            rows = list(csv.reader(f))
        assert rows[-1][0] == "__summary__"
        assert float(rows[-1][1]) > 0.9  # summary miou

    def test_eval_csv_is_write_metrics_csv(self, encoded, mask_dir, tmp_path):
        out = tmp_path / "metrics.csv"
        assert run("eval", "--pred", encoded, "--gt", mask_dir, "--out", out) == 0
        stems = sorted(p.stem for p in mask_dir.glob("*.pgm"))
        reports = []
        for stem in stems:
            gt = read_pgm(mask_dir / f"{stem}.pgm")
            h, w = gt.shape
            contour = fitting.contour_from_json((encoded / f"{stem}.json").read_text())
            poly = fitting.decode_contour(fitting.scale_contour(contour, w, h), 128)
            reports.append(metrics.compare_masks(polygon_to_mask(poly, w, h), gt))
        want = io.StringIO()
        csv.writer(want).writerows(metrics.csv_rows(stems, reports, metrics.summarize(reports)))
        assert out.read_bytes() == want.getvalue().encode()

    def test_eval_write_failing_part_way_keeps_the_old_csv(self, encoded, mask_dir, tmp_path,
                                                           capsys, monkeypatch):
        out = tmp_path / "metrics.csv"
        out.write_bytes(b"old,metrics\r\n")
        fdopen = os.fdopen

        class DiskFull:
            """A file that takes half of the first write, then fails."""

            def __init__(self, fd, mode):
                self.f = fdopen(fd, mode)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                self.f.write(data[:len(data) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "fdopen", DiskFull)
        assert run("eval", "--pred", encoded, "--gt", mask_dir, "--out", out) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert out.read_bytes() == b"old,metrics\r\n"
        assert [p.name for p in tmp_path.iterdir() if p.name.startswith(".")] == []

    def test_eval_skips_unreadable_gt(self, encoded, mask_dir, tmp_path, capsys):
        gt_dir = tmp_path / "gt"
        gt_dir.mkdir()
        for i in range(3):
            data = (mask_dir / f"blob{i}.pgm").read_bytes()
            (gt_dir / f"blob{i}.pgm").write_bytes(data[:1000] if i == 1 else data)
        out = tmp_path / "metrics.csv"
        assert run("eval", "--pred", encoded, "--gt", gt_dir, "--out", out) == 1
        err = capsys.readouterr().err
        assert "eval failed: blob1: PgmFormatError: truncated pixel data" in err
        with open(out) as f:
            rows = list(csv.reader(f))
        assert [r[0] for r in rows[1:]] == ["blob0", "blob2", "__summary__"]
        assert float(rows[-1][1]) > 0.9

    @pytest.mark.parametrize("frame", [{"width": 0}, {"height": -3}])
    def test_zero_size_frame_is_an_error(self, encoded, tmp_path, capsys, frame):
        doc = json.loads((encoded / "blob0.json").read_text())
        doc.update(frame)
        src = tmp_path / "bad.json"
        src.write_text(json.dumps(doc))
        for command in ("decode", "render"):
            assert run(command, src, "--out", tmp_path / "out.pgm") == 1
            assert capsys.readouterr().err.startswith("error: frame must be at least 1 x 1")
        assert not (tmp_path / "out.pgm").exists()

    @pytest.mark.parametrize("frame", [{"width": 0}, {"height": -3}])
    def test_eval_skips_zero_size_prediction(self, encoded, mask_dir, tmp_path, capsys, frame):
        pred_dir = tmp_path / "pred"
        pred_dir.mkdir()
        for i in range(4):
            doc = json.loads((encoded / f"blob{i}.json").read_text())
            if i == 1:
                doc.update(frame)
            (pred_dir / f"blob{i}.json").write_text(json.dumps(doc))
        out = tmp_path / "metrics.csv"
        assert run("eval", "--pred", pred_dir, "--gt", mask_dir, "--out", out) == 1
        assert "eval failed: blob1: ContourFormatError: frame must be" in capsys.readouterr().err
        with open(out) as f:
            rows = list(csv.reader(f))
        assert [r[0] for r in rows[1:]] == ["blob0", "blob2", "blob3", "__summary__"]

    @pytest.mark.parametrize("command, option, value", [
        ("decode", "--width", "-5"), ("decode", "--height", "-5"),
        ("decode", "--samples", "1"), ("render", "--samples", "1")])
    def test_bad_arguments_are_errors(self, encoded, tmp_path, capsys, command, option, value):
        out = tmp_path / "out.pgm"
        assert run(command, encoded / "blob0.json", "--out", out, option, value) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


    def test_missing_contour_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "out.pgm"
        assert run("decode", tmp_path / "missing.json", "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "missing.json" in err
        assert not out.exists()


class TestStudies:
    @pytest.mark.parametrize("argv, message", [
        (("sensitivity", "--deltas=-1", "--count", "1", "--trials", "1"), "deltas must be"),
        (("fidelity", "--degree", "0", "--count", "1"), "degree must be >= 1"),
        (("gen-synthetic", "--width", "0", "--count", "1"), "frame must be at least 1x1"),
        (("sensitivity", "--count", "1", "--trials", "0"), "trials must be >= 1"),
        (("sensitivity", "--deltas", "1,nan", "--count", "1"), "deltas must be"),
        (("sensitivity", "--deltas", "inf", "--count", "1"), "deltas must be")],
        ids=["sensitivity", "fidelity", "gen-synthetic", "sensitivity-no-trials",
             "sensitivity-nan-delta", "sensitivity-inf-delta"])
    def test_bad_arguments_are_errors(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        assert run(*argv, "--out", out) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()

    def test_gen_synthetic_deterministic(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            assert run("gen-synthetic", "--count", "3", "--width", "64",
                       "--height", "64", "--seed", "5", "--out", d) == 0
        for p in sorted(d1.glob("*.pgm")):
            assert p.read_bytes() == (d2 / p.name).read_bytes()
        assert len(list(d1.glob("*.pgm"))) == 3

    def test_fidelity_command(self, tmp_path):
        out = tmp_path / "fid.csv"
        assert run("fidelity", "--count", "5", "--out", out) == 0
        with open(out) as f:
            rows = list(csv.reader(f))
        assert rows[-1][0] == "__summary__" or len(rows) > 1

    def test_sensitivity_command(self, tmp_path):
        out = tmp_path / "sens.csv"
        assert run("sensitivity", "--count", "2", "--deltas", "0,5",
                   "--trials", "2", "--out", out) == 0
        with open(out) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["delta", "representation", "miou", "trials"]
        assert len(rows) == 5  # header + 2 representations x 2 deltas
        bez = {float(r[0]): float(r[2]) for r in rows[1:] if r[1] == "bezier"}
        assert bez[0.0] >= bez[5.0]  # more noise, lower IoU

    def test_degree_sweep_command(self, tmp_path):
        out = tmp_path / "deg.csv"
        assert run("degree-sweep", "--count", "3", "--degrees", "3,5",
                   "--out", out) == 0
        with open(out) as f:
            rows = list(csv.reader(f))
        assert len(rows) == 3
        assert float(rows[1][1]) > float(rows[2][1])

    def test_gradcheck_passes(self, capsys):
        assert run("gradcheck", "--count", "5") == 0
        assert "PASS" in capsys.readouterr().out
