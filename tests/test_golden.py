"""Golden outputs: one fixed chain of CLI commands, pinned byte for byte.

The chain generates masks (synthetic shapes at 256^2 and one at 2048^2,
plus hand-made edge cases), encodes them at two smoothing radii, decodes
and renders the contours, scores the predictions with eval and runs small
studies. The SHA-256 of every file it writes, and each command's exit
code, stdout and stderr, must equal the table in golden_outputs.json.

The digests hold for the numpy version and platform the table records,
since fitted control points come from LAPACK. A change that means to
alter output bytes, or a move to another platform, regenerates the table
and says why:

    PYTHONPATH=src python tests/test_golden.py > tests/golden_outputs.json
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from beziermask.cli import main
from beziermask.mask import save_pgm

TABLE = Path(__file__).with_name("golden_outputs.json")


def hand_masks():
    """Edge cases on a 96 x 80 frame (not square, so a transposition shows)."""
    yy, xx = np.mgrid[0:80, 0:96]
    r2 = (xx + 0.5 - 48) ** 2 + (yy + 0.5 - 40) ** 2
    speck = np.zeros((80, 96), bool)
    speck[10, 20] = True
    second = r2 <= 24 ** 2
    second[2:8, 84:92] = True
    line = np.zeros((80, 96), bool)
    line[40, 20:70] = True
    return {"speck": speck, "hole": (r2 <= 30 ** 2) & (r2 > 12 ** 2), "second": second,
            "line": line, "empty": np.zeros((80, 96), bool)}


OTHER = {"blob_0000": "masks/blob_0001.pgm", "blob_0001": "masks/dumbbell_0000.pgm",
         "blob_0002": "masks/ellipse_0000.pgm", "dumbbell_0000": "masks/blob_0000.pgm",
         "ellipse_0000": "masks/blob_0002.pgm", "hole": "masks/second.pgm",
         "line": "masks/hole.pgm", "second": "masks/line.pgm",
         "large_blob": "large/dumbbell_0000.pgm"}


def chain(root: Path):
    """The commands, each run in `root` by cli.main, in order."""
    masks = root / "masks"
    masks.mkdir()
    for name, m in hand_masks().items():
        (masks / f"{name}.pgm").write_bytes(save_pgm(m))
    yield ["gen-synthetic", "--kind", "blob", "--count", "3", "--out", "masks"]
    yield ["gen-synthetic", "--kind", "ellipse", "--count", "1", "--seed", "4", "--out", "masks"]
    yield ["gen-synthetic", "--kind", "dumbbell", "--count", "1", "--seed", "5", "--out", "masks"]
    yield ["gen-synthetic", "--kind", "blob", "--count", "1", "--width", "2048", "--height", "2048",
           "--seed", "1000", "--scale", "0.7", "--out", "large"]
    # one directory of inputs, so the 2048^2 blob needs a stem of its own
    os.replace(root / "large" / "blob_0000.pgm", masks / "large_blob.pgm")
    yield ["encode", "masks", "--out", "enc0"]
    yield ["encode", "masks", "--out", "enc2", "--smooth-radius", "2"]
    for js in sorted((root / "enc0").glob("*.json")):
        stem = js.stem
        yield ["decode", f"enc0/{stem}.json", "--out", f"dec/{stem}.pgm"]
        yield ["decode", f"enc0/{stem}.json", "--out", f"dec512/{stem}.pgm",
               "--width", "512", "--height", "300"]
        yield ["render", f"enc0/{stem}.json", "--out", f"render/{stem}.pgm"]
    yield ["eval", "--pred", "enc0", "--gt", "masks", "--out", "eval_json0.csv"]
    yield ["eval", "--pred", "enc2", "--gt", "masks", "--out", "eval_json2.csv"]
    yield ["eval", "--pred", "dec", "--gt", "masks", "--out", "eval_pgm.csv"]
    # dissimilar pairs: each decoded mask against another mask of its frame
    yield ["gen-synthetic", "--kind", "dumbbell", "--count", "1", "--width", "2048", "--height", "2048",
           "--seed", "1002", "--scale", "0.7", "--out", "large"]
    other = root / "other"
    other.mkdir()
    for stem, gt in OTHER.items():
        (other / f"{stem}.pgm").write_bytes((root / gt).read_bytes())
    yield ["eval", "--pred", "dec", "--gt", "other", "--out", "eval_other.csv"]
    yield ["fidelity", "--count", "3", "--out", "fidelity.csv"]
    yield ["fidelity", "--count", "2", "--smooth-radius", "2", "--degree", "3", "--out", "fidelity_r2.csv"]
    yield ["sensitivity", "--count", "2", "--deltas", "2,10", "--trials", "3", "--out", "sensitivity.csv"]
    yield ["degree-sweep", "--count", "2", "--degrees", "3,5", "--out", "degree_sweep.csv"]
    yield ["gradcheck", "--count", "2"]


def golden_table(root: Path) -> dict:
    """Run the chain in `root`; return the table that golden_outputs.json holds."""
    commands = []
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for argv in chain(root):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            commands.append({"argv": " ".join(argv), "exit": code,
                             "stdout": out.getvalue(), "stderr": err.getvalue()})
    finally:
        os.chdir(cwd)
    files = {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(root.rglob("*")) if p.is_file()}
    return {"numpy": np.__version__,
            "platform": f"{platform.system()} {platform.machine()}, Python {platform.python_version()}",
            "commands": commands, "files": files}


def test_golden_outputs(tmp_path):
    want = json.loads(TABLE.read_text())
    got = golden_table(tmp_path)
    same = got["commands"] == want["commands"] and got["files"] == want["files"]
    assert same, (f"outputs differ from {TABLE.name} (recorded on numpy {want['numpy']}, "
                  f"{want['platform']}); the new table:\n{json.dumps(got, indent=1)}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        json.dump(golden_table(Path(d)), sys.stdout, indent=1)
        print()
