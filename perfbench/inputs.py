"""Seeded MNIST-shaped inputs: the four IDX files the program reads.

Each class is a mixture of a few blurred stroke prototypes on the 28x28 grid.
An example is one prototype, shifted by up to one pixel, scaled in contrast
and covered in pixel noise; a fixed share of labels is then redrawn uniformly.
The label noise caps test accuracy near 0.92, so the no-reduction fc baseline
stays clearly below 1.0 while a trained model sits far above chance (0.1),
and a codec setting that damages training shows as lost accuracy.

Run as a script to write the files:

    python3 perfbench/inputs.py --seed 7 --out DIR
"""

from __future__ import annotations

import argparse
import struct
import sys
from pathlib import Path

import numpy as np

TRAIN_IMAGES = "train-images-idx3-ubyte"
TRAIN_LABELS = "train-labels-idx1-ubyte"
TEST_IMAGES = "t10k-images-idx3-ubyte"
TEST_LABELS = "t10k-labels-idx1-ubyte"

N_TRAIN = 60000
N_TEST = 10000
N_CLASSES = 10
VARIANTS = 3
LABEL_NOISE = 0.09
PIXEL_NOISE = 0.3
MAX_SHIFT = 1
CHUNK = 5000
# the task itself is fixed; the seed draws the examples
PROTOTYPE_SEED = 20220405


def _prototypes(rng: np.random.Generator) -> np.ndarray:
    """(classes, variants, 28, 28) stroke images in [0, 1]."""
    coarse = rng.random((N_CLASSES, VARIANTS, 7, 7)) < 0.3
    fine = np.kron(coarse, np.ones((4, 4))).astype(np.float32)
    # a 3x3 box blur softens the block edges into strokes
    padded = np.pad(fine, ((0, 0), (0, 0), (1, 1), (1, 1)))
    blurred = sum(padded[..., dy : dy + 28, dx : dx + 28] for dy in range(3) for dx in range(3)) / 9.0
    return np.clip(blurred * 1.3, 0.0, 1.0)


def _sample(protos: np.ndarray, n: int, rng: np.random.Generator) -> tuple[bytes, bytes]:
    labels = rng.integers(0, N_CLASSES, n)
    pixels = np.empty((n, 28, 28), np.uint8)
    for start in range(0, n, CHUNK):
        stop = min(start + CHUNK, n)
        m = stop - start
        lab = labels[start:stop]
        img = protos[lab, rng.integers(0, VARIANTS, m)]
        shifts = rng.integers(-MAX_SHIFT, MAX_SHIFT + 1, (m, 2))
        for (dy, dx) in {tuple(s) for s in shifts.tolist()}:
            rows = (shifts[:, 0] == dy) & (shifts[:, 1] == dx)
            img[rows] = np.roll(img[rows], (dy, dx), axis=(1, 2))
        img = img * rng.uniform(0.6, 1.0, (m, 1, 1)).astype(np.float32)
        img += rng.normal(0.0, PIXEL_NOISE, img.shape).astype(np.float32)
        pixels[start:stop] = np.rint(np.clip(img, 0.0, 1.0) * 255.0).astype(np.uint8)
    flip = rng.random(n) < LABEL_NOISE
    labels[flip] = rng.integers(0, N_CLASSES, int(flip.sum()))
    return pixels.tobytes(), labels.astype(np.uint8).tobytes()


def write_inputs(out_dir, seed: int) -> Path:
    """Write the four IDX files for `seed` into out_dir and return it."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    protos = _prototypes(np.random.default_rng(PROTOTYPE_SEED))
    rng = np.random.default_rng(seed)
    for n, images_name, labels_name in (
        (N_TRAIN, TRAIN_IMAGES, TRAIN_LABELS),
        (N_TEST, TEST_IMAGES, TEST_LABELS),
    ):
        pixels, labels = _sample(protos, n, rng)
        (out / images_name).write_bytes(struct.pack(">4i", 2051, n, 28, 28) + pixels)
        (out / labels_name).write_bytes(struct.pack(">2i", 2049, n) + labels)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    write_inputs(args.out, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
