"""Run every awsym CLI command and all seven ``check`` suites against two
source trees, and compare what they write, file by file.

    python tools/cli_chain.py SRC_A SRC_B OUTDIR

SRC_A and SRC_B are repository roots (or their ``src`` directories).  The
inputs are built once, into OUTDIR/inputs, with the awsym beside this
script: a real and a complex 2-d 256/8 symbol, seeded real noise on the
same grid (its x Nyquist row is nonzero), a zero field, real and
complex smoothed 1-d 256/8 fields, Gaussian-sum test functions (one with
a complex coefficient) and operator specs.  Each run then executes in
OUTDIR/<a|b>/<run>, with ``--outdir .`` and relative paths, so equal
programs write equal bytes.  Every output file is printed as ``equal`` or
``DIFFERS`` beside the two exit codes; manifests are compared without
``wall_time_s``.  A differing file present on both sides shows how far
apart it is: a ``.bin`` payload its largest |a - b| over its peak |a|, a
JSON file the largest relative change among its numbers and the count of
other values that differ (a manifest's digests, say).  Exit status 0 when
every exit code and file agrees.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from awsym import (SampledField, gaussian_1d, make_grid, radial_gaussian,
                   sample, smooth, tensor)
from awsym.fieldio import gaussian_to_obj, save_field, write_json

IN = "../../inputs/"
U = ["--test-function", IN + "u.json"]
FOURIER = ["--method", "fourier-regularized"]
RUNS = {
    "smooth": ["smooth", "--input", IN + "F.json"],
    "smooth-complex": ["smooth", "--input", IN + "Fc.json"],
    "desmooth": ["desmooth", *FOURIER, "--input", IN + "S.json"],
    "desmooth-tau": ["desmooth", *FOURIER, "--threshold", "1e-3",
                     "--input", IN + "S.json"],
    "desmooth-complex": ["desmooth", *FOURIER, "--input", IN + "Fc.json"],
    "desmooth-zero": ["desmooth", *FOURIER, "--input", IN + "Z.json"],
    "desmooth-1d": ["desmooth", *FOURIER, "--input", IN + "S1.json"],
    "desmooth-1d-complex": ["desmooth", *FOURIER, "--input", IN + "S1c.json"],
    "desmooth-complex-shift": ["desmooth", "--input", IN + "ucs.json"],
    "desmooth-complex-shift-complex": ["desmooth",
                                       "--input", IN + "ucsc.json"],
    "antiwick-assemble": ["antiwick-assemble", "--symbol", IN + "F.json"],
    "weyl-from-kernel": ["weyl-from-kernel",
                         "--kernel", "../antiwick-assemble/kernel.json"],
    "antiwick-assemble-complex": ["antiwick-assemble",
                                  "--symbol", IN + "Fc.json"],
    "kernel-from-weyl": ["kernel-from-weyl", "--symbol", IN + "F.json"],
    "kernel-from-weyl-complex": ["kernel-from-weyl",
                                 "--symbol", IN + "Fc.json"],
    "kernel-from-weyl-chain": ["kernel-from-weyl", "--symbol",
                               "../weyl-from-kernel/weyl-symbol.json"],
    "kernel-from-weyl-noise": ["kernel-from-weyl",
                               "--symbol", IN + "Fn.json"],
    "pair-fourier": ["pair", "--operator", IN + "op.json", *U, *FOURIER],
    "pair-complex-shift": ["pair", "--operator", IN + "op.json", *U],
    "pair-complex-symbol": ["pair", "--operator", IN + "opc.json", *U],
    "pair-complex-test-function": ["pair", "--operator", IN + "op.json",
                                   "--test-function", IN + "ucsc.json"],
    **{f"check-{suite}": ["check", suite] for suite in (
        "hermite-bound", "gs-constant", "holo-bound", "e-space", "gevrey",
        "heat-roundtrip", "pairing-consistency")},
}


def build_inputs(inputs: Path) -> None:
    inputs.mkdir(parents=True, exist_ok=True)
    g = make_grid(2, 256, 8.0)
    real = tensor(gaussian_1d(1.5, center=-0.4),
                  gaussian_1d(2.5, power=1, coeff=0.7))
    save_field(sample(real, g), inputs / "F.json")
    save_field(smooth(sample(real, g)), inputs / "S.json")
    save_field(sample(tensor(gaussian_1d(1.5, center=-0.4),
                             gaussian_1d(2.5, coeff=0.3 + 0.2j)), g),
               inputs / "Fc.json")
    save_field(SampledField(g, np.random.default_rng(29).standard_normal(
        g.shape)), inputs / "Fn.json")
    save_field(0.0 * sample(radial_gaussian(2, 1.0), g), inputs / "Z.json")
    g1 = make_grid(1, 256, 8.0)
    for name, coeff in (("S1.json", 0.8), ("S1c.json", 0.4 + 0.7j)):
        save_field(smooth(sample(gaussian_1d(2.0, center=0.3, coeff=coeff),
                                 g1)), inputs / name)
    write_json(inputs / "u.json", gaussian_to_obj(radial_gaussian(2, 3.0)))
    write_json(inputs / "ucs.json", gaussian_to_obj(
        tensor(gaussian_1d(4.0), gaussian_1d(2.0, center=0.3))))
    write_json(inputs / "ucsc.json", gaussian_to_obj(
        tensor(gaussian_1d(4.0),
               gaussian_1d(2.0, center=0.3, coeff=0.3 + 0.2j))))
    for name, field in (("op.json", "F.json"), ("opc.json", "Fc.json")):
        write_json(inputs / name, {"type": "antiwick-symbol", "field": field})


def run_all(src: Path, side: Path) -> dict[str, int]:
    src = src / "src" if (src / "src").is_dir() else src
    env = {**os.environ, "PYTHONPATH": str(src.resolve())}
    codes = {}
    for name, argv in RUNS.items():
        (side / name).mkdir(parents=True, exist_ok=True)
        codes[name] = subprocess.run(
            [sys.executable, "-m", "awsym.cli", "--outdir", ".", *argv],
            cwd=side / name, env=env, capture_output=True).returncode
    return codes


def parsed(path: Path):
    """A JSON file's value; a manifest's without ``wall_time_s``."""
    value = json.loads(path.read_text())
    if path.name.endswith(".manifest.json"):
        value.pop("wall_time_s", None)
    return value


def content(path: Path):
    if path.name.endswith(".manifest.json"):
        return parsed(path)
    return path.read_bytes()


def changes(x, y) -> tuple[list[float], int]:
    """(relative changes of the numbers, count of other differing values)
    of two JSON values, compared place by place."""
    if isinstance(x, dict) and isinstance(y, dict) and x.keys() == y.keys():
        parts = [changes(x[k], y[k]) for k in x]
    elif isinstance(x, list) and isinstance(y, list) and len(x) == len(y):
        parts = [changes(p, q) for p, q in zip(x, y)]
    elif {type(x), type(y)} <= {int, float}:
        if x == y or math.isnan(x) and math.isnan(y):
            return [0.0], 0
        rel = abs(x - y) / max(abs(x), abs(y))
        return [math.inf if math.isnan(rel) else rel], 0
    else:
        return [], int(x != y)
    return [r for rel, _ in parts for r in rel], sum(n for _, n in parts)


def difference(a: Path, b: Path) -> str:
    """How far apart two differing files are, or "" for other formats."""
    if a.suffix == ".bin":
        x, y = (np.fromfile(p, dtype="<c16") for p in (a, b))
        if x.shape != y.shape:
            return f"{x.size} / {y.size} samples"
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.max(np.abs(x - y)) / np.max(np.abs(x))
        return f"max |a - b| / peak {rel:.3g}"
    if a.suffix == ".json":
        rel, other = changes(parsed(a), parsed(b))
        return f"max rel change {max(rel, default=0.0):.3g}, " \
            f"{other} other values differ"
    return ""


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    src_a, src_b, out = map(Path, argv)
    build_inputs(out / "inputs")
    codes = [run_all(src, out / side) for src, side in ((src_a, "a"),
                                                        (src_b, "b"))]
    same = True
    for name in RUNS:
        a, b = out / "a" / name, out / "b" / name
        print(f"{name}: exit {codes[0][name]} / {codes[1][name]}")
        same &= codes[0][name] == codes[1][name]
        for file in sorted({p.name for p in (*a.iterdir(), *b.iterdir())}):
            both = (a / file).exists() and (b / file).exists()
            equal = both and content(a / file) == content(b / file)
            same &= equal
            size = difference(a / file, b / file) if both and not equal \
                else ""
            print(f"  {file}: {'equal' if equal else 'DIFFERS'}"
                  + (f" ({size})" if size else ""))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
