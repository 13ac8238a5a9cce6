"""Run every awsym CLI command and all seven ``check`` suites against two
source trees, and compare what they write, file by file.

    python tools/cli_chain.py SRC_A SRC_B OUTDIR

SRC_A and SRC_B are repository roots (or their ``src`` directories).  The
inputs are built once, into OUTDIR/inputs, with the awsym beside this
script: a real and a complex 2-d 256/8 symbol, a zero field, real and
complex smoothed 1-d 256/8 fields, Gaussian-sum test functions (one with
a complex coefficient) and operator specs.  Each run then executes in
OUTDIR/<a|b>/<run>, with ``--outdir .`` and relative paths, so equal
programs write equal bytes.  Every output file is printed as ``equal`` or
``DIFFERS`` beside the two exit codes; manifests are compared without
``wall_time_s``.  Exit status 0 when every exit code and file agrees.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from awsym import (gaussian_1d, make_grid, radial_gaussian, sample, smooth,
                   tensor)
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


def content(path: Path):
    if path.name.endswith(".manifest.json"):
        manifest = json.loads(path.read_text())
        manifest.pop("wall_time_s", None)
        return manifest
    return path.read_bytes()


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
            equal = (a / file).exists() and (b / file).exists() \
                and content(a / file) == content(b / file)
            same &= equal
            print(f"  {file}: {'equal' if equal else 'DIFFERS'}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
