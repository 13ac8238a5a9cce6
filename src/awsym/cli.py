"""Command-line front door.

Subcommands wrap the library operations one to one (``smooth``,
``desmooth``, ``antiwick-assemble``, ``weyl-from-kernel``,
``kernel-from-weyl``, ``pair``) plus ``check``, which runs the named
verification suite and emits a machine-readable report.

Every invocation writes its outputs into ``--outdir`` (default: the
``AWSYM_OUTDIR`` environment variable, else the current directory)
together with one run manifest ``<name>.manifest.json`` recording the
command, parameters, versions, wall time and the SHA-256 of every file
the command read (the binary behind a field or kernel manifest included)
or wrote.  ``<name>`` is the command, ``check-<suite>`` for ``check``, and
the stem of ``--out`` for ``pair``, so pair runs with different ``--out``
in one directory keep their own manifests.  The manifest is the only
file allowed to differ between identical reruns (wall time); every other
output is byte-reproducible.

Exit status: 0 on success, 1 when a numerical flag fired (divergence,
floating-point overflow, excessive residual, failed suite), 2 on usage
errors.  Every exit 1 leaves a report and a manifest.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .core import make_grid, sample
from .fieldio import (export_csv, gaussian_from_obj, grid_from_obj,
                      grid_to_obj, load_field, load_kernel, operator_from_obj,
                      read_json, require_csv_dim, save_field, save_kernel,
                      sha256_file, write_json)
from .gaussians import AnalyticGaussianSum, GaussFactor, gaussian_1d, \
    radial_gaussian, tensor
from .gsnorm import (WeightParams, e_space_norm, gevrey_order_estimate,
                     gs_constant, hermite_bound_margin, hermite_l2_log_margin,
                     holo_bound_check)
from .heat import (ESpaceDivergenceError, desmooth_complex, desmooth_fourier,
                   smooth)
from .pairing import (RESIDUAL_FLAG_THRESHOLD, antiwick_pair,
                      antiwick_pair_reference)
from .quantize import (AntiWickFromSymbol, DenseKernel, assemble_antiwick,
                       kernel_from_weyl, position_grid_of, weyl_from_kernel)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    outdir = Path(args.outdir or os.environ.get("AWSYM_OUTDIR", "."))
    report_path, manifest_path = (outdir / name for name in _run_names(args))
    # the checks run before a missing outdir is made: its nearest existing
    # ancestor must be a writable directory
    home = ancestor = outdir.resolve()
    while not ancestor.exists():
        ancestor = ancestor.parent
    written = set()
    for path in [report_path, manifest_path, *_saved_paths(args, outdir)]:
        if path.resolve() in written:
            print(f"[awsym] usage error: this run would write {path} twice",
                  file=sys.stderr)
            return 2
        written.add(path.resolve())
        parent = path.parent.resolve()
        if parent == home:
            parent = ancestor
        if path.is_dir() or not (parent.is_dir()
                                 and os.access(parent, os.W_OK)):
            print(f"[awsym] usage error: cannot write {path}",
                  file=sys.stderr)
            return 2
    outdir.mkdir(parents=True, exist_ok=True)

    started = time.perf_counter()
    inputs: dict[str, str] = {}     # every file read -> SHA-256 (fieldio)
    outputs: list[Path] = []
    flag_note = None
    try:
        status, report = args.handler(args, outdir, inputs, outputs)
    except (ESpaceDivergenceError, FloatingPointError) as exc:
        flag_note = f"[awsym] numerical flag: {exc}"
        flag = "e-space-divergent" \
            if isinstance(exc, ESpaceDivergenceError) else "floating-point"
        status, report = 1, {"command": args.command, "flags": [flag],
                             "error": str(exc)}
    # RecursionError: json.loads on input nested past the recursion limit
    except (OSError, ValueError, KeyError, json.JSONDecodeError,
            RecursionError) as exc:
        print(f"[awsym] usage error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"[awsym] usage error: {args.command} needs more memory than "
              f"is available, use a smaller grid ({exc})", file=sys.stderr)
        return 2

    write_json(report_path, report)
    outputs.append(report_path)
    _write_manifest(args, manifest_path, inputs, outputs, started)
    if flag_note:
        print(flag_note, file=sys.stderr)
    else:
        print(f"[awsym] {args.command}: {'ok' if status == 0 else 'FLAG'} "
              f"-> {report_path}")
    return status


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="awsym",
        description="anti-Wick / Weyl symbol calculus toolkit")
    parser.add_argument("--outdir", default=None,
                        help="output directory (default: $AWSYM_OUTDIR or .)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("smooth", help="heat-smooth a stored field")
    p.add_argument("--input", required=True)
    p.add_argument("--out", default="smoothed.json")
    p.add_argument("--csv", action="store_true",
                   help="also export CSV (dim <= 2)")
    p.set_defaults(handler=_cmd_smooth)

    p = sub.add_parser("desmooth", help="invert the heat smoothing")
    p.add_argument("--input", required=True,
                   help="field manifest (fourier) or Gaussian-sum JSON "
                        "(complex-shift)")
    _add_heat_inverse_options(p)
    p.add_argument("--grid", default=None,
                   help='grid for complex-shift, JSON {"dim","N","L"}')
    p.add_argument("--out", default="desmoothed.json")
    p.set_defaults(handler=_cmd_desmooth)

    p = sub.add_parser("antiwick-assemble",
                       help="assemble a dense kernel from an anti-Wick symbol")
    p.add_argument("--symbol", required=True, help="phase-space field manifest")
    p.add_argument("--out", default="kernel.json")
    p.add_argument("--refined", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="build on the doubled position grid (default: on)")
    p.set_defaults(handler=_cmd_assemble)

    p = sub.add_parser("weyl-from-kernel", help="Weyl symbol of a kernel")
    p.add_argument("--kernel", required=True)
    p.add_argument("--out", default="weyl-symbol.json")
    p.set_defaults(handler=_cmd_weyl_from_kernel)

    p = sub.add_parser("kernel-from-weyl", help="kernel from a Weyl symbol")
    p.add_argument("--symbol", required=True)
    p.add_argument("--out", default="kernel.json")
    p.set_defaults(handler=_cmd_kernel_from_weyl)

    p = sub.add_parser("pair",
                       help="pair an operator's anti-Wick symbol with a "
                            "Gaussian-sum test function")
    p.add_argument("--operator", required=True, help="operator JSON spec")
    p.add_argument("--test-function", required=True,
                   help="Gaussian-sum JSON spec")
    _add_heat_inverse_options(p)
    p.add_argument("--phase-grid", default=None,
                   help='phase grid JSON {"dim","N","L"} (needed for '
                        "coherent combinations with --method "
                        "fourier-regularized)")
    p.add_argument("--out", default="pair-result.json")
    p.set_defaults(handler=_cmd_pair)

    p = sub.add_parser("check", help="run a verification suite")
    p.add_argument("suite", choices=SUITES)
    p.add_argument("--mmax", type=int, default=200,
                   help="max order for hermite-bound")
    p.set_defaults(handler=_cmd_check)
    return parser


def _add_heat_inverse_options(p: argparse.ArgumentParser) -> None:
    """The heat-inverse options ``desmooth`` and ``pair`` share."""
    p.add_argument("--method", default="complex-shift",
                   choices=("complex-shift", "fourier-regularized"))
    p.add_argument("--threshold", type=float, default=1e-12,
                   help="relative spectral cutoff (fourier-regularized)")
    p.add_argument("--strip", type=float, default=3.0,
                   help="strip half-width Y (complex-shift)")
    p.add_argument("--ynodes", type=int, default=64,
                   help="strip quadrature nodes (complex-shift)")


def _run_names(args) -> tuple[str, str]:
    """(report, manifest) file names of a run: ``check-<suite>`` for
    ``check``; for ``pair`` the ``--out`` name and its stem, so each pair
    run keeps its own manifest; else ``<command>-report`` and
    ``<command>``."""
    if args.command == "check":
        name = f"check-{args.suite}"
        return f"{name}.json", f"{name}.manifest.json"
    if args.command == "pair":
        return args.out, f"{Path(args.out).stem}.manifest.json"
    return f"{args.command}-report.json", f"{args.command}.manifest.json"


def _saved_paths(args, outdir: Path) -> list[Path]:
    """The files a command saves besides its report and manifest: the
    ``--out`` manifest and its binary for a field or kernel output, plus
    the CSV of ``smooth --csv``; none for ``pair`` and ``check``."""
    if args.command in ("pair", "check"):
        return []
    path = outdir / args.out
    paths = [path, path.parent / (path.stem + ".bin")]
    if getattr(args, "csv", False):
        paths.append(outdir / (path.stem + ".csv"))
    return paths


def _write_manifest(args, path: Path, inputs: dict, outputs: list[Path],
                    started: float) -> None:
    """The run manifest at ``path``.  Every file read or written is keyed
    by its resolved path relative to the manifest's resolved directory, so
    the keys do not depend on the working directory or on how a path was
    typed."""
    home = path.parent.resolve()

    def key(file) -> str:
        return os.path.relpath(Path(file).resolve(), home)

    manifest = {
        "command": args.command,
        "parameters": {k: v for k, v in vars(args).items()
                       if k not in ("handler",) and not callable(v)},
        "inputs": {key(p): digest for p, digest in inputs.items()},
        "outputs": {key(p): sha256_file(p) for p in outputs},
        "versions": {"awsym": __version__, "numpy": np.__version__,
                     "python": platform.python_version()},
        "wall_time_s": round(time.perf_counter() - started, 6),
    }
    write_json(path, manifest)


def _save_output(obj, args, outdir: Path, outputs: list[Path]) -> None:
    """Save a field or kernel as manifest + binary at ``--out``, register
    both, and export the CSV that ``--csv`` asks for."""
    manifest, binary, *csv = _saved_paths(args, outdir)
    (save_kernel if isinstance(obj, DenseKernel) else save_field)(obj,
                                                                  manifest)
    for path in csv:
        export_csv(obj, path)
    outputs.extend([manifest, binary, *csv])


# ---------------------------------------------------------------------------
# command handlers: return (exit status, report dict)
# ---------------------------------------------------------------------------

def _cmd_smooth(args, outdir, inputs, outputs):
    f = load_field(args.input, inputs)
    if args.csv:
        require_csv_dim(f.grid.dim)
    out = smooth(f)
    _save_output(out, args, outdir, outputs)
    report = {"command": "smooth", "input": args.input,
              "output": args.out,
              "boundary_magnitude": out.boundary_magnitude()}
    return 0, report


def _cmd_desmooth(args, outdir, inputs, outputs):
    if args.method == "fourier-regularized":
        report_obj = desmooth_fourier(load_field(args.input, inputs),
                                      rel_threshold=args.threshold)
    else:
        u = gaussian_from_obj(read_json(args.input, inputs))
        if args.grid:
            grid = grid_from_obj(json.loads(args.grid))
        else:
            grid = make_grid(u.dim, 256, 8.0)
        report_obj = desmooth_complex(u, grid, strip_halfwidth=args.strip,
                                      y_nodes=args.ynodes)
    _save_output(report_obj.result, args, outdir, outputs)
    report = {
        "command": "desmooth",
        "method": report_obj.method,
        "residual": report_obj.residual,
        "cutoff_frequency": report_obj.cutoff_frequency,
        "kept_fraction": report_obj.kept_fraction,
        "peak_log_gain": report_obj.peak_log_gain,
        "boundary_magnitude": report_obj.result.boundary_magnitude(),
        "strip_halfwidth": report_obj.strip_halfwidth,
        "y_nodes": report_obj.y_nodes,
        "output": args.out,
    }
    status = 1 if report_obj.residual > RESIDUAL_FLAG_THRESHOLD else 0
    if status:
        report["flags"] = ["excessive-residual"]
    return status, report


def _cmd_assemble(args, outdir, inputs, outputs):
    symbol = load_field(args.symbol, inputs)
    op = AntiWickFromSymbol(symbol)
    pos = position_grid_of(symbol.grid)
    if args.refined:
        pos = pos.refined()
    kernel = assemble_antiwick(op, pos)
    _save_output(kernel, args, outdir, outputs)
    report = {"command": "antiwick-assemble", "refined": args.refined,
              "kernel_grid": grid_to_obj(pos),
              "output": args.out}
    return 0, report


def _cmd_weyl_from_kernel(args, outdir, inputs, outputs):
    sigma = weyl_from_kernel(load_kernel(args.kernel, inputs))
    _save_output(sigma, args, outdir, outputs)
    report = {"command": "weyl-from-kernel", "output": args.out,
              "phase_grid": grid_to_obj(sigma.grid)}
    return 0, report


def _cmd_kernel_from_weyl(args, outdir, inputs, outputs):
    kernel = kernel_from_weyl(load_field(args.symbol, inputs))
    _save_output(kernel, args, outdir, outputs)
    report = {"command": "kernel-from-weyl", "output": args.out,
              "kernel_grid": grid_to_obj(kernel.grid)}
    return 0, report


def _cmd_pair(args, outdir, inputs, outputs):
    op = operator_from_obj(read_json(args.operator, inputs),
                           Path(args.operator).parent, inputs)
    u = gaussian_from_obj(read_json(args.test_function, inputs))
    phase_grid = grid_from_obj(json.loads(args.phase_grid)) \
        if args.phase_grid else None
    result = antiwick_pair(op, u, method=args.method, phase_grid=phase_grid,
                           rel_threshold=args.threshold,
                           strip_halfwidth=args.strip, y_nodes=args.ynodes)
    report = {
        "command": "pair",
        "value_re": result.value.real,
        "value_im": result.value.imag,
        "method": result.method,
        "residual": result.residual,
        "quadrature_error_estimate": result.quadrature_error_estimate,
        "flags": list(result.flags),
    }
    return (1 if result.flags else 0), report


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

def _cmd_check(args, outdir, inputs, outputs):
    passed, params, values = SUITES[args.suite](args)
    report = {"suite": args.suite, "params": params, "values": values,
              "pass": bool(passed)}
    return (0 if passed else 1), report


def _suite_hermite(args):
    mmax = args.mmax
    if mmax < 0:
        raise ValueError(f"--mmax must be >= 0, got {mmax}")
    margins = [hermite_bound_margin(m) for m in range(mmax + 1)]
    l2max = min(mmax, 60)
    l2 = [hermite_l2_log_margin(m) for m in range(l2max + 1)]
    values = {"min_margin": min(margins), "argmin": int(np.argmin(margins)),
              "min_l2_log_margin": min(l2)}
    return (min(margins) >= 1.0 and min(l2) >= 0.0), {"mmax": mmax}, values


def _suite_gs_constant(args):
    u = gaussian_1d(math.pi)
    est10 = gs_constant(u, 0.5, 0.5, 10, 10)
    est20 = gs_constant(u, 0.5, 0.5, 20, 20)
    est_loose = gs_constant(u, 1.0, 1.0, 10, 10)
    const = AnalyticGaussianSum(1, ((GaussFactor(1.0, 0, 0.0, 0.0),),))
    est_const = gs_constant(const, 0.5, 0.5, 6, 6)
    ratio = est20.a_est / est10.a_est
    ok = (ratio <= 1.25 and est_loose.a_est <= est10.a_est
          and est_const.unbounded)
    values = {"a_orders10": est10.a_est, "a_orders20": est20.a_est,
              "stabilization_ratio": ratio,
              "a_loose": est_loose.a_est,
              "constant_unbounded": est_const.unbounded}
    return ok, {"lambda": 0.5, "mu": 0.5}, values


def _suite_holo(args):
    members = [gaussian_1d(math.pi),
               gaussian_1d(2.0, center=0.5),
               gaussian_1d(1.5, power=1) + gaussian_1d(math.pi, coeff=0.4)]
    ok = True
    values = {}
    for i, u in enumerate(members):
        est = gs_constant(u, 0.5, 0.45, 16, 16)
        res = holo_bound_check(u, WeightParams(0.5, 0.45, est.a_est),
                               4.0, 2.5)
        values[f"member{i}_K"] = res.k_est
        values[f"member{i}_ok"] = res.ok
        ok = ok and res.ok
    grower = AnalyticGaussianSum(1, ((GaussFactor(1.0, 0, -1.0, 0.0),),))
    res_bad = holo_bound_check(grower, WeightParams(0.5, 0.45, 1.0), 4.0, 2.5)
    values["grower_ok"] = res_bad.ok
    ok = ok and not res_bad.ok
    return ok, {"mu": 0.45, "lambda": 0.5}, values


def _suite_espace(args):
    ok = True
    values = {}
    for a in (1.0, math.pi, 5.0):
        r3 = e_space_norm(gaussian_1d(a), 0, 3.0)
        r4 = e_space_norm(gaussian_1d(a), 0, 4.0)
        rel = abs(r4.value - r3.value) / r3.value
        values[f"a{a:.3f}_value"] = r3.value
        values[f"a{a:.3f}_reldiff"] = rel
        ok = ok and not r3.divergent and rel < 0.01
    rdiv = e_space_norm(gaussian_1d(2 * math.pi + 0.1), 0, 3.0)
    values["divergent_flag"] = rdiv.divergent
    ok = ok and rdiv.divergent
    return ok, {"strips": [3.0, 4.0]}, values


def _suite_gevrey(args):
    inputs = [gaussian_1d(math.pi),
              gaussian_1d(1.5, center=0.3) + gaussian_1d(3.0, power=1,
                                                         coeff=0.5),
              gaussian_1d(0.8, power=2)]
    ok = True
    values = {}
    for i, f in enumerate(inputs):
        fit = gevrey_order_estimate(f.smoothed(), 40)
        values[f"input{i}_s"] = fit.s_est
        values[f"input{i}_residual"] = fit.fit_residual
        ok = ok and fit.s_est <= 0.6 and fit.fit_residual < 0.05
    return ok, {"m_max": 40}, values


def _suite_heat_roundtrip(args):
    ok = True
    values = {}
    cases = [(2.0, 256, 8.0, 3.0, 64),
             (math.pi, 256, 8.0, 3.0, 64),
             (4.0, 256, 8.0, 3.0, 64),
             (6.0, 1024, 16.0, 10.0, 256)]
    for a, npts, ell, strip, ynodes in cases:
        g = make_grid(1, npts, ell)
        rep = desmooth_complex(gaussian_1d(a), g, strip, ynodes)
        b = math.pi**2 / a - math.pi / 2.0
        closed = gaussian_1d(math.pi**2 / b,
                             coeff=math.sqrt(math.pi / a)
                             * math.sqrt(math.pi / b))
        err = float(np.max(np.abs(rep.result.values
                                  - sample(closed, g).values)))
        values[f"a{a:.3f}_phi_err"] = err
        values[f"a{a:.3f}_residual"] = rep.residual
        ok = ok and err < 1e-6 and rep.residual < 1e-6
    # smooth -> desmooth round trip through the fourier route
    g = make_grid(1, 256, 8.0)
    f = sample(gaussian_1d(2.0, center=0.5), g)
    rep = desmooth_fourier(smooth(f))
    rt = float(np.max(np.abs(rep.result.values - f.values)))
    values["fourier_roundtrip_err"] = rt
    ok = ok and rt < 1e-8
    return ok, {"widths": [2.0, math.pi, 4.0, 6.0]}, values


def _pairing_families():
    symbols = [radial_gaussian(2, math.pi),
               tensor(gaussian_1d(1.5, center=0.5), gaussian_1d(2.0)),
               tensor(gaussian_1d(2.0, power=2, coeff=0.6),
                      gaussian_1d(1.0, center=-0.4))]
    tests = [radial_gaussian(2, math.pi),
             tensor(gaussian_1d(2.0, center=0.3, power=1), gaussian_1d(3.0)),
             tensor(gaussian_1d(5.0), gaussian_1d(2.5, power=1, coeff=1.1))]
    return symbols, tests


def _suite_pairing(args):
    phase = make_grid(2, 256, 8.0)
    pos = position_grid_of(phase).refined()
    symbols, tests = _pairing_families()
    ok = True
    values = {}
    worst = 0.0
    for i, fsym in enumerate(symbols):
        op = AntiWickFromSymbol(sample(fsym, phase))
        kernel = assemble_antiwick(op, pos)
        for j, u in enumerate(tests):
            res = antiwick_pair(kernel, u)
            ref = antiwick_pair_reference(op.symbol, u)
            rel = abs(res.value - ref) / (1.0 + abs(ref))
            values[f"F{i}_u{j}_rel_err"] = rel
            worst = max(worst, rel)
            ok = ok and rel < 1e-3 and not res.flags
    values["worst_rel_err"] = worst
    return ok, {"grid": {"dim": 2, "N": 256, "L": 8.0},
                "family": "3x3"}, values


# suite name -> runner returning (passed, params, values); the names are the
# choices of ``awsym check``
SUITES = {
    "hermite-bound": _suite_hermite,
    "gs-constant": _suite_gs_constant,
    "holo-bound": _suite_holo,
    "e-space": _suite_espace,
    "gevrey": _suite_gevrey,
    "heat-roundtrip": _suite_heat_roundtrip,
    "pairing-consistency": _suite_pairing,
}


if __name__ == "__main__":
    sys.exit(main())
