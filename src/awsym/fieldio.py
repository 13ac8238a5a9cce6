"""File formats: field manifests, raw binaries, CSV export, and the JSON
mini-formats for Gaussian-sum functions and operator descriptions.

A sampled field on disk is a pair of files: a JSON manifest

    {"dim": d, "N": n, "L": l, "layout": "row-major",
     "dtype": "complex128-le", "data": "<relative path>"}

and a raw binary of interleaved little-endian IEEE-754 doubles (re, im) in
row-major node order.  Dense kernels use the same scheme plus a "shape"
entry [N^n, N^n] and kind tag.  Analytic objects (Gaussian sums, coherent
combinations) are stored as explicit JSON rather than opaque binaries, so
run inputs stay reviewable.  Every loader can record the SHA-256 of each
file it read, which is how a CLI run manifest lists its inputs.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from .core import Grid, SampledField, make_grid, sample
from .gaussians import AnalyticGaussianSum, GaussFactor
from .quantize import (AntiWickFromSymbol, CoherentCombo, DenseKernel,
                       OperatorRep)

__all__ = [
    "save_field", "load_field", "export_csv", "require_csv_dim",
    "save_kernel", "load_kernel",
    "combo_to_obj", "combo_from_obj",
    "gaussian_to_obj", "gaussian_from_obj",
    "operator_from_obj", "grid_from_obj", "grid_to_obj",
    "read_json", "sha256_file", "write_json",
]

_FIELD_DTYPE = "complex128-le"


def write_json(path: Path, obj) -> None:
    """Deterministic JSON: sorted keys, no whitespace drift, newline-terminated."""
    path = Path(path)
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


def _read(path, record) -> bytes:
    """The bytes of ``path``.  When ``record`` is a dict, the SHA-256 of
    those bytes is entered under ``str(path)``: the digest of what was
    read, even if the file is rewritten afterwards."""
    path = Path(path)
    raw = path.read_bytes()
    if record is not None:
        record[str(path)] = hashlib.sha256(raw).hexdigest()
    return raw


def read_json(path, record=None):
    """The JSON value in the UTF-8 file ``path``; ``record`` as in
    :func:`_read`."""
    return json.loads(_read(path, record).decode("utf-8"))


def _json_shape(what: str):
    """Decorator for a parser of outside JSON: a value of the wrong shape
    (a list for an object, a number for a list, null, a missing or
    overflowing entry) raises ValueError naming ``what``."""
    def wrap(parse):
        @functools.wraps(parse)
        def checked(obj, *args, **kwargs):
            try:
                return parse(obj, *args, **kwargs)
            except (TypeError, AttributeError, KeyError,
                    OverflowError) as exc:
                raise ValueError(f"malformed {what} JSON ({exc!r})") from exc
        return checked
    return wrap


def _finite(value, what: str) -> float:
    """value as a float, or ValueError naming ``what`` unless it is a JSON
    number (not a bool or "2.0") and finite (json reads NaN, Infinity and
    overflowing literals such as 1e400 as non-finite floats)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return value


def _integer(value, what: str) -> int:
    """value as an int, or ValueError naming ``what`` unless it is a JSON
    number with an integral value (2 and 2.0; not 1.9, a bool or "2")."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def grid_to_obj(grid: Grid) -> dict:
    return {"dim": grid.dim, "N": grid.npoints, "L": grid.half_extent}


@_json_shape("grid")
def grid_from_obj(obj: dict) -> Grid:
    return make_grid(_integer(obj["dim"], "dim"), _integer(obj["N"], "N"),
                     _finite(obj["L"], "L"))


def _read_binary(path: Path, count: int, record) -> np.ndarray:
    """The ``count`` finite samples of ``path``, a read-only ``<c16`` view
    of its bytes; ``record`` as in :func:`_read`."""
    raw = np.frombuffer(_read(path, record), dtype="<c16")
    if raw.size != count:
        raise ValueError(
            f"{path}: expected {count} complex samples, found {raw.size}")
    if not np.isfinite(raw).all():
        raise ValueError(f"{path}: samples must be finite (found NaN or Inf)")
    return raw


def _inside(base_dir, rel, what: str) -> Path:
    """base_dir / rel resolved; ValueError unless it lies inside base_dir.

    A file named by a manifest or an operator spec is read only from the
    directory that names it (or below), never through "../" or an
    absolute path.
    """
    base = Path(base_dir).resolve()
    if not isinstance(rel, str):
        raise ValueError(f"{what} path must be a string, got {rel!r}")
    path = (base / rel).resolve()
    if not path.is_relative_to(base):
        raise ValueError(f"{what} path {rel!r} lies outside {base}")
    return path


def _read_manifest(manifest_path, kind=None,
                   record=None) -> tuple[Grid, np.ndarray]:
    """Validated grid and flat samples of a field (kind None) or kernel.

    The "data" path must resolve inside the manifest's own directory.
    Both files are recorded as by :func:`_read`.
    """
    manifest_path = Path(manifest_path)
    manifest = read_json(manifest_path, record)
    if not isinstance(manifest, dict) or "data" not in manifest:
        raise ValueError(f"{manifest_path}: not a manifest with a data path")
    if manifest.get("kind") != kind:
        raise ValueError(f"{manifest_path}: kind {manifest.get('kind')!r}, "
                         f"expected {kind!r}")
    if manifest.get("dtype") != _FIELD_DTYPE:
        raise ValueError(f"unsupported dtype {manifest.get('dtype')!r}")
    if manifest.get("layout") != "row-major":
        raise ValueError(f"unsupported layout {manifest.get('layout')!r}")
    try:
        grid = grid_from_obj(manifest)
    except ValueError as exc:
        raise ValueError(f"{manifest_path}: {exc}") from exc
    data = _inside(manifest_path.parent, manifest["data"], "data")
    count = grid.size if kind is None else grid.size ** 2
    return grid, _read_binary(data, count, record)


def _write_manifest(manifest_path, header: dict, values: np.ndarray) -> dict:
    """Write ``values`` as the binary next to ``manifest_path``, then the
    manifest: ``header`` plus layout, dtype and the binary's name.

    The counterpart of :func:`_read_manifest`; returns the manifest.
    """
    manifest_path = Path(manifest_path)
    manifest = {**header, "layout": "row-major", "dtype": _FIELD_DTYPE,
                "data": manifest_path.stem + ".bin"}
    (manifest_path.parent / manifest["data"]).write_bytes(
        np.ascontiguousarray(values, dtype="<c16"))
    write_json(manifest_path, manifest)
    return manifest


def save_field(f: SampledField, manifest_path) -> dict:
    """Write manifest + binary next to each other; returns the manifest."""
    return _write_manifest(manifest_path, grid_to_obj(f.grid), f.values)


def load_field(manifest_path, record=None) -> SampledField:
    """The field of a manifest, a writable C-ordered copy of the samples:
    float64 when every stored imaginary part is zero (-0.0 included), else
    complex128."""
    grid, values = _read_manifest(manifest_path, record=record)
    values = values.reshape(grid.shape)
    values = (values if values.imag.any() else values.real).copy()
    return SampledField(grid, values)


def require_csv_dim(dim: int) -> None:
    """A ``ValueError`` unless ``dim <= 2``, the dimensions CSV exports."""
    if dim > 2:
        raise ValueError("CSV export is limited to dim <= 2")


def export_csv(f: SampledField, path) -> None:
    """Node coordinates + re + im, one row per node in row-major order,
    for dim <= 2 only."""
    require_csv_dim(dim := f.grid.dim)
    header = ["x"] if dim == 1 else ["x1", "x2"]
    columns = [c.ravel().tolist()
               for c in (*f.grid.meshgrid(), f.values.real, f.values.imag)]
    lines = [",".join(header + ["re", "im"])]
    lines += [",".join(map(repr, row)) for row in zip(*columns)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def save_kernel(k: DenseKernel, manifest_path) -> dict:
    return _write_manifest(manifest_path,
                           {"kind": "dense-kernel", **grid_to_obj(k.grid),
                            "shape": list(k.matrix.shape)}, k.matrix)


def load_kernel(manifest_path, record=None) -> DenseKernel:
    grid, values = _read_manifest(manifest_path, kind="dense-kernel",
                                  record=record)
    return DenseKernel(grid, values.reshape(grid.size, grid.size).copy())


# -- analytic objects --------------------------------------------------------

def gaussian_to_obj(u: AnalyticGaussianSum) -> dict:
    return {
        "dim": u.dim,
        "terms": [
            {"factors": [
                {"coeff_re": f.coeff.real, "coeff_im": f.coeff.imag,
                 "power": f.power, "width": f.width, "center": f.center}
                for f in term]}
            for term in u.terms],
    }


@_json_shape("Gaussian-sum")
def gaussian_from_obj(obj: dict) -> AnalyticGaussianSum:
    dim = _integer(obj["dim"], "dim")
    if not obj["terms"]:
        raise ValueError("terms must list at least one product term")
    terms = []
    for term in obj["terms"]:
        factors = tuple(
            GaussFactor(complex(_finite(f.get("coeff_re", 1.0), "coeff_re"),
                                _finite(f.get("coeff_im", 0.0), "coeff_im")),
                        _integer(f.get("power", 0), "power"),
                        _finite(f["width"], "width"),
                        _finite(f.get("center", 0.0), "center"))
            for f in term["factors"])
        terms.append(factors)
    return AnalyticGaussianSum(dim, tuple(terms))


def combo_to_obj(combo: CoherentCombo) -> list:
    return [{"c_re": complex(c).real, "c_im": complex(c).imag,
             "X": list(x), "Y": list(y)} for c, x, y in combo.terms]


@_json_shape("coherent-combination")
def combo_from_obj(obj: list) -> CoherentCombo:
    terms = tuple(
        (complex(_finite(t.get("c_re", 1.0), "c_re"),
                 _finite(t.get("c_im", 0.0), "c_im")),
         tuple(_finite(v, "X") for v in t["X"]),
         tuple(_finite(v, "Y") for v in t["Y"]))
        for t in obj)
    return CoherentCombo(terms)


@_json_shape("operator")
def operator_from_obj(obj: dict, base_dir: Path,
                      record=None) -> OperatorRep:
    """Operator description used by the CLI.

    Recognized "type" values:
      * "antiwick-symbol":   {"symbol": <gaussian obj>, "grid": {...}}
                             or {"field": "<manifest path>"}
      * "coherent-combo":    {"terms": [{c_re, c_im, X, Y}, ...]}
      * "dense-kernel":      {"manifest": "<manifest path>"}

    Files a spec points to are recorded as they are read (see
    :func:`_read_manifest`).
    """
    kind = obj.get("type")
    if kind == "antiwick-symbol":
        if "field" in obj:
            return AntiWickFromSymbol(
                load_field(_inside(base_dir, obj["field"], "field"), record))
        grid = grid_from_obj(obj["grid"])
        symbol = gaussian_from_obj(obj["symbol"])
        return AntiWickFromSymbol(sample(symbol, grid))
    if kind == "coherent-combo":
        return combo_from_obj(obj["terms"])
    if kind == "dense-kernel":
        return load_kernel(_inside(base_dir, obj["manifest"], "manifest"),
                           record)
    raise ValueError(f"unknown operator type {kind!r}")
