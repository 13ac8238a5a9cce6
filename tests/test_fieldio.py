import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from awsym import (CoherentCombo, SampledField, gaussian_1d, identity_kernel,
                   make_grid, radial_gaussian, sample, tensor)
from awsym.fieldio import (combo_from_obj, combo_to_obj, export_csv,
                           gaussian_from_obj, gaussian_to_obj, load_field,
                           load_kernel, operator_from_obj, read_json,
                           save_field, save_kernel, sha256_file, write_json)
from awsym.quantize import AntiWickFromSymbol


def test_field_round_trip(tmp_path, grid64):
    f = sample(gaussian_1d(math.pi, coeff=1.0 + 0.5j), grid64)
    manifest = save_field(f, tmp_path / "f.json")
    assert manifest["dtype"] == "complex128-le"
    g = load_field(tmp_path / "f.json")
    assert g.grid == grid64
    assert np.array_equal(g.values, f.values)


def test_field_round_trip_2d(tmp_path, phase64):
    f = sample(radial_gaussian(2, 2.0), phase64)
    save_field(f, tmp_path / "f2.json")
    g = load_field(tmp_path / "f2.json")
    assert np.array_equal(g.values, f.values)


def test_zero_imaginary_parts_load_as_float64(tmp_path, phase64):
    # the stored file is complex; -0.0 counts as zero, and the field holds
    # the real parts' bytes in a C-contiguous float64 array
    re = np.random.default_rng(5).standard_normal(phase64.shape)
    vals = re.astype(complex)
    vals.imag[::3, 1::2] = -0.0
    save_field(SampledField(phase64, vals), tmp_path / "f.json")
    assert np.signbit(np.frombuffer((tmp_path / "f.bin").read_bytes(),
                                    dtype="<f8")[1::2]).any()
    g = load_field(tmp_path / "f.json")
    assert g.values.dtype == np.float64 and g.values.flags.c_contiguous
    assert g.values.tobytes() == re.tobytes()


@pytest.mark.parametrize("at", [0, -1])
def test_one_nonzero_imaginary_part_loads_as_complex(tmp_path, phase64, at):
    re = np.random.default_rng(6).standard_normal(phase64.shape)
    save_field(SampledField(phase64, re), tmp_path / "f.json")
    poison_sample(tmp_path / "f.bin", at, complex(re.flat[at], 1e-300))
    g = load_field(tmp_path / "f.json")
    assert g.values.dtype == np.complex128
    assert g.values.real.tobytes() == re.tobytes()
    assert np.count_nonzero(g.values.imag) == 1
    assert g.values.flat[at].imag == 1e-300


def test_binary_layout_is_interleaved_little_endian(tmp_path, grid64):
    f = sample(gaussian_1d(1.0, coeff=1 - 2j), grid64)
    save_field(f, tmp_path / "f.json")
    raw = np.frombuffer((tmp_path / "f.bin").read_bytes(), dtype="<f8")
    assert raw[0] == f.values[0].real
    assert raw[1] == f.values[0].imag


def test_kernel_round_trip(tmp_path, grid64):
    k = identity_kernel(grid64)
    save_kernel(k, tmp_path / "k.json")
    k2 = load_kernel(tmp_path / "k.json")
    assert k2.grid == grid64
    assert np.array_equal(k2.matrix, k.matrix)
    manifest = json.loads((tmp_path / "k.json").read_text())
    assert manifest["shape"] == [64, 64]


def traced_peak(call):
    """(result, peak traced bytes) of a second ``call()``: the first one
    runs untraced, so lazy imports do not count."""
    call()
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind, save_peak, load_peak", [
    ("real", 1.1, 1.6), ("complex", 0.1, 2.1), ("kernel", 0.1, 2.1)])
def test_save_and_load_copy_once(tmp_path, kind, save_peak, load_peak):
    # peaks in complex 512^2 grids: a save writes the binary from the <c16
    # array itself (a float field's complex copy, 1.0, else no copy); a
    # load holds the file's bytes (1.0) and copies them once, into the real
    # parts (0.5) or the complex samples (1.0), so the result is writable
    grid = make_grid(2, 512, 8.0)
    if kind == "kernel":
        obj, save, load = identity_kernel(make_grid(1, 512, 8.0)), \
            save_kernel, load_kernel
        values = obj.matrix
    else:
        obj = sample(tensor(gaussian_1d(1.5, center=-0.4), gaussian_1d(
            2.5, coeff=0.3 if kind == "real" else 0.3 + 0.2j)), grid)
        save, load, values = save_field, load_field, obj.values
    grids = 16 * 512**2
    _, peak = traced_peak(lambda: save(obj, tmp_path / "f.json"))
    assert peak / grids <= save_peak
    assert (tmp_path / "f.bin").read_bytes() \
        == values.astype("<c16").tobytes()
    out, peak = traced_peak(lambda: load(tmp_path / "f.json"))
    assert peak / grids <= load_peak
    loaded = out.matrix if kind == "kernel" else out.values
    assert loaded.dtype == values.dtype and loaded.flags.writeable
    assert np.array_equal(loaded, values)


def test_loaders_record_what_they_read(tmp_path, grid64):
    save_kernel(identity_kernel(grid64), tmp_path / "k.json")
    write_json(tmp_path / "spec.json", {"a": [1, 2.5]})
    record = {}
    assert read_json(tmp_path / "spec.json", record) == {"a": [1, 2.5]}
    load_kernel(tmp_path / "k.json", record)
    assert {Path(k).name: v for k, v in record.items()} == {
        name: sha256_file(tmp_path / name)
        for name in ("spec.json", "k.json", "k.bin")}


def test_csv_export(tmp_path, grid64):
    f = sample(gaussian_1d(math.pi), grid64)
    export_csv(f, tmp_path / "f.csv")
    lines = (tmp_path / "f.csv").read_text().splitlines()
    assert lines[0] == "x,re,im"
    assert len(lines) == 65
    x, re, im = lines[1].split(",")
    assert float(x) == grid64.axis_nodes()[0]
    assert float(re) == f.values[0].real


def test_csv_export_dim_cap(tmp_path):
    g = make_grid(4, 8, 2.0)
    f = sample(radial_gaussian(4, 1.0), g)
    with pytest.raises(ValueError):
        export_csv(f, tmp_path / "f.csv")


def test_gaussian_spec_round_trip():
    u = tensor(gaussian_1d(2.0, center=0.3, power=1, coeff=0.5 - 1j),
               gaussian_1d(math.pi))
    obj = gaussian_to_obj(u)
    v = gaussian_from_obj(obj)
    z = (np.linspace(-1, 1, 7).astype(complex),) * 2
    np.testing.assert_allclose(v(z[0][:, None], z[1][None, :]),
                               u(z[0][:, None], z[1][None, :]))


def test_combo_round_trip():
    combo = CoherentCombo(((1.5 - 0.5j, (0.0, 1.0), (0.5, -1.0)),))
    back = combo_from_obj(combo_to_obj(combo))
    assert back == combo


def test_operator_from_obj_variants(tmp_path, phase64):
    f = sample(radial_gaussian(2, math.pi), phase64)
    save_field(f, tmp_path / "F.json")
    op1 = operator_from_obj({"type": "antiwick-symbol", "field": "F.json"},
                            tmp_path)
    assert isinstance(op1, AntiWickFromSymbol)
    op2 = operator_from_obj(
        {"type": "antiwick-symbol",
         "grid": {"dim": 2, "N": 64, "L": 4.0},
         "symbol": gaussian_to_obj(radial_gaussian(2, math.pi))}, tmp_path)
    assert np.max(np.abs(op2.symbol.values - f.values)) < 1e-15
    op3 = operator_from_obj(
        {"type": "coherent-combo",
         "terms": [{"c_re": 1.0, "c_im": 0.0, "X": [0, 0], "Y": [0, 0]}]},
        tmp_path)
    assert isinstance(op3, CoherentCombo)
    with pytest.raises(ValueError):
        operator_from_obj({"type": "mystery"}, tmp_path)


def test_digest_and_json_determinism(tmp_path, grid64):
    f = sample(gaussian_1d(math.pi), grid64)
    save_field(f, tmp_path / "a.json")
    save_field(f, tmp_path / "b.json")
    assert sha256_file(tmp_path / "a.bin") == sha256_file(tmp_path / "b.bin")
    write_json(tmp_path / "r1.json", {"b": 2, "a": [1.5, 0.25]})
    write_json(tmp_path / "r2.json", {"a": [1.5, 0.25], "b": 2})
    assert (tmp_path / "r1.json").read_bytes() \
        == (tmp_path / "r2.json").read_bytes()


def poison_sample(bin_path, index, value):
    """Overwrite one complex sample of a stored binary in place."""
    raw = np.frombuffer(bin_path.read_bytes(), dtype="<c16").copy()
    raw[index] = value
    bin_path.write_bytes(raw.tobytes())


@pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(0.0, np.inf)])
def test_non_finite_samples_are_rejected(tmp_path, grid64, bad):
    save_field(sample(gaussian_1d(1.0), grid64), tmp_path / "f.json")
    poison_sample(tmp_path / "f.bin", 5, bad)
    with pytest.raises(ValueError, match="finite"):
        load_field(tmp_path / "f.json")
    save_kernel(identity_kernel(grid64), tmp_path / "k.json")
    poison_sample(tmp_path / "k.bin", 70, bad)
    with pytest.raises(ValueError, match="finite"):
        load_kernel(tmp_path / "k.json")


@pytest.mark.parametrize("absolute", [False, True])
def test_data_path_must_stay_in_manifest_dir(tmp_path, grid64, absolute):
    inner = tmp_path / "inner"
    inner.mkdir()
    save_field(sample(gaussian_1d(1.0), grid64), tmp_path / "outside.json")
    save_kernel(identity_kernel(grid64), tmp_path / "koutside.json")
    for name, stored, loader in (("f.json", "outside.bin", load_field),
                                 ("k.json", "koutside.bin", load_kernel)):
        manifest = json.loads((tmp_path / stored.replace(".bin", ".json"))
                              .read_text())
        manifest["data"] = str(tmp_path / stored) if absolute \
            else "../" + stored
        write_json(inner / name, manifest)
        with pytest.raises(ValueError, match="lies outside"):
            loader(inner / name)


@pytest.mark.parametrize("absolute", [False, True])
def test_operator_paths_must_stay_in_spec_dir(tmp_path, grid64, phase64,
                                              absolute):
    save_field(sample(radial_gaussian(2, math.pi), phase64),
               tmp_path / "F.json")
    save_kernel(identity_kernel(grid64), tmp_path / "kernel.json")
    inner = tmp_path / "inner"
    inner.mkdir()
    for kind, key, name in (("antiwick-symbol", "field", "F.json"),
                            ("dense-kernel", "manifest", "kernel.json")):
        path = str(tmp_path / name) if absolute else "../" + name
        with pytest.raises(ValueError, match="lies outside"):
            operator_from_obj({"type": kind, key: path}, inner)
        # an absolute path inside the spec's directory is accepted
        operator_from_obj({"type": kind, key: str(tmp_path / name)}, tmp_path)


def test_field_and_kernel_manifests_are_not_interchangeable(tmp_path,
                                                            grid64):
    save_field(sample(gaussian_1d(1.0), grid64), tmp_path / "f.json")
    save_kernel(identity_kernel(grid64), tmp_path / "k.json")
    with pytest.raises(ValueError, match="kind"):
        load_kernel(tmp_path / "f.json")
    with pytest.raises(ValueError, match="kind"):
        load_field(tmp_path / "k.json")
