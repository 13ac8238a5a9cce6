import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from awsym import (AnalyticGaussianSum, CoherentCombo, SampledField, cli,
                   gaussian_1d, identity_kernel, kernel_from_coherent,
                   kernel_from_weyl, make_grid, radial_gaussian, sample,
                   tensor)
from awsym.fieldio import (gaussian_to_obj, load_field, load_kernel,
                           save_field, save_kernel, sha256_file, write_json)
from test_fieldio import poison_sample


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "awsym.cli", *args],
                          capture_output=True, text=True, cwd=cwd)


@pytest.fixture()
def workdir(tmp_path):
    g = make_grid(1, 256, 8.0)
    save_field(sample(gaussian_1d(2.0, center=0.5), g), tmp_path / "field.json")
    phase = make_grid(2, 256, 8.0)
    save_field(sample(radial_gaussian(2, math.pi), phase), tmp_path / "F.json")
    write_json(tmp_path / "u.json", gaussian_to_obj(radial_gaussian(2, math.pi)))
    write_json(tmp_path / "u7.json", gaussian_to_obj(radial_gaussian(2, 7.0)))
    write_json(tmp_path / "op.json",
               {"type": "antiwick-symbol", "field": "F.json"})
    return tmp_path


def test_smooth_then_desmooth_round_trip(workdir):
    r = run_cli("--outdir", str(workdir), "smooth",
                "--input", str(workdir / "field.json"),
                "--out", "smoothed.json")
    assert r.returncode == 0, r.stderr
    r = run_cli("--outdir", str(workdir), "desmooth",
                "--input", str(workdir / "smoothed.json"),
                "--method", "fourier-regularized", "--out", "back.json")
    assert r.returncode == 0, r.stderr
    a = load_field(workdir / "field.json")
    b = load_field(workdir / "back.json")
    assert np.max(np.abs(a.values - b.values)) < 1e-8
    report = json.loads((workdir / "desmooth-report.json").read_text())
    assert report["residual"] < 1e-8


def test_pair_value_and_exit_codes(workdir):
    r = run_cli("--outdir", str(workdir), "pair",
                "--operator", str(workdir / "op.json"),
                "--test-function", str(workdir / "u.json"),
                "--out", "pr.json")
    assert r.returncode == 0, r.stderr
    report = json.loads((workdir / "pr.json").read_text())
    assert report["value_re"] == pytest.approx(0.5, abs=1e-3)
    assert report["flags"] == []


def test_pair_unit_symbol_integrates_test_function(workdir):
    # F == 1 as a stored ones-field: value must be int u = 1
    phase = make_grid(2, 256, 8.0)
    save_field(SampledField(phase, np.ones(phase.shape)),
               workdir / "one.json")
    write_json(workdir / "op1.json",
               {"type": "antiwick-symbol", "field": "one.json"})
    r = run_cli("--outdir", str(workdir), "pair",
                "--operator", str(workdir / "op1.json"),
                "--test-function", str(workdir / "u.json"),
                "--out", "pr1.json")
    assert r.returncode == 0, r.stderr
    report = json.loads((workdir / "pr1.json").read_text())
    assert report["value_re"] == pytest.approx(1.0, abs=1e-3)


def test_desmooth_complex_shift_via_cli(workdir):
    write_json(workdir / "ags.json",
               gaussian_to_obj(gaussian_1d(math.pi)))
    r = run_cli("--outdir", str(workdir), "desmooth",
                "--input", str(workdir / "ags.json"),
                "--method", "complex-shift",
                "--grid", '{"dim": 1, "N": 256, "L": 8.0}',
                "--strip", "3.0", "--ynodes", "64",
                "--out", "phi.json")
    assert r.returncode == 0, r.stderr
    phi = load_field(workdir / "phi.json")
    g = make_grid(1, 256, 8.0)
    ref = sample(gaussian_1d(2 * math.pi, coeff=math.sqrt(2.0)), g)
    assert np.max(np.abs(phi.values - ref.values)) < 1e-6


def test_smooth_csv_export_2d(workdir, tmp_path):
    phase = make_grid(2, 64, 4.0)
    save_field(sample(radial_gaussian(2, math.pi), phase),
               workdir / "F64.json")
    r = run_cli("--outdir", str(workdir), "smooth",
                "--input", str(workdir / "F64.json"),
                "--out", "sm64.json", "--csv")
    assert r.returncode == 0, r.stderr
    lines = (workdir / "sm64.csv").read_text().splitlines()
    assert lines[0] == "x1,x2,re,im"
    assert len(lines) == 64 * 64 + 1


def test_pair_ill_posed_exits_with_numerical_flag(workdir):
    r = run_cli("--outdir", str(workdir), "pair",
                "--operator", str(workdir / "op.json"),
                "--test-function", str(workdir / "u7.json"),
                "--out", "pr7.json")
    assert r.returncode == 1
    report = json.loads((workdir / "pr7.json").read_text())
    assert "e-space-divergent" in report["flags"]


def test_overflow_guard_exits_with_numerical_flag(tmp_path):
    # white noise keeps every frequency, so the regularized division would
    # need e^{pi xi^2 / 2} up to |xi| = 32 (log magnitude ~1608)
    g = make_grid(1, 1024, 8.0)
    noise = np.random.default_rng(0).standard_normal(g.shape)
    save_field(SampledField(g, noise), tmp_path / "noise.json")
    r = run_cli("--outdir", str(tmp_path), "desmooth",
                "--method", "fourier-regularized",
                "--input", str(tmp_path / "noise.json"))
    assert r.returncode == 1
    assert "Traceback" not in r.stderr
    report = json.loads((tmp_path / "desmooth-report.json").read_text())
    assert report["flags"] == ["floating-point"]
    assert (tmp_path / "desmooth.manifest.json").exists()


@pytest.mark.parametrize("operator", ["op.json", "kernel.json"])
def test_strip_sum_overflow_exits_with_numerical_flag(workdir, operator):
    # every term is finite and strip-integrable (width < 2 pi), but the
    # strip weight integrates to about 4.6, so 1e308 overflows to Inf:
    # the complex-shift pair must flag it, not report NaN with exit 0
    u = tensor(gaussian_1d(6.0, coeff=1e308), gaussian_1d(6.0))
    write_json(workdir / "big.json", gaussian_to_obj(u))
    combo = CoherentCombo(((1.0, (0.0, 0.0), (0.0, 0.0)),))
    save_kernel(kernel_from_coherent(combo, make_grid(1, 256, 8.0).refined()),
                workdir / "K.json")
    write_json(workdir / "kernel.json",
               {"type": "dense-kernel", "manifest": "K.json"})
    r = run_cli("--outdir", str(workdir), "pair",
                "--operator", str(workdir / operator),
                "--test-function", str(workdir / "big.json"),
                "--out", "big-pr.json")
    assert r.returncode == 1
    assert "Traceback" not in r.stderr
    assert "Warning" not in r.stderr
    report = json.loads((workdir / "big-pr.json").read_text())
    assert report["flags"] == ["floating-point"]


def test_desmooth_strip_overflow_prints_no_numpy_warning(tmp_path):
    # the overflowing strip sum is flagged by the CLI's own line only
    write_json(tmp_path / "big.json",
               gaussian_to_obj(gaussian_1d(6.0, coeff=1e308)))
    r = run_cli("--outdir", str(tmp_path), "desmooth",
                "--method", "complex-shift",
                "--input", str(tmp_path / "big.json"),
                "--grid", '{"dim": 1, "N": 256, "L": 8.0}')
    assert r.returncode == 1
    assert "Warning" not in r.stderr
    assert "[awsym] numerical flag" in r.stderr
    report = json.loads((tmp_path / "desmooth-report.json").read_text())
    assert report["flags"] == ["floating-point"]


def test_non_finite_residual_exits_with_numerical_flag(workdir, monkeypatch):
    from awsym import heat
    from test_heat import poison_first_entry

    monkeypatch.setattr(heat, "_smooth_axes",
                        poison_first_entry(heat._smooth_axes))
    assert cli.main(["--outdir", str(workdir), "desmooth",
                     "--method", "fourier-regularized",
                     "--input", str(workdir / "field.json")]) == 1
    report = json.loads((workdir / "desmooth-report.json").read_text())
    assert report["flags"] == ["floating-point"]


def test_lift_past_exp_range_exits_with_residual_flag(tmp_path):
    # kept nodes need e^{pi xi^2 / 2} up to e^715, past exp()'s range,
    # on a spectrum small enough that the guarded product is finite
    g = make_grid(1, 256, 3.0)
    save_field(sample(gaussian_1d(1000.0, coeff=1e-5), g),
               tmp_path / "narrow.json")
    r = run_cli("--outdir", str(tmp_path), "desmooth",
                "--method", "fourier-regularized",
                "--input", str(tmp_path / "narrow.json"))
    assert r.returncode == 1
    report = json.loads((tmp_path / "desmooth-report.json").read_text())
    assert report["flags"] == ["excessive-residual"]
    assert math.isfinite(report["residual"])
    assert np.isfinite(load_field(tmp_path / "desmoothed.json").values).all()


def strip_command(tmp_path, command):
    """Arguments of a complex-shift ``desmooth`` or ``pair`` on 16^2 nodes."""
    phase = make_grid(2, 16, 4.0)
    save_field(sample(radial_gaussian(2, math.pi), phase), tmp_path / "F.json")
    write_json(tmp_path / "op.json",
               {"type": "antiwick-symbol", "field": "F.json"})
    write_json(tmp_path / "u.json", gaussian_to_obj(radial_gaussian(2, 2.0)))
    if command == "desmooth":
        return ["desmooth", "--method", "complex-shift",
                "--input", str(tmp_path / "u.json"),
                "--grid", '{"dim": 2, "N": 16, "L": 4.0}']
    return ["pair", "--operator", str(tmp_path / "op.json"),
            "--test-function", str(tmp_path / "u.json")]


@pytest.mark.parametrize("command,strip", [
    ("desmooth", "nan"), ("desmooth", "inf"), ("desmooth", "-1"),
    ("pair", "nan")])
def test_bad_strip_halfwidth_is_usage_error(tmp_path, capsys, command, strip):
    out = tmp_path / "out"
    args = strip_command(tmp_path, command)
    assert cli.main(["--outdir", str(out), *args, "--strip", strip]) == 2
    assert "strip half-width" in capsys.readouterr().err
    assert not list(out.glob("*.json"))


@pytest.mark.parametrize("command", ["desmooth", "pair"])
def test_too_few_y_nodes_is_usage_error(tmp_path, capsys, command):
    out = tmp_path / "out"
    args = strip_command(tmp_path, command)
    assert cli.main(["--outdir", str(out), *args, "--ynodes", "3"]) == 2
    assert "need at least 4 y nodes" in capsys.readouterr().err
    assert not list(out.glob("*.json"))


@pytest.mark.parametrize("npoints, code", [(8, 2), (16, 0)],
                         ids=["not-self-dual", "self-dual"])
def test_kernel_from_weyl_dim_four(tmp_path, npoints, code):
    sigma = sample(radial_gaussian(4, 2.0), make_grid(4, npoints, 2.0))
    save_field(sigma, tmp_path / "s4.json")
    r = run_cli("--outdir", str(tmp_path), "kernel-from-weyl",
                "--symbol", str(tmp_path / "s4.json"))
    assert r.returncode == code
    assert "Traceback" not in r.stderr
    if code == 0:
        manifest = json.loads((tmp_path / "kernel.json").read_text())
        assert (manifest["dim"], manifest["N"]) == (2, 2 * npoints)
        assert np.array_equal(load_kernel(tmp_path / "kernel.json").matrix,
                              kernel_from_weyl(sigma).matrix)


@pytest.mark.parametrize("dim,npoints", [(1, 7), (3, 8)])
def test_invalid_kernel_manifest_is_rejected(tmp_path, dim, npoints):
    size = npoints**dim
    (tmp_path / "k.bin").write_bytes(np.zeros(size * size, "<c16").tobytes())
    write_json(tmp_path / "k.json",
               {"kind": "dense-kernel", "dim": dim, "N": npoints, "L": 2.0,
                "shape": [size, size], "layout": "row-major",
                "dtype": "complex128-le", "data": "k.bin"})
    with pytest.raises(ValueError):
        load_kernel(tmp_path / "k.json")
    r = run_cli("--outdir", str(tmp_path), "weyl-from-kernel",
                "--kernel", str(tmp_path / "k.json"))
    assert r.returncode == 2
    assert "Traceback" not in r.stderr


def test_non_finite_input_is_usage_error(tmp_path):
    g = make_grid(1, 64, 4.0)
    save_field(sample(gaussian_1d(1.0), g), tmp_path / "f.json")
    poison_sample(tmp_path / "f.bin", 10, complex(np.nan, 0.0))
    r = run_cli("--outdir", str(tmp_path / "out"), "smooth",
                "--input", str(tmp_path / "f.json"))
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    save_kernel(identity_kernel(g), tmp_path / "k.json")
    poison_sample(tmp_path / "k.bin", 3, complex(0.0, np.inf))
    r = run_cli("--outdir", str(tmp_path / "out"), "weyl-from-kernel",
                "--kernel", str(tmp_path / "k.json"))
    assert r.returncode == 2
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("absolute", [False, True])
def test_escaping_data_path_is_usage_error(tmp_path, absolute):
    g = make_grid(1, 64, 4.0)
    save_field(sample(gaussian_1d(1.0), g), tmp_path / "outside.json")
    inner = tmp_path / "inner"
    inner.mkdir()
    manifest = json.loads((tmp_path / "outside.json").read_text())
    manifest["data"] = str(tmp_path / "outside.bin") if absolute \
        else "../outside.bin"
    write_json(inner / "f.json", manifest)
    r = run_cli("--outdir", str(tmp_path / "out"), "smooth",
                "--input", str(inner / "f.json"))
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert not (tmp_path / "out" / "smoothed.json").exists()


def test_escaping_operator_path_is_usage_error(workdir):
    sub = workdir / "sub"
    sub.mkdir()
    write_json(sub / "op.json",
               {"type": "antiwick-symbol", "field": "../F.json"})
    r = run_cli("--outdir", str(workdir / "out"), "pair",
                "--operator", str(sub / "op.json"),
                "--test-function", str(workdir / "u.json"))
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert "lies outside" in r.stderr


@pytest.mark.parametrize("kind, key, stem", [
    ("antiwick-symbol", "field", "F"),
    ("dense-kernel", "manifest", "K")])
def test_pair_manifest_digests_referenced_files(workdir, kind, key, stem):
    if kind == "dense-kernel":
        pos = make_grid(1, 256, 8.0).refined()
        combo = CoherentCombo(((1.0, (0.0, 0.0), (0.0, 0.0)),))
        save_kernel(kernel_from_coherent(combo, pos), workdir / "K.json")
    write_json(workdir / "op-aw.json", {"type": kind, key: f"{stem}.json"})
    r = run_cli("--outdir", str(workdir / "out"), "pair",
                "--operator", str(workdir / "op-aw.json"),
                "--test-function", str(workdir / "u.json"))
    assert r.returncode == 0, r.stderr
    manifest = json.loads(
        (workdir / "out" / "pair-result.manifest.json").read_text())
    digests = {Path(k).name: v for k, v in manifest["inputs"].items()}
    names = ["op-aw.json", f"{stem}.json", f"{stem}.bin", "u.json"]
    assert sorted(digests) == sorted(names)
    for name in names:
        assert digests[name] == sha256_file(workdir / name), name


def test_pair_runs_keep_their_own_manifests(workdir):
    out = workdir / "out"
    args = ["pair", "--operator", str(workdir / "op.json"),
            "--test-function", str(workdir / "u.json")]
    for name in ("a", "b"):
        assert cli.main(["--outdir", str(out), *args,
                         "--out", f"{name}.json"]) == 0
    for name in ("a", "b"):
        manifest = json.loads((out / f"{name}.manifest.json").read_text())
        assert list(manifest["outputs"]) == [f"{name}.json"]
    assert not (out / "pair.manifest.json").exists()


def test_refined_flag_parses_both_ways(tmp_path):
    parser = cli._build_parser()
    base = ["antiwick-assemble", "--symbol", "F.json"]
    assert parser.parse_args(base).refined is True
    assert parser.parse_args(base + ["--refined"]).refined is True
    assert parser.parse_args(base + ["--no-refined"]).refined is False
    phase = make_grid(2, 16, 4.0)
    save_field(sample(radial_gaussian(2, math.pi), phase), tmp_path / "F.json")
    assert cli.main(["--outdir", str(tmp_path), "antiwick-assemble",
                     "--symbol", str(tmp_path / "F.json"),
                     "--no-refined"]) == 0
    report = json.loads(
        (tmp_path / "antiwick-assemble-report.json").read_text())
    assert report["refined"] is False
    assert report["kernel_grid"]["N"] == 16


def test_usage_error_exit_code(tmp_path):
    r = run_cli("--outdir", str(tmp_path), "pair",
                "--operator", str(tmp_path / "missing.json"),
                "--test-function", str(tmp_path / "missing_too.json"))
    assert r.returncode == 2
    r2 = run_cli("check", "not-a-suite")
    assert r2.returncode == 2


@pytest.mark.parametrize("command,spec,option,value", [
    ("desmooth", "u.json", "--input", "[]"),
    ("desmooth", "u.json", "--input", '{"dim":1,"terms":[{"factors":[1]}]}'),
    ("desmooth", "u.json", "--grid", "null"),
    ("desmooth", "u.json", "--grid", "[1]"),
    ("pair", "op.json", "--operator", '{"type":"coherent-combo","terms":5}'),
    ("pair", "op.json", "--operator", "[]"),
    ("pair", "op.json", "--phase-grid", "null")])
def test_malformed_spec_json_is_usage_error(tmp_path, capsys, command, spec,
                                            option, value):
    write_json(tmp_path / "u.json", gaussian_to_obj(gaussian_1d(2.0)))
    write_json(tmp_path / "op.json", {"type": "coherent-combo", "terms": [
        {"c_re": 1.0, "c_im": 0.0, "X": [0.0, 0.0], "Y": [0.0, 0.0]}]})
    args = {"desmooth": ["desmooth", "--input", str(tmp_path / "u.json")],
            "pair": ["pair", "--operator", str(tmp_path / "op.json"),
                     "--test-function", str(tmp_path / "u.json")]}[command]
    if option in ("--input", "--operator"):
        (tmp_path / spec).write_text(value, encoding="utf-8")
    else:
        args += [option, value]
    assert cli.main(["--outdir", str(tmp_path / "out"), *args]) == 2
    assert "malformed" in capsys.readouterr().err


PHASE64 = '{"dim": 2, "N": 64, "L": 4.0}'


def test_pair_ground_projector_in_closed_form(tmp_path):
    # the ground projector's anti-Wick symbol is the point mass at 0
    u = tensor(gaussian_1d(2.0, center=0.3, coeff=0.8 - 0.6j),
               gaussian_1d(3.0, center=-0.2, power=1))
    write_json(tmp_path / "u.json", gaussian_to_obj(u))
    write_json(tmp_path / "op.json", {"type": "coherent-combo", "terms": [
        {"c_re": 1.0, "c_im": 0.0, "X": [0.0, 0.0], "Y": [0.0, 0.0]}]})
    args = ["pair", "--operator", str(tmp_path / "op.json"),
            "--test-function", str(tmp_path / "u.json"),
            "--phase-grid", PHASE64]
    reports = []
    for run in ("a", "b"):
        assert cli.main(["--outdir", str(tmp_path / run), *args]) == 0
        reports.append((tmp_path / run / "pair-result.json").read_bytes())
    assert reports[0] == reports[1]
    report = json.loads(reports[0])
    ref = complex(u(0.0, 0.0))
    assert report["method"] == "closed-form"
    assert report["residual"] == report["quadrature_error_estimate"] == 0.0
    assert report["flags"] == []
    assert abs(report["value_re"] - ref.real) <= 1e-15 * abs(ref.real)
    assert abs(report["value_im"] - ref.imag) <= 1e-15 * abs(ref.imag)


def test_pair_combination_needs_no_phase_grid(tmp_path):
    # the closed form reads no grid: the report is the same without one
    write_json(tmp_path / "u.json", gaussian_to_obj(
        tensor(gaussian_1d(2.0, center=0.3), gaussian_1d(3.0, power=1))))
    write_json(tmp_path / "op.json", {"type": "coherent-combo", "terms": [
        {"c_re": 0.5, "c_im": 0.2, "X": [0.1, -0.3], "Y": [0.4, 0.0]}]})
    args = ["pair", "--operator", str(tmp_path / "op.json"),
            "--test-function", str(tmp_path / "u.json")]
    assert cli.main(["--outdir", str(tmp_path / "a"), *args]) == 0
    assert cli.main(["--outdir", str(tmp_path / "b"), *args,
                     "--phase-grid", PHASE64]) == 0
    assert (tmp_path / "a" / "pair-result.json").read_bytes() \
        == (tmp_path / "b" / "pair-result.json").read_bytes()
    assert cli.main(["--outdir", str(tmp_path / "c"), *args, "--method",
                     "fourier-regularized"]) == 2


def test_empty_gaussian_sum_is_usage_error(tmp_path, capsys):
    write_json(tmp_path / "u1.json", {"dim": 1, "terms": []})
    write_json(tmp_path / "u2.json", {"dim": 2, "terms": []})
    write_json(tmp_path / "op.json", {"type": "coherent-combo", "terms": [
        {"c_re": 1.0, "c_im": 0.0, "X": [0.0, 0.0], "Y": [0.0, 0.0]}]})
    out = tmp_path / "out"
    for args in (["desmooth", "--input", str(tmp_path / "u1.json")],
                 ["pair", "--operator", str(tmp_path / "op.json"),
                  "--test-function", str(tmp_path / "u2.json")]):
        assert cli.main(["--outdir", str(out), *args]) == 2
        assert "terms must list at least one" in capsys.readouterr().err
    assert not list(out.glob("*.json"))


def test_request_too_large_for_memory_is_usage_error(tmp_path, capsys,
                                                      monkeypatch):
    # the library raising MemoryError stands in for a grid too large to
    # allocate; nothing large is ever allocated here
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 16.0 TiB")

    monkeypatch.setattr(cli, "desmooth_complex", no_memory)
    monkeypatch.setattr(AnalyticGaussianSum, "eval_axes", no_memory)
    write_json(tmp_path / "u.json", gaussian_to_obj(radial_gaussian(2, 2.0)))
    write_json(tmp_path / "op.json", {
        "type": "antiwick-symbol", "grid": json.loads(PHASE64),
        "symbol": gaussian_to_obj(radial_gaussian(2, 1.0))})
    out = tmp_path / "out"
    for command, args in (
            ("desmooth", ["--input", str(tmp_path / "u.json"),
                          "--grid", PHASE64]),
            ("pair", ["--operator", str(tmp_path / "op.json"),
                      "--test-function", str(tmp_path / "u.json")])):
        assert cli.main(["--outdir", str(out), command, *args]) == 2
        err = capsys.readouterr().err
        assert f"usage error: {command} needs more memory" in err
        assert "16.0 TiB" in err and "Traceback" not in err
    assert not list(out.glob("*.json"))


@pytest.mark.parametrize("terms, u_dim, message", [
    ([{"X": [0.0, 0.0], "Y": [0.0, 0.0]},
      {"X": [0.0, 0.0, 0.0, 0.0], "Y": [0.0, 0.0, 0.0, 0.0]}], 2,
     "term 1: phase dimension 4 differs"),
    ([{"X": [0.0, 0.0, 0.0, 0.0], "Y": [0.0, 0.0, 0.0, 0.0]}], 2,
     "!= phase dimension 4 of the coherent combination")],
    ids=["mixed-dimensions", "test-function-dimension"])
def test_pair_bad_combination_is_usage_error(tmp_path, capsys, terms, u_dim,
                                             message):
    write_json(tmp_path / "op.json", {"type": "coherent-combo",
                                      "terms": terms})
    write_json(tmp_path / "u.json",
               gaussian_to_obj(radial_gaussian(u_dim, 2.0)))
    out = tmp_path / "out"
    assert cli.main(["--outdir", str(out), "pair",
                     "--operator", str(tmp_path / "op.json"),
                     "--test-function", str(tmp_path / "u.json"),
                     "--phase-grid", PHASE64]) == 2
    assert message in capsys.readouterr().err
    assert not list(out.glob("*.json"))


@pytest.mark.parametrize("command,spec,field", [
    ("pair", '{"type":"coherent-combo","terms":[{"c_re":1.0,'
             '"X":[NaN,0.0],"Y":[0.0,0.0]}]}', "X"),
    ("pair", '{"type":"coherent-combo","terms":[{"c_re":Infinity,'
             '"X":[0.0,0.0],"Y":[0.0,0.0]}]}', "c_re"),
    ("pair", '{"type":"antiwick-symbol","grid":' + PHASE64 + ',"symbol":'
             '{"dim":2,"terms":[{"factors":[{"width":NaN},{"width":1.0}]}]}}',
     "width"),
    ("desmooth", '{"dim":1,"terms":[{"factors":[{"width":1.0,'
                 '"center":NaN}]}]}', "center"),
    ("desmooth", '{"dim":1,"terms":[{"factors":[{"width":1.0,'
                 '"coeff_re":Infinity}]}]}', "coeff_re"),
    ("desmooth", '{"dim":1,"terms":[{"factors":[{"width":1e400}]}]}',
     "width")])
def test_non_finite_spec_number_is_usage_error(tmp_path, capsys, command,
                                               spec, field):
    # json reads NaN, Infinity and 1e400 as non-finite floats; without
    # the parser's check they reach the numerics and exit 1 with a flag
    (tmp_path / "spec.json").write_text(spec, encoding="utf-8")
    write_json(tmp_path / "u.json", gaussian_to_obj(radial_gaussian(2, 2.0)))
    args = {"desmooth": ["desmooth", "--input", str(tmp_path / "spec.json"),
                         "--grid", '{"dim": 1, "N": 64, "L": 4.0}'],
            "pair": ["pair", "--operator", str(tmp_path / "spec.json"),
                     "--test-function", str(tmp_path / "u.json"),
                     "--phase-grid", PHASE64]}[command]
    out = tmp_path / "out"
    assert cli.main(["--outdir", str(out), *args]) == 2
    assert f"{field} must be finite" in capsys.readouterr().err
    assert not list(out.glob("*.json"))


def gauss_spec(dim=1, **factor):
    """A one-factor Gaussian-sum spec with ``dim`` and factor entries set."""
    return json.dumps({"dim": dim,
                       "terms": [{"factors": [{"width": 1.0, **factor}]}]})


GRID64 = {"dim": 1, "N": 64, "L": 4.0}


@pytest.mark.parametrize("where,spec,field", [
    ("gaussian", gauss_spec(dim=1.9), "dim"),
    ("gaussian", gauss_spec(dim="1"), "dim"),
    ("gaussian", gauss_spec(power=1.7), "power"),
    ("gaussian", gauss_spec(power="2"), "power"),
    ("gaussian", gauss_spec(power=True), "power"),
    ("grid", {**GRID64, "dim": 1.9, "N": 64.9}, "dim"),
    ("grid", {**GRID64, "N": 64.9}, "N"),
    ("grid", {**GRID64, "N": "64"}, "N"),
    ("manifest", {"N": 64.9}, "N"),
    ("manifest", {"dim": True}, "dim")])
def test_non_integral_count_is_usage_error(tmp_path, capsys, where, spec,
                                           field):
    # int() used to truncate these: dim 1.9 read as 1, N 64.9 as 64
    assert run_with_bad_spec(tmp_path, where, spec) == 2
    assert f"{field} must be an integer" in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("*.json"))


@pytest.mark.parametrize("where,spec,field", [
    ("gaussian", gauss_spec(width="2.0"), "width"),
    ("gaussian", gauss_spec(center="0.5"), "center"),
    ("gaussian", gauss_spec(coeff_re=True), "coeff_re"),
    ("grid", {**GRID64, "L": "4"}, "L"),
    ("grid", {**GRID64, "L": True}, "L"),
    ("manifest", {"L": "4"}, "L")])
def test_non_numeric_real_field_is_usage_error(tmp_path, capsys, where,
                                               spec, field):
    # float() used to read these: "2.0" as 2.0, "L": true as L = 1
    assert run_with_bad_spec(tmp_path, where, spec) == 2
    assert f"{field} must be a number" in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("*.json"))


def run_with_bad_spec(tmp_path, where, spec) -> int:
    """Exit status of a CLI run given ``spec``: a field manifest's entries
    for ``smooth``, or a Gaussian-sum spec text or grid dict for
    ``desmooth``."""
    if where == "manifest":
        g = make_grid(1, 64, 4.0)
        manifest = save_field(sample(gaussian_1d(1.0), g), tmp_path / "f.json")
        write_json(tmp_path / "f.json", {**manifest, **spec})
        args = ["smooth", "--input", str(tmp_path / "f.json")]
    else:
        gaussian, grid = gauss_spec(), json.dumps(GRID64)
        if where == "gaussian":
            gaussian = spec
        else:
            grid = json.dumps(spec)
        (tmp_path / "u.json").write_text(gaussian, encoding="utf-8")
        args = ["desmooth", "--input", str(tmp_path / "u.json"),
                "--grid", grid]
    return cli.main(["--outdir", str(tmp_path / "out"), *args])


@pytest.mark.parametrize("command", ["weyl-from-kernel", "pair"])
def test_kernel_with_odd_phase_count_is_usage_error(tmp_path, capsys,
                                                    command):
    # an 18-point kernel grid halves to a 9-point phase grid, which used
    # to pass the self-dual check (9 = 4 * 1.5^2) and give a wrong symbol
    save_kernel(identity_kernel(make_grid(1, 18, 1.5)), tmp_path / "k.json")
    write_json(tmp_path / "op.json",
               {"type": "dense-kernel", "manifest": "k.json"})
    write_json(tmp_path / "u.json", gaussian_to_obj(radial_gaussian(2, 3.0)))
    args = {"weyl-from-kernel": ["weyl-from-kernel",
                                 "--kernel", str(tmp_path / "k.json")],
            "pair": ["pair", "--operator", str(tmp_path / "op.json"),
                     "--test-function", str(tmp_path / "u.json")]}[command]
    out = tmp_path / "out"
    assert cli.main(["--outdir", str(out), *args]) == 2
    assert "npoints must be even (got 9)" in capsys.readouterr().err
    assert not list(out.glob("*.json"))


@pytest.mark.parametrize("command", ["smooth", "desmooth"])
def test_deeply_nested_json_is_usage_error(tmp_path, capsys, command):
    # a field manifest for smooth, a Gaussian-sum spec for desmooth
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    assert cli.main(["--outdir", str(tmp_path / "out"), command,
                     "--input", str(deep)]) == 2
    assert "recursion" in capsys.readouterr().err


def test_check_suite_report_shape(tmp_path):
    r = run_cli("--outdir", str(tmp_path), "check", "e-space")
    assert r.returncode == 0, r.stderr
    report = json.loads((tmp_path / "check-e-space.json").read_text())
    assert report["suite"] == "e-space"
    assert report["pass"] is True
    assert "values" in report and "params" in report
    manifest = json.loads((tmp_path / "check-e-space.manifest.json")
                          .read_text())
    assert "wall_time_s" in manifest
    assert manifest["versions"]["awsym"]


def test_outdir_env_var(tmp_path):
    import os
    env = dict(os.environ, AWSYM_OUTDIR=str(tmp_path / "envout"))
    r = subprocess.run([sys.executable, "-m", "awsym.cli", "check",
                        "e-space"], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "envout" / "check-e-space.json").exists()


def test_check_hermite_small(tmp_path):
    r = run_cli("--outdir", str(tmp_path), "check", "hermite-bound",
                "--mmax", "40")
    assert r.returncode == 0, r.stderr
    report = json.loads((tmp_path / "check-hermite-bound.json").read_text())
    assert report["values"]["min_margin"] >= 1.0


def test_negative_mmax_is_usage_error(tmp_path, capsys):
    assert cli.main(["--outdir", str(tmp_path), "check", "hermite-bound",
                     "--mmax", "-1"]) == 2
    assert "--mmax" in capsys.readouterr().err


def test_rerun_outputs_byte_identical(tmp_path):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    for d in (d1, d2):
        r = run_cli("--outdir", str(d), "check", "gevrey")
        assert r.returncode == 0, r.stderr
    assert sha256_file(d1 / "check-gevrey.json") \
        == sha256_file(d2 / "check-gevrey.json")


def test_weyl_pipeline_through_cli(workdir):
    r = run_cli("--outdir", str(workdir), "antiwick-assemble",
                "--symbol", str(workdir / "F.json"), "--out", "K.json")
    assert r.returncode == 0, r.stderr
    r = run_cli("--outdir", str(workdir), "weyl-from-kernel",
                "--kernel", str(workdir / "K.json"), "--out", "sigma.json")
    assert r.returncode == 0, r.stderr
    sigma = load_field(workdir / "sigma.json")
    phase = make_grid(2, 256, 8.0)
    ref = sample(radial_gaussian(2, math.pi).smoothed(), phase)
    q = 64
    sl = (slice(q, 3 * q),) * 2
    assert np.max(np.abs(sigma.values[sl] - ref.values[sl])) < 1e-3
    r = run_cli("--outdir", str(workdir), "kernel-from-weyl",
                "--symbol", str(workdir / "sigma.json"), "--out", "K2.json")
    assert r.returncode == 0, r.stderr
