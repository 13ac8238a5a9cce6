"""The CLI contract under malformed manifests and JSON specs.

Each manifest example starts from a valid 8-point field or kernel, breaks
its manifest or binary in one to three ways (wrong grid entries, bad dtype
or kind, short or non-finite binaries, samples scaled until their
transforms overflow, data paths that leave the manifest directory,
manifests that are not JSON objects).  Each spec example starts from a
valid Gaussian-sum, operator or grid JSON and replaces or drops one to
three of its nodes, the whole document included; values drawn include
NaN, +-Infinity and 1e400, which json reads as non-finite floats.  Both
run ``cli.main()`` in process.  The contract: exit 0, 1 or 2, nothing
escapes ``main``, and every exit 1 leaves a report and a run manifest.
A non-finite number in place of any number of a valid spec exits 2.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from awsym import cli, gaussian_1d, identity_kernel, make_grid, sample
from awsym.fieldio import save_field, save_kernel

GRID = make_grid(1, 8, 2.0)
KEYS = ("dim", "N", "L", "dtype", "layout", "kind", "data", "shape")
# stands for the absolute path of a valid binary outside the manifest
# directory, which only exists once the example's directory does
OUTSIDE_ABSOLUTE = "<outside-absolute>"

values = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 4100),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
    st.sampled_from(("complex64-le", "column-major", "dense-kernel",
                     "../missing.bin", "../outside.bin", "f.bin",
                     OUTSIDE_ABSOLUTE)))

mutations = st.one_of(
    st.tuples(st.just("set"), st.sampled_from(KEYS), values),
    st.tuples(st.just("drop"), st.sampled_from(KEYS)),
    st.tuples(st.just("truncate"), st.integers(0, 1100)),
    st.tuples(st.just("poison"), st.integers(0, 63),
              st.sampled_from((complex(np.nan, 0.0), complex(0.0, np.inf),
                               complex(-np.inf, 1.0)))),
    # finite samples whose transforms overflow: a numerical flag, exit 1
    st.tuples(st.just("scale"), st.sampled_from((1e300, 1e306, -1e306))),
    st.tuples(st.just("replace"),
              st.sampled_from(("[]", "3", '"f.bin"', "{", ""))),
)

COMMANDS = {
    "field": [["smooth"], ["desmooth", "--method", "fourier-regularized"]],
    "kernel": [["weyl-from-kernel"]],
}


def build_input(root: Path, kind: str) -> tuple[Path, dict]:
    inner = root / "in"
    inner.mkdir()
    if kind == "field":
        obj, save = sample(gaussian_1d(1.0), GRID), save_field
    else:
        obj, save = identity_kernel(GRID), save_kernel
    save(obj, root / "outside.json")
    manifest = save(obj, inner / "f.json")
    return inner / "f.json", manifest


def apply(mutation, manifest_path: Path, manifest: dict, root: Path):
    """Apply one mutation; returns the manifest (or None once replaced)."""
    op = mutation[0]
    bin_path = manifest_path.parent / "f.bin"
    if op == "set":
        value = mutation[2]
        if value == OUTSIDE_ABSOLUTE:
            value = str(root / "outside.bin")
        if manifest is not None:
            manifest[mutation[1]] = value
    elif op == "drop":
        if manifest is not None:
            manifest.pop(mutation[1], None)
    elif op == "truncate":
        bin_path.write_bytes(bin_path.read_bytes()[:mutation[1]])
    elif op == "scale":
        data = bin_path.read_bytes()
        whole = len(data) // 16 * 16
        with np.errstate(over="ignore", invalid="ignore"):  # repeated scales
            raw = np.frombuffer(data[:whole], dtype="<c16") * mutation[1]
        bin_path.write_bytes(raw.astype("<c16").tobytes() + data[whole:])
    elif op == "poison":
        data = bin_path.read_bytes()
        whole = len(data) // 16 * 16
        raw = np.frombuffer(data[:whole], dtype="<c16").copy()
        if raw.size:
            raw[mutation[1] % raw.size] = mutation[2]
            bin_path.write_bytes(raw.tobytes() + data[whole:])
    else:
        manifest_path.write_text(mutation[1], encoding="utf-8")
        return None
    return manifest


def run_and_check_contract(outdir: Path, args: list[str], report: str):
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(stderr):
        status = cli.main(["--outdir", str(outdir), *args])
    assert status in (0, 1, 2)
    assert "Traceback" not in stderr.getvalue()
    if status == 1:
        assert (outdir / report).exists()
        name = Path(report).stem if args[0] == "pair" else args[0]
        assert (outdir / f"{name}.manifest.json").exists()
    return status


@settings(max_examples=40, deadline=None, derandomize=True)
@given(kind=st.sampled_from(sorted(COMMANDS)), data=st.data(),
       edits=st.lists(mutations, min_size=1, max_size=3))
def test_malformed_manifests_keep_the_cli_contract(kind, data, edits):
    command = data.draw(st.sampled_from(COMMANDS[kind]))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        manifest_path, manifest = build_input(root, kind)
        for mutation in edits:
            manifest = apply(mutation, manifest_path, manifest, root)
        if manifest is not None:
            manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        option = "--input" if kind == "field" else "--kernel"
        run_and_check_contract(root / "out",
                               [*command, option, str(manifest_path)],
                               f"{command[0]}-report.json")


# Valid 2-d specs: the test function, a coherent combination and a
# self-dual phase grid (N = 4 L^2) small enough for every command to be
# quick.  Numbers drawn below stay small, so no mutated grid is large.
SPECS = {
    "gaussian": {"dim": 2, "terms": [{"factors": [
        {"coeff_re": 1.0, "coeff_im": 0.5, "power": 1, "width": 2.0,
         "center": 0.5},
        {"width": 3.0}]}]},
    "operator": {"type": "coherent-combo", "terms": [
        {"c_re": 1.0, "c_im": 0.0, "X": [0.5, 0.0], "Y": [0.0, 0.5]}]},
    "grid": {"dim": 2, "N": 36, "L": 3.0},
}
SPEC_KEYS = ("dim", "terms", "factors", "coeff_re", "coeff_im", "power",
             "width", "center", "type", "c_re", "c_im", "X", "Y", "N", "L",
             "grid", "symbol", "field", "manifest")
# the commands that read each kind of spec
SPEC_COMMANDS = {"gaussian": ("desmooth", "pair"), "operator": ("pair",),
                 "grid": ("desmooth", "pair")}
DROP = object()
# written as the literal 1e400, which json reads as inf
OVERFLOW = "<1e400>"
NON_FINITE = (math.nan, math.inf, -math.inf, OVERFLOW)

json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 40),
              st.floats(-50.0, 50.0),
              st.sampled_from(NON_FINITE + ("coherent-combo",
                                            "antiwick-symbol", "dense-kernel")),
              st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.sampled_from(SPEC_KEYS), inner,
                                            max_size=3)),
    max_leaves=6)


def node_paths(obj, prefix=()):
    """Key/index paths of every node of a JSON value, the root included."""
    yield prefix
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for key, child in items:
        yield from node_paths(child, prefix + (key,))


def leaf(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def replace_node(obj, path, value):
    """obj with the node at path set to value, or removed for DROP."""
    if not path:
        return {} if value is DROP else value
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return obj


def spec_text(obj) -> str:
    return json.dumps(obj).replace(json.dumps(OVERFLOW), "1e400")


def run_spec_command(specs: dict, command: str) -> int:
    """Run ``desmooth`` or ``pair`` on the three specs; the exit status."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name in ("gaussian", "operator"):
            (root / f"{name}.json").write_text(spec_text(specs[name]),
                                               encoding="utf-8")
        grid = spec_text(specs["grid"])
        if command == "desmooth":
            args = ["desmooth", "--input", str(root / "gaussian.json"),
                    "--grid", grid]
        else:
            args = ["pair", "--operator", str(root / "operator.json"),
                    "--test-function", str(root / "gaussian.json"),
                    "--phase-grid", grid]
        report = "desmooth-report.json" if command == "desmooth" \
            else "pair-result.json"
        return run_and_check_contract(root / "out", args, report)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(kind=st.sampled_from(sorted(SPECS)), data=st.data())
def test_malformed_json_specs_keep_the_cli_contract(kind, data):
    command = data.draw(st.sampled_from(SPEC_COMMANDS[kind]))
    specs = json.loads(json.dumps(SPECS))
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(node_paths(specs[kind]))))
        value = data.draw(st.one_of(st.just(DROP), json_values))
        specs[kind] = replace_node(specs[kind], path, value)
    run_spec_command(specs, command)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(kind=st.sampled_from(sorted(SPECS)), data=st.data())
def test_non_finite_spec_numbers_are_usage_errors(kind, data):
    # every number in the valid specs is read, so NaN, +-Infinity or
    # 1e400 in place of any of them is a usage error, not a numerical flag
    command = data.draw(st.sampled_from(SPEC_COMMANDS[kind]))
    specs = json.loads(json.dumps(SPECS))
    numbers = [path for path in node_paths(specs[kind])
               if isinstance(leaf(specs[kind], path), (int, float))]
    for _ in range(data.draw(st.integers(1, 3))):
        specs[kind] = replace_node(specs[kind],
                                   data.draw(st.sampled_from(numbers)),
                                   data.draw(st.sampled_from(NON_FINITE)))
    assert run_spec_command(specs, command) == 2
