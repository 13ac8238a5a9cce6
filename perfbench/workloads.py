"""The benchmark workloads: seeded inputs, task cycles and their oracles.

A workload is built once per run from ``--seed`` (all inputs and oracle
values are generated here, before timing starts) and then hands out one
cycle of tasks at a time.  A task is one call into the library, or one
CLI process for ``cli-cold``; its check runs after the timer stops and
uses only numpy and values prepared at set-up, so checks never call into
the code being measured.

Every check reuses the acceptance tolerance of the property it tests.
Two checks have no acceptance counterpart and state their own tolerance
here: ``e_space_norm`` against its closed form (relative 1e-4) and the
direct pairing quadrature against an independent numpy sum (relative
1e-10, i.e. round-off).

Each workload also runs fixed reference cases taken from the acceptance
criteria (A1 vectors, A4 widths, the e-space suite widths).  They carry
the largest discretization error of their workload, so ``max_rel_err``
is the same for every seed unless a change moves the numerics.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from awsym import (AntiWickFromSymbol, CoherentCombo, SampledField,
                   WeightParams, antiwick_pair, antiwick_pair_reference,
                   apply_operator, assemble_antiwick, desmooth_complex,
                   desmooth_fourier, e_space_norm, gaussian_1d,
                   gevrey_order_estimate, gs_constant, hermite_bound_margin,
                   hermite_l2_log_margin, holo_bound_check, kernel_from_weyl,
                   make_grid, position_grid_of, radial_gaussian, sample,
                   smooth, tensor, weyl_from_kernel)
from awsym.fieldio import gaussian_to_obj, save_field, write_json

PI = math.pi
WORKLOADS = ("antiwick-desk", "heat-1024", "diagnostics", "cli-cold")

# Literal acceptance tolerances.
TOL_PAIR = 1e-3          # A5 / pairing-consistency, |v - ref| / (1 + |ref|)
TOL_IDENTITY = 1e-4      # A1, relative L2
TOL_ROUNDTRIP = 1e-10    # A3, entrywise
TOL_WEYL = 1e-3          # A2, sup
TOL_HEAT = 1e-6          # A4 / heat-roundtrip closed forms, sup
TOL_FOURIER = 1e-8       # heat-roundtrip Fourier round trip, sup
TOL_GS_RATIO = 1.25      # gs-constant suite stabilization ratio
TOL_HOLO = 1.10          # A8 strip-bound growth
# Tolerances without an acceptance counterpart.
TOL_ESPACE = 1e-4        # e_space_norm vs closed form, relative
TOL_QUADRATURE = 1e-10   # antiwick_pair_reference vs numpy sum, relative


class OracleMiss(AssertionError):
    """A task output missed its oracle tolerance."""


@dataclass(frozen=True)
class Scale:
    """Grid sizes and probe orders of one benchmark scale."""

    desk_n: int
    desk_l: float
    big_n: int
    big_l: float
    hermite_max: int
    l2_max: int
    gs2d_order: int
    symbol_widths: tuple[float, float]
    symbol_centers: tuple[float, float]
    # symbols that go through desmooth_fourier: the regularized division
    # amplifies round-off by e^{pi |xi|^2 / 2} at the kept cutoff, which
    # grows with the width (width 3 reaches 7e-9 against the 1e-8 bound)
    heat_widths: tuple[float, float]


DESK = Scale(256, 8.0, 1024, 16.0, 200, 60, 10, (1.0, 3.0), (-0.5, 0.5),
             (0.8, 1.2))
# narrower, centred symbols so they decay inside the small box
SELF_CHECK = Scale(64, 4.0, 64, 4.0, 40, 20, 4, (2.2, 3.0), (-0.2, 0.2),
                   (2.2, 3.0))


@dataclass
class Task:
    """One timed call; ``check`` returns a relative error or None."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], float | None]


def within(err: float, tol: float, what: str) -> float:
    if not err < tol:
        raise OracleMiss(f"{what}: {err:.3e} not below {tol:.0e}")
    return err


def sup_err(values: np.ndarray, ref: np.ndarray) -> tuple[float, float]:
    """(absolute sup error, sup error relative to max |ref|)."""
    err = float(np.max(np.abs(values - ref)))
    return err, err / float(np.max(np.abs(ref)))


# ---------------------------------------------------------------------------
# seeded inputs and independent evaluation
# ---------------------------------------------------------------------------

def eval_sum(u, *coords) -> np.ndarray:
    """Plain numpy evaluation of a Gaussian sum at real points."""
    total = 0.0
    for term in u.terms:
        prod = 1.0
        for f, x in zip(term, coords):
            w = np.asarray(x, dtype=float) - f.center
            prod = prod * (f.coeff * w**f.power * np.exp(-f.width * w * w))
        total = total + prod
    return np.asarray(total, dtype=complex)


def on_grid(u, grid) -> np.ndarray:
    return eval_sum(u, *np.meshgrid(*grid.axes(), indexing="ij"))


def desmooth_closed(width: float, center: float = 0.0, coeff=1.0):
    """Closed-form heat inverse of c e^{-a (x-b)^2} (A4)."""
    b = PI**2 / width - PI / 2.0
    return gaussian_1d(PI**2 / b, center=center,
                       coeff=coeff * math.sqrt(PI / width) * math.sqrt(PI / b))


def rand_factor(rng, widths, centers=(-0.5, 0.5), powers=(0,),
                coeffs=(0.5, 1.0)):
    return gaussian_1d(float(rng.uniform(*widths)),
                       center=float(rng.uniform(*centers)),
                       power=int(rng.choice(powers)),
                       coeff=float(rng.uniform(*coeffs)))


def rand_symbol(rng, widths, centers):
    """Two-term phase-space symbol; the term count never depends on the seed."""
    def factor(powers=(0,)):
        return rand_factor(rng, widths, centers, powers)
    return (tensor(factor((0, 1)), factor())
            + tensor(factor(), factor((0, 1))))


def rand_test_function(rng):
    """One product term with every width inside (0, 2 pi)."""
    return tensor(rand_factor(rng, (1.0, 5.0), powers=(0, 1)),
                  rand_factor(rng, (1.0, 5.0), powers=(0, 1)))


A1_POS = make_grid(1, 256, 8.0)
A1_PHASE = make_grid(2, 256, 8.0)
A1_VECTORS = (gaussian_1d(PI),
              gaussian_1d(2.0, center=1.0),
              gaussian_1d(1.0, power=2, coeff=0.7),
              gaussian_1d(0.6, center=-1.5),
              gaussian_1d(3.0, power=1) + gaussian_1d(1.2, coeff=0.3j))
# (width, grid, strip, y nodes) from A4 and the heat-roundtrip suite
A4_CASES = ((2.0, A1_POS, 3.0, 64),
            (PI, A1_POS, 3.0, 64),
            (4.0, A1_POS, 3.0, 64),
            (6.0, make_grid(1, 1024, 16.0), 10.0, 256))
ESPACE_SUITE = ((1.0, 3.0), (PI, 3.0), (5.0, 3.0))


def espace_closed(width: float, strip: float) -> float:
    return (math.sqrt(PI / width) * math.sqrt(PI / (2 * PI - width))
            * math.erf(math.sqrt(2 * PI - width) * strip))


class Workload:
    """Base: ``cycle(k)`` returns the tasks of cycle k; ``close`` cleans up."""

    name = ""
    children_rss = False

    def cycle(self, k: int) -> list[Task]:
        raise NotImplementedError

    def close(self) -> None:
        pass


def quadrature(symbol: SampledField, u) -> complex:
    """Independent numpy form of the direct pairing quadrature."""
    return complex(np.sum(symbol.values * on_grid(u, symbol.grid))
                   * symbol.grid.cell_volume)


def _reference_task(name, symbol: SampledField, u, expect: complex,
                    out: dict, key):
    """Direct quadrature task, checked against ``quadrature``."""
    def run():
        out[key] = antiwick_pair_reference(symbol, u)
        return out[key]

    def check(value):
        return within(abs(value - expect) / abs(expect), TOL_QUADRATURE, name)
    return Task(name, run, check)


def _pair_task(name, get_op, u, refs: dict, key):
    def check(res):
        if res.flags:
            raise OracleMiss(f"{name}: unexpected flags {res.flags}")
        ref = refs[key]
        return within(abs(res.value - ref) / (1.0 + abs(ref)), TOL_PAIR, name)
    return Task(name, lambda: antiwick_pair(get_op(), u), check)


# ---------------------------------------------------------------------------
# antiwick-desk
# ---------------------------------------------------------------------------

class AntiwickDesk(Workload):
    """Refined assembly, Weyl transforms, pairing and operator application."""

    name = "antiwick-desk"
    POOL = 3
    TESTS = 4

    def __init__(self, rng, scale: Scale):
        self.phase = make_grid(2, scale.desk_n, scale.desk_l)
        self.pos = position_grid_of(self.phase)
        self.refined = self.pos.refined()
        self.scale = scale
        self.items = [self._item(rng) for _ in range(self.POOL)]
        self.unit = AntiWickFromSymbol(
            SampledField(A1_PHASE, np.ones(A1_PHASE.shape)))
        self.a1 = [sample(v, A1_POS) for v in A1_VECTORS]

    def _item(self, rng) -> dict:
        fsym = rand_symbol(rng, self.scale.symbol_widths,
                           self.scale.symbol_centers)
        symbol = sample(fsym, self.phase)
        tests = [rand_test_function(rng) for _ in range(self.TESTS)]
        point = tuple(float(v) for v in rng.uniform(-1.0, 1.0, 2))
        probe = rand_test_function(rng)
        # multiplication symbol c + g(x): its anti-Wick operator multiplies
        # by c + (heat-smoothed g), a closed form independent of assembly
        const = float(rng.uniform(0.5, 1.5))
        bump = rand_factor(rng, self.scale.symbol_widths,
                           self.scale.symbol_centers)
        xs = self.phase.meshgrid()[0]
        mult = SampledField(self.phase, const + eval_sum(bump, xs))
        vec = rand_factor(rng, self.scale.symbol_widths,
                          self.scale.symbol_centers, (0, 1))
        nodes = self.pos.axis_nodes()
        vec_vals = eval_sum(vec, nodes)
        return {
            "op": AntiWickFromSymbol(symbol), "symbol": symbol,
            "quad": [quadrature(symbol, u) for u in tests],
            "weyl": on_grid(fsym.smoothed(), self.phase),
            "tests": tests, "combo": CoherentCombo(((1.0, point, point),)),
            "combo_u": probe, "combo_ref": complex(eval_sum(probe, *point)),
            "mult": AntiWickFromSymbol(mult),
            "vec": SampledField(self.pos, vec_vals),
            "mult_ref": vec_vals * (const + eval_sum(bump.smoothed(), nodes)),
        }

    def cycle(self, k: int) -> list[Task]:
        it = self.items[k % self.POOL]
        st: dict = {}

        def assemble():
            st["K"] = assemble_antiwick(it["op"], self.refined)
            return st["K"]

        def check_kernel(kernel):
            if not np.isfinite(kernel.matrix).all():
                raise OracleMiss("assemble: non-finite kernel")
            return None

        def weyl():
            st["sigma"] = weyl_from_kernel(st["K"])
            return st["sigma"]

        def check_weyl(sigma):
            err, rel = sup_err(sigma.values, it["weyl"])
            within(err, TOL_WEYL, "weyl_from_kernel vs smoothed symbol")
            return rel

        def check_roundtrip(kernel):
            err, rel = sup_err(kernel.matrix, st["K"].matrix)
            within(err, TOL_ROUNDTRIP, "kernel_from_weyl round trip")
            return rel

        f = self.a1[k % len(self.a1)]

        def check_identity(out):
            rel = float(np.linalg.norm(out.values - f.values)
                        / np.linalg.norm(f.values))
            return within(rel, TOL_IDENTITY, "unit-symbol identity")

        def check_mult(out):
            rel = float(np.linalg.norm(out.values - it["mult_ref"])
                        / np.linalg.norm(it["mult_ref"]))
            return within(rel, TOL_IDENTITY, "multiplication-symbol identity")

        def check_combo(res):
            ref = it["combo_ref"]
            return within(abs(res.value - ref) / (1.0 + abs(ref)), TOL_PAIR,
                          "coherent projector pairing")

        tasks = [Task("assemble_antiwick", assemble, check_kernel),
                 Task("weyl_from_kernel", weyl, check_weyl)]
        refs: dict = {}
        for j, u in enumerate(it["tests"]):
            tasks.append(_reference_task("antiwick_pair_reference",
                                         it["symbol"], u, it["quad"][j],
                                         refs, j))
            tasks.append(_pair_task("antiwick_pair", lambda: st["K"], u,
                                    refs, j))
        tasks += [
            Task("antiwick_pair_coherent",
                 lambda: antiwick_pair(it["combo"], it["combo_u"],
                                       phase_grid=self.phase), check_combo),
            Task("kernel_from_weyl", lambda: kernel_from_weyl(st["sigma"]),
                 check_roundtrip),
            Task("apply_operator_unit", lambda: apply_operator(self.unit, f),
                 check_identity),
            Task("apply_operator_symbol",
                 lambda: apply_operator(it["mult"], it["vec"]), check_mult),
        ]
        return tasks


# ---------------------------------------------------------------------------
# heat-1024
# ---------------------------------------------------------------------------

class Heat1024(Workload):
    """Heat smoothing and both inverses at N=1024, plus a smoothing pair."""

    name = "heat-1024"
    POOL = 2

    def __init__(self, rng, scale: Scale):
        self.grid = make_grid(2, scale.big_n, scale.big_l)
        self.scale = scale
        self.items = [self._item(rng) for _ in range(self.POOL)]
        self.a4 = []
        for width, grid, strip, ynodes in A4_CASES:
            ref = eval_sum(desmooth_closed(width), grid.axis_nodes())
            self.a4.append((gaussian_1d(width), grid, strip, ynodes, ref))

    def _item(self, rng) -> dict:
        fsym = rand_symbol(rng, self.scale.heat_widths,
                           self.scale.symbol_centers)
        symbol = sample(fsym, self.grid)
        a1, a2 = rng.uniform(1.0, 3.5, 2)
        c1, c2 = rng.uniform(-0.5, 0.5, 2)
        k1, k2 = rng.uniform(0.5, 1.0, 2)
        u = tensor(gaussian_1d(a1, center=c1, coeff=k1),
                   gaussian_1d(a2, center=c2, coeff=k2))
        phi = tensor(desmooth_closed(a1, c1, k1), desmooth_closed(a2, c2, k2))
        test = rand_test_function(rng)
        return {"symbol": symbol, "smoothed": on_grid(fsym.smoothed(),
                                                      self.grid),
                "u": u, "phi": on_grid(phi, self.grid),
                "test": test, "quad": quadrature(symbol, test)}

    def cycle(self, k: int) -> list[Task]:
        it = self.items[k % self.POOL]
        st: dict = {}

        def run_smooth():
            st["s"] = smooth(it["symbol"])
            return st["s"]

        def check_smooth(out):
            err, rel = sup_err(out.values, it["smoothed"])
            within(err, TOL_HEAT, "smooth vs closed form")
            return rel

        def check_fourier(rep):
            err, rel = sup_err(rep.result.values, it["symbol"].values)
            within(err, TOL_FOURIER, "Fourier round trip")
            return rel

        def closed_check(ref, what):
            def check(rep):
                err, rel = sup_err(rep.result.values, ref)
                within(err, TOL_HEAT, what)
                within(rep.residual, TOL_HEAT, what + " residual")
                return rel
            return check

        tasks = [
            Task("smooth", run_smooth, check_smooth),
            Task("desmooth_fourier", lambda: desmooth_fourier(st["s"]),
                 check_fourier),
            Task("desmooth_complex_2d",
                 lambda: desmooth_complex(it["u"], self.grid, 3.0, 64),
                 closed_check(it["phi"], "desmooth_complex 2-d closed form")),
        ]
        for case in (self.a4[(2 * k) % 4], self.a4[(2 * k + 1) % 4]):
            u, grid, strip, ynodes, ref = case
            what = f"desmooth_complex A4 width {u.terms[0][0].width:.3f}"
            tasks.append(Task(
                "desmooth_complex_a4",
                lambda u=u, grid=grid, strip=strip, ynodes=ynodes:
                    desmooth_complex(u, grid, strip, ynodes),
                closed_check(ref, what)))
        refs: dict = {}
        op = AntiWickFromSymbol(it["symbol"])
        tasks.append(_reference_task("antiwick_pair_reference", it["symbol"],
                                     it["test"], it["quad"], refs, 0))
        tasks.append(_pair_task("antiwick_pair", lambda: op, it["test"],
                                refs, 0))
        return tasks


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

class Diagnostics(Workload):
    """gsnorm on seeded Gaussian sums: no FFT, no dense matrix."""

    name = "diagnostics"
    POOL = 3

    def __init__(self, rng, scale: Scale):
        self.scale = scale
        self.items = [self._item(rng) for _ in range(self.POOL)]

    def _item(self, rng) -> dict:
        espace = [(float(rng.uniform(0.5, 4.5)), float(rng.uniform(3.0, 4.0)))
                  for _ in range(2)]
        return {
            "gs1": rand_factor(rng, (1.5, 4.0), powers=(0, 1)),
            "gs2": [tensor(rand_factor(rng, (1.5, 4.0)),
                           rand_factor(rng, (1.5, 4.0))) for _ in range(2)],
            "member": rand_factor(rng, (2.0, 4.0), centers=(-0.5, 0.5)),
            "gevrey": rand_factor(rng, (1.0, 3.5), centers=(-0.5, 0.5),
                                  powers=(0, 1, 2)),
            "espace": list(ESPACE_SUITE) + espace,
            "divergent": 2 * PI + float(rng.uniform(0.05, 1.0)),
        }

    def cycle(self, k: int) -> list[Task]:
        it = self.items[k % self.POOL]
        st: dict = {}
        tasks = []

        def check_margin(margin):
            within(1.0 / margin, 1.0 + 1e-15, "Hermite bound margin >= 1")
            return None

        def check_l2(margin):
            if not margin >= 0.0:
                raise OracleMiss(f"L2 log margin {margin:.3e} < 0")
            return None

        for m in range(self.scale.hermite_max + 1):
            tasks.append(Task("hermite_bound_margin",
                              lambda m=m: hermite_bound_margin(m),
                              check_margin))
        for m in range(self.scale.l2_max + 1):
            tasks.append(Task("hermite_l2_log_margin",
                              lambda m=m: hermite_l2_log_margin(m), check_l2))

        def gs10():
            st["gs10"] = gs_constant(it["gs1"], 0.5, 0.5, 10, 10)
            return st["gs10"]

        def check_finite(est):
            if est.unbounded or not 0.0 < est.a_est < math.inf:
                raise OracleMiss(f"gs_constant estimate {est.a_est}")
            return None

        def check_ratio(est):
            check_finite(est)
            within(est.a_est / st["gs10"].a_est, TOL_GS_RATIO,
                   "gs_constant stabilization ratio")
            return None

        order = self.scale.gs2d_order

        def member_gs():
            st["member"] = gs_constant(it["member"], 0.5, 0.45, 16, 16)
            return st["member"]

        def holo():
            w = WeightParams(0.5, 0.45, st["member"].a_est)
            return holo_bound_check(it["member"], w, 4.0, 2.5)

        def check_holo(res):
            if not res.ok:
                raise OracleMiss("holo_bound_check not ok for a member")
            within(res.k_est / res.k_inner, TOL_HOLO + 1e-12,
                   "strip-bound growth")
            return None

        def check_gevrey(fit):
            within(fit.s_est, 0.6 + 1e-15, "Gevrey order s <= 0.6")
            within(fit.fit_residual, 0.05, "Gevrey fit residual")
            return None

        tasks += [
            Task("gs_constant_1d", gs10, check_finite),
            Task("gs_constant_1d",
                 lambda: gs_constant(it["gs1"], 0.5, 0.5, 20, 20),
                 check_ratio),
            # two 2-d estimates per cycle on a 129-point sup grid, so each
            # run holds more than ten of the workload's slowest task
            *(Task("gs_constant_2d",
                   lambda u=u: gs_constant(u, 0.5, 0.5, order, order,
                                           points_per_axis=129),
                   check_finite) for u in it["gs2"]),
            Task("gs_constant_1d", member_gs, check_finite),
            Task("holo_bound_check", holo, check_holo),
            Task("gevrey_order_estimate",
                 lambda: gevrey_order_estimate(it["gevrey"].smoothed(), 40),
                 check_gevrey),
        ]
        for width, strip in it["espace"]:
            expect = espace_closed(width, strip)

            def check_espace(rep, expect=expect):
                if rep.divergent:
                    raise OracleMiss("e_space_norm flagged a member")
                return within(abs(rep.value - expect) / expect, TOL_ESPACE,
                              "e_space_norm vs closed form")
            tasks.append(Task(
                "e_space_norm",
                lambda w=width, s=strip: e_space_norm(gaussian_1d(w), 0, s),
                check_espace))

        def check_divergent(rep):
            if not (rep.divergent and rep.value == math.inf):
                raise OracleMiss("e_space_norm missed the divergence flag")
            return None
        tasks.append(Task("e_space_norm",
                          lambda: e_space_norm(gaussian_1d(it["divergent"]),
                                               0, 3.0),
                          check_divergent))
        return tasks


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------

def wait_child(proc: subprocess.Popen, timeout: float):
    """Wait for a child and return its resource usage (os.wait4)."""
    box: dict = {}

    def reap():
        _, status, usage = os.wait4(proc.pid, 0)
        box["status"], box["usage"] = status, usage
    reaper = threading.Thread(target=reap, daemon=True)
    reaper.start()
    reaper.join(timeout)
    if reaper.is_alive():
        proc.kill()
        reaper.join()
    proc.returncode = os.waitstatus_to_exitcode(box["status"])
    return box["usage"]


def read_c16(path: Path) -> np.ndarray:
    return np.frombuffer(path.read_bytes(), dtype="<c16")


class CliCold(Workload):
    """One fresh ``python -m awsym.cli`` process per task, desk scale."""

    name = "cli-cold"
    children_rss = True
    TIMEOUT = 120.0

    def __init__(self, rng, scale: Scale, root: Path, env: dict):
        self.env = env
        # set by the traced run: each child then runs cli_child.py and
        # writes its spans to the next file in this directory
        self.spans_dir: Path | None = None
        self.span_files: list[Path] = []
        self.child_script = root / "perfbench" / "cli_child.py"
        self.work = root / ".perfbench_work" / f"cli-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        inputs = self.work / "inputs"
        inputs.mkdir(parents=True)
        self.phase = make_grid(2, scale.desk_n, scale.desk_l)
        self.grid_json = json.dumps({"dim": 2, "N": scale.desk_n,
                                     "L": scale.desk_l})

        fsym = rand_symbol(rng, scale.heat_widths, scale.symbol_centers)
        symbol = sample(fsym, self.phase)
        save_field(symbol, inputs / "F.json")
        u = rand_test_function(rng)
        write_json(inputs / "u.json", gaussian_to_obj(u))
        write_json(inputs / "u7.json",
                   gaussian_to_obj(radial_gaussian(2, 7.0)))
        # complex-shift input: the A4 width-4 axis times a seeded axis
        a2, c2 = float(rng.uniform(1.0, 3.5)), float(rng.uniform(-0.5, 0.5))
        ucs = tensor(gaussian_1d(4.0), gaussian_1d(a2, center=c2))
        write_json(inputs / "ucs.json", gaussian_to_obj(ucs))
        write_json(inputs / "op-aw.json",
                   {"type": "antiwick-symbol", "field": "F.json"})
        self.symbol_vals = symbol.values.ravel()
        self.smoothed = on_grid(fsym.smoothed(), self.phase).ravel()
        self.phi = on_grid(tensor(desmooth_closed(4.0),
                                  desmooth_closed(a2, c2)), self.phase).ravel()
        self.pair_ref = antiwick_pair_reference(symbol, u)
        self.digests: dict[str, str] = {}
        self.chain_dir: Path | None = None
        self.last_usage = None

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def _chain(self, k: int) -> Path:
        if self.chain_dir is not None:
            shutil.rmtree(self.chain_dir, ignore_errors=True)
        self.chain_dir = self.work / f"chain-{k}"
        self.chain_dir.mkdir()
        write_json(self.chain_dir / "op-kernel.json",
                   {"type": "dense-kernel", "manifest": "kernel.json"})
        return self.chain_dir

    def _call(self, argv: list[str]) -> int:
        if self.spans_dir is None:
            runner = [sys.executable, "-m", "awsym.cli"]
        else:
            spans = self.spans_dir / f"{len(self.span_files)}.json"
            self.span_files.append(spans)
            runner = [sys.executable, str(self.child_script), str(spans)]
        proc = subprocess.Popen(runner + ["--outdir", "."] + argv,
                                cwd=self.chain_dir, env=self.env,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        self.last_usage = wait_child(proc, self.TIMEOUT)
        return proc.returncode

    def _same_bytes(self, task: str, outputs: list[str]) -> None:
        for name in outputs:
            digest = hashlib.sha256(
                (self.chain_dir / name).read_bytes()).hexdigest()
            if self.digests.setdefault(f"{task}/{name}", digest) != digest:
                raise OracleMiss(f"{name} differs from the first chain")

    def _task(self, name, argv, outputs, check, want_exit=0) -> Task:
        def run():
            return self._call(argv)

        def verify(code):
            if code != want_exit:
                raise OracleMiss(f"{name}: exit {code}, expected {want_exit}")
            self._same_bytes(name, outputs)
            return check()
        return Task(name, run, verify)

    def _field(self, name: str) -> np.ndarray:
        return read_c16(self.chain_dir / name)

    def _report(self, name: str) -> dict:
        return json.loads((self.chain_dir / name).read_text())

    def cycle(self, k: int) -> list[Task]:
        self._chain(k)
        inp = "../inputs/"

        def check_smooth():
            err, rel = sup_err(self._field("smoothed.bin"), self.smoothed)
            within(err, TOL_HEAT, "smooth vs closed form")
            return rel

        def check_back():
            err, rel = sup_err(self._field("back.bin"), self.symbol_vals)
            within(err, TOL_FOURIER, "Fourier round trip")
            return rel

        def check_phi():
            err, rel = sup_err(self._field("phi.bin"), self.phi)
            within(err, TOL_HEAT, "complex-shift closed form")
            within(self._report("desmooth-report.json")["residual"], TOL_HEAT,
                   "complex-shift residual")
            return rel

        def check_sigma():
            err, rel = sup_err(self._field("sigma.bin"), self.smoothed)
            within(err, TOL_WEYL, "weyl-from-kernel vs smoothed symbol")
            return rel

        def check_kernel2():
            err, rel = sup_err(self._field("kernel2.bin"),
                               self._field("kernel.bin"))
            within(err, TOL_ROUNDTRIP, "kernel round trip")
            return rel

        def check_pair(name):
            def check():
                rep = self._report(name)
                if rep["flags"]:
                    raise OracleMiss(f"{name}: flags {rep['flags']}")
                value = complex(rep["value_re"], rep["value_im"])
                ref = self.pair_ref
                return within(abs(value - ref) / (1.0 + abs(ref)), TOL_PAIR,
                              name)
            return check

        def check_flagged():
            if "e-space-divergent" not in self._report("pair7.json")["flags"]:
                raise OracleMiss("width-7 pair lacks e-space-divergent")
            return None

        return [
            self._task("smooth", ["smooth", "--input", inp + "F.json",
                                  "--out", "smoothed.json"],
                       ["smoothed.json", "smoothed.bin", "smooth-report.json"],
                       check_smooth),
            self._task("desmooth_fourier",
                       ["desmooth", "--method", "fourier-regularized",
                        "--input", "smoothed.json", "--out", "back.json"],
                       ["back.json", "back.bin", "desmooth-report.json"],
                       check_back),
            self._task("desmooth_complex",
                       ["desmooth", "--method", "complex-shift",
                        "--input", inp + "ucs.json", "--grid", self.grid_json,
                        "--out", "phi.json"],
                       ["phi.json", "phi.bin", "desmooth-report.json"],
                       check_phi),
            self._task("antiwick_assemble",
                       ["antiwick-assemble", "--symbol", inp + "F.json",
                        "--out", "kernel.json"],
                       ["kernel.json", "kernel.bin",
                        "antiwick-assemble-report.json"], lambda: None),
            self._task("weyl_from_kernel",
                       ["weyl-from-kernel", "--kernel", "kernel.json",
                        "--out", "sigma.json"],
                       ["sigma.json", "sigma.bin",
                        "weyl-from-kernel-report.json"], check_sigma),
            self._task("kernel_from_weyl",
                       ["kernel-from-weyl", "--symbol", "sigma.json",
                        "--out", "kernel2.json"],
                       ["kernel2.json", "kernel2.bin",
                        "kernel-from-weyl-report.json"], check_kernel2),
            self._task("pair_kernel",
                       ["pair", "--operator", "op-kernel.json",
                        "--test-function", inp + "u.json",
                        "--out", "pair-kernel.json"],
                       ["pair-kernel.json"], check_pair("pair-kernel.json")),
            self._task("pair_symbol",
                       ["pair", "--operator", inp + "op-aw.json",
                        "--test-function", inp + "u.json",
                        "--out", "pair-symbol.json"],
                       ["pair-symbol.json"], check_pair("pair-symbol.json")),
            self._task("pair_width7",
                       ["pair", "--operator", inp + "op-aw.json",
                        "--test-function", inp + "u7.json",
                        "--out", "pair7.json"],
                       ["pair7.json"], check_flagged, want_exit=1),
        ]


def build(name: str, seed: int, scale: Scale, root: Path,
          env: dict) -> Workload:
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    if name == "antiwick-desk":
        return AntiwickDesk(rng, scale)
    if name == "heat-1024":
        return Heat1024(rng, scale)
    if name == "diagnostics":
        return Diagnostics(rng, scale)
    if name == "cli-cold":
        return CliCold(rng, scale, root, env)
    raise ValueError(f"unknown workload {name!r}")
