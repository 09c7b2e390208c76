#!/usr/bin/env python3
"""kcone benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload deep-rank2 --seed 1 --seconds 35 --trace 0

Workloads (each runs in this one process; see README.md for why):

- ``deep-rank2``: ``kcone basis`` in-process on A2@200, B2@64 and G2@32.
- ``wide-rank3``: ``kcone basis A1xA1xA1 --bound-sq 2``.
- ``acycle-batch``: ``full_basis(A2, 50)``, then seeded virtual modules
  through module_to_kclass -> express_in_geometric_basis -> associated_cycle.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced pass, and the spans
go to ``perfbench/out/``.  Metric names and units come from BENCHMARK.json.
Every operation's output is checked outside the timed region; a mismatch or
an exception counts as failed and does not stop the run.

The host's speed drifts, so times are taken two ways.  Each basis call is
repeated for the whole run and counts with the median of its repeats.  The
short, single-threaded acycle-batch calls are scaled by a calibration loop
timed around each one (see Clock).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import inspect
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from tracer import Hook, Tracer, layer_totals, per_orbit_stages, span_records

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

BASIS_CASES = {  # (type, bound^2) per `kcone basis` call
    "deep-rank2": (("A2", 200), ("B2", 64), ("G2", 32)),
    "wide-rank3": (("A1xA1xA1", 2),),
}
ACYCLE_TYPE = "A2"
ACYCLE_BOUND = 50
ACYCLE_MODULES = 120  # p90 then has at least ten samples beyond it
ACYCLE_BUILDS = 15  # basis builds per untraced run; basis_s is their median
SETUP_REPS = 21  # fresh processes per run; setup_s is their median
MIN_REPEATS = 2  # each basis call runs at least this often per untraced run
CALIB_REF_S = 0.003  # scaled times are at the speed where calibrate() takes this

# on acycle-batch an operation is one module query
ACYCLE_ALIASES = {
    "op_p50_ms": "acycle_p50_ms",
    "op_p90_ms": "acycle_p90_ms",
    "ops_per_s": "acycle_per_s",
}

PROBE_MODULE = [
    {"coef": 1, "lambda_l": [0], "lambda_r": [0]},
    {"coef": -1, "lambda_l": [1], "lambda_r": [1]},
]

SETUP_SNIPPET = """
import sys, time
t0 = time.perf_counter()
import kcone
for label in sys.argv[1:]:
    rd = kcone.build_root_datum(label)
    kcone.closure_poset(rd, kcone.classify_orbits(rd))
print(time.perf_counter() - t0)
"""


def calibrate() -> float:
    """Fastest of three runs of a fixed pure-Python integer and Fraction loop.

    It uses the interpreter paths of kcone's kernels (small-int arithmetic,
    gcd, dict updates, Fraction sums) and takes about 3 ms.
    """
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc: dict[int, int] = {}
        frac = Fraction(0)
        for i in range(600):
            row = [(i * 7919 + j * 104729) % 1009 - 504 for j in range(12)]
            g = 0
            for x in row:
                g = math.gcd(g, x)
            acc[i & 63] = acc.get(i & 63, 0) + g
            if i % 8 == 0:
                frac += Fraction(row[0], row[1] or 1)
        best = min(best, time.perf_counter() - t0)
    return best


class Clock:
    """Scales a short single-threaded call's wall time by the host's speed.

    On a shared host the speed of identical single-threaded work drifts by
    a third or more within tens of seconds.  scale(dt) takes a calibration
    right after the call and returns dt * CALIB_REF_S / (mean of the
    calibrations just before and just after it): the call's time on a host
    where calibrate() takes CALIB_REF_S.  It suits calls much shorter than
    the drift; the seconds-long, pooled basis calls use the median of
    their repeats instead.
    """

    def __init__(self) -> None:
        calibrate()  # let the interpreter specialise the loop first
        self.last = calibrate()

    def scale(self, dt: float) -> float:
        now = calibrate()
        speed = (self.last + now) / 2
        self.last = now
        return dt * CALIB_REF_S / speed


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _weights(args, kwargs, result):
    return {"weights": len(result)}


def _orbital(args, kwargs, result):
    return {
        "orbit": _arg(args, kwargs, 1, "orbit").id,
        "boundary_rows": len(_arg(args, kwargs, 2, "boundary_basis")),
        "vectors": len(result),
    }


def _hnf(args, kwargs, result):
    return {
        "rows_in": len(_arg(args, kwargs, 1, "vectors")),
        "certified": len(result.certified),
        "provisional": len(result.provisional),
    }


def _full(args, kwargs, result):
    return {
        "type": result.type_label,
        "norm_constant": float(result.norm_constant),
        "support_window_sq": float(result.support_window_sq),
        "vectors": len(result.all_vectors()),
        "certified": len(result.certified_vectors()),
    }


HOOKS = [
    Hook("rootdata.enumerate_levi_dominant", ("kcone.orbitalg.enumerate_levi_dominant",), _weights),
    Hook(
        "rootdata.enumerate_dominant",
        ("kcone.ktheory.enumerate_dominant", "kcone.assocvar.enumerate_dominant"),
        _weights,
    ),
    Hook("nilpotent.classify_orbits", ("kcone.orbitalg.classify_orbits",)),
    Hook("nilpotent.closure_poset", ("kcone.orbitalg.closure_poset",)),
    Hook("nilpotent.grading_data", ("kcone.orbitalg.grading_data",)),
    Hook("repcalc.weyl_dim", ("kcone.ktheory.weyl_dim",)),
    Hook("ktheory.pushforward", ("kcone.orbitalg.pushforward",), lambda a, k, r: {"terms": len(r.coeffs)}),
    Hook("ktheory.hnf_certified_split", ("kcone.orbitalg.hnf_certified_split",), _hnf),
    Hook("ktheory.flatten_kclass", ("kcone.orbitalg.flatten_kclass", "kcone.assocvar.flatten_kclass")),
    Hook("orbitalg.spanning_set", ("kcone.orbitalg.spanning_set",), lambda a, k, r: {"out": len(r)}),
    Hook("orbitalg.orbital_basis", ("kcone.orbitalg.orbital_basis",), _orbital),
    Hook("orbitalg.full_basis", ("kcone.orbitalg.full_basis", "kcone.cli.full_basis"), _full),
    Hook("assocvar.module_to_kclass", ("kcone.assocvar.module_to_kclass", "kcone.cli.module_to_kclass")),
    Hook(
        "assocvar.express_in_geometric_basis",
        ("kcone.assocvar.express_in_geometric_basis", "kcone.cli.express_in_geometric_basis"),
    ),
    Hook("assocvar.associated_cycle", ("kcone.assocvar.associated_cycle", "kcone.cli.associated_cycle")),
    Hook("cli.main", ("kcone.cli.main",)),
]


class Checker:
    """Counts attempted and failed operations; failures never abort the run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAILED {what}: {detail}", file=sys.stderr)
        return ok

    def exception(self, what: str) -> None:
        self.record(False, what, traceback.format_exc(limit=3))


class Bench:
    def __init__(self, args, kc, digests: dict) -> None:
        self.args = args
        self.kc = kc  # the kcone package; functions are looked up at call time
        self.digests = digests
        self.check = Checker()
        self.rng = random.Random(args.seed)
        self.unhooked: list[str] = []
        self.stdout_bytes = 0
        self.clock = Clock()

    # -- basis workloads --------------------------------------------------

    def basis_call(self, label: str, bound: int):
        """One in-process ``kcone basis`` call; returns its time, or None if it failed."""
        argv = ["basis", label, "--bound-sq", str(bound)]
        return self.cli_call(argv, " ".join(argv))

    def probe(self) -> None:
        """``kcone acycle A1 --bound-sq 16`` on the trivial module: a few ms in every layer."""
        OUT.mkdir(exist_ok=True)
        path = OUT / "probe-module.json"
        path.write_text(json.dumps({"standards": PROBE_MODULE}))
        argv = ["acycle", "A1", "--bound-sq", "16", "--module", str(path)]
        self.cli_call(argv, "acycle A1 --bound-sq 16 (trivial module)")

    def cli_call(self, argv: list[str], key: str):
        """Time ``kcone.cli.main(argv)``; its stdout must match the digest under key."""
        buf = io.StringIO()
        gc.collect()  # so no call pays for collecting an earlier call's garbage
        try:
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                rc = self.kc.cli.main(argv)
            dt = time.perf_counter() - t0
        except Exception:  # noqa: BLE001 - count the failure, keep running
            self.check.exception(key)
            return None
        out = buf.getvalue().encode()
        self.stdout_bytes += len(out)
        digest = hashlib.sha256(out).hexdigest()
        expected = self.digests["cli_stdout"][key]
        ok = self.check.record(
            rc == 0 and digest == expected, key, f"exit {rc}, stdout sha256 {digest}"
        )
        return dt if ok else None

    def basis_pass(self, cases) -> tuple[float, dict]:
        """Run the cases in seeded order: total time, and each case's time or None."""
        order = list(cases)
        self.rng.shuffle(order)
        total, times = 0.0, {}
        for case in order:
            t0 = time.perf_counter()
            times[case] = self.basis_call(*case)
            total += time.perf_counter() - t0 if times[case] is None else times[case]
        return total, times

    def serial_baseline(self, cases) -> float:
        """Untraced ``full_basis(rd, N, workers=1)``: each case's fastest repeat, summed."""
        full_basis = self.kc.orbitalg.full_basis
        serial = "workers" in inspect.signature(full_basis).parameters
        if not serial and "kcone.orbitalg.full_basis(workers=)" not in self.unhooked:
            self.unhooked.append("kcone.orbitalg.full_basis(workers=)")
        total = 0.0
        for label, bound in cases:
            rd = self.kc.rootdata.build_root_datum(label)
            times = []
            for _ in range(MIN_REPEATS):
                gc.collect()
                t0 = time.perf_counter()
                if serial:
                    full_basis(rd, bound, workers=1)
                else:
                    full_basis(rd, bound)
                times.append(time.perf_counter() - t0)
            total += min(times)
        return total

    # -- acycle-batch -----------------------------------------------------

    def acycle_build(self):
        """full_basis(A2, 50) and its digest check; returns it (or None) and its scaled time."""
        rd = self.kc.rootdata.build_root_datum(ACYCLE_TYPE)
        gc.collect()
        t0 = time.perf_counter()
        try:
            basis = self.kc.orbitalg.full_basis(rd, ACYCLE_BOUND)
        except Exception:  # noqa: BLE001
            self.check.exception(f"full_basis {ACYCLE_TYPE} {ACYCLE_BOUND}")
            return None, self.clock.scale(time.perf_counter() - t0)
        dt = self.clock.scale(time.perf_counter() - t0)
        digest = basis_digest(basis)
        key = f"{ACYCLE_TYPE} {ACYCLE_BOUND}"
        ok = self.check.record(
            digest == self.digests["full_basis"][key], f"full_basis {key}", f"sha256 {digest}"
        )
        return (basis if ok else None), dt

    def make_modules(self) -> list:
        """Seeded virtual modules: 1-4 standard terms, coefficients in {+-1, +-2}."""
        rootdata = self.kc.rootdata
        rd = rootdata.build_root_datum(ACYCLE_TYPE)
        modules = []
        for _ in range(ACYCLE_MODULES):
            terms = []
            for _ in range(self.rng.randint(1, 4)):
                while True:
                    lam_l = (self.rng.randint(-5, 5), self.rng.randint(-5, 5))
                    lam_r = (self.rng.randint(-5, 5), self.rng.randint(-5, 5))
                    gamma = (lam_l[0] + lam_r[0], lam_l[1] + lam_r[1])
                    if a2_norm_sq(gamma) <= ACYCLE_BOUND:
                        break
                dominant = rootdata.dominant_conjugate(rd, gamma)
                assert rootdata.weight_norm_sq(rd, dominant) <= ACYCLE_BOUND, (gamma, dominant)
                terms.append((self.rng.choice((-2, -1, 1, 2)), lam_l, lam_r))
            modules.append(self.kc.assocvar.VirtualModule(terms=tuple(terms)))
        return modules

    def acycle_query(self, rd, basis, vm):
        """One module's associated cycle; returns its scaled time, or None if it failed."""
        assocvar = self.kc.assocvar
        try:
            t0 = time.perf_counter()
            kc = assocvar.module_to_kclass(rd, vm)
            coords = assocvar.express_in_geometric_basis(rd, kc, basis)
            cycle = assocvar.associated_cycle(coords, basis.poset)
            dt = time.perf_counter() - t0
        except Exception:  # noqa: BLE001
            self.check.exception(f"acycle {vm.terms}")
            self.clock.scale(0.0)
            return None
        dt = self.clock.scale(dt)
        ktheory = self.kc.ktheory
        total = ktheory.KClass(())
        for v, n in coords.items():
            total = ktheory.kclass_add(total, ktheory.kclass_scale(v.kclass, n))
        ok = total.coeffs == kc.coeffs and all(
            mult == sum(n * v.rank for v, n in coords.items() if v.orbit_id == z)
            for z, mult in cycle.components
        )
        return dt if self.check.record(ok, f"acycle {vm.terms}", "reconstruction mismatch") else None

    def acycle_pass(self, modules) -> float:
        """One basis build and one query of every module; returns the build time."""
        basis, build_s = self.acycle_build()
        rd = self.kc.rootdata.build_root_datum(ACYCLE_TYPE)
        for vm in modules if basis is not None else ():
            self.acycle_query(rd, basis, vm)
        return build_s


def a2_norm_sq(w) -> Fraction:
    """<w, w> for A2 in fundamental-weight coordinates, roots of norm^2 2."""
    a, b = w
    return Fraction(2 * (a * a + a * b + b * b), 3)


def basis_digest(basis) -> str:
    rows = [
        [
            v.orbit_id,
            v.index,
            v.certified,
            v.rank,
            [[list(w), c] for w, c in v.kclass.coeffs],
            [[list(w), n] for w, n in v.combination],
        ]
        for v in basis.all_vectors()
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure_setup(types) -> float:
    """Median time of cold import + root datum + orbits + closure order.

    Each sample is a fresh process, timed inside that process.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, *types],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def src_line_count() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "kcone").glob("*.py")))


def cli_workers(kc, unhooked: list[str]) -> int:
    try:
        return kc.cli.RunConfig(type_label="A2").workers()
    except (AttributeError, TypeError):
        unhooked.append("kcone.cli.RunConfig.workers")
        return 1


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics


def median_repeats(runs: list[list]) -> list[float]:
    """Per operation, the median of its successful repeats.

    The host's speed drifts in phases of several seconds, so the fastest
    repeat is a tail sample that depends on whether the run caught a fast
    phase; the median of the repeats over the whole run is steadier.
    """
    out = []
    for repeats in zip(*runs):
        ok = [dt for dt in repeats if dt is not None]
        if ok:
            out.append(statistics.median(ok))
    return out


def plain_run(bench: Bench, workload: str, types) -> tuple[dict, dict]:
    seconds = bench.args.seconds
    t_start = time.perf_counter()
    if workload == "acycle-batch":
        modules = bench.make_modules()
        builds = [bench.acycle_build() for _ in range(ACYCLE_BUILDS)]
        basis = builds[-1][0]
        basis_s = statistics.median(dt for _, dt in builds)
        rd = bench.kc.rootdata.build_root_datum(ACYCLE_TYPE)
        ops, n = [], 0
        while basis is not None and (
            n < len(modules) or time.perf_counter() - t_start < seconds
        ):
            dt = bench.acycle_query(rd, basis, modules[n % len(modules)])
            n += 1
            if dt is not None:
                ops.append(dt)
        info = {"modules": len(modules), "queries": n}
    else:
        cases = BASIS_CASES[workload]
        runs, pass_s = [], 0.0
        # another pass runs while it would end nearer to --seconds than stopping now
        while len(runs) < MIN_REPEATS or time.perf_counter() - t_start + pass_s / 2 < seconds:
            t0 = time.perf_counter()
            _, times = bench.basis_pass(cases)
            pass_s = time.perf_counter() - t0
            runs.append([times[case] for case in cases])
        ops = median_repeats(runs)
        basis_s = sum(ops)
        info = {"passes": len(runs)}
    info["op_samples"] = len(ops)
    values = {
        "setup_s": measure_setup(types),
        "basis_s": basis_s,
        "op_p50_ms": 1000 * statistics.median(ops) if ops else 0.0,
        "op_p90_ms": 1000 * percentile(ops, 0.9) if ops else 0.0,
        "ops_per_s": len(ops) / sum(ops) if ops else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return values, info


# ---------------------------------------------------------------------------
# traced run: per-layer metrics


def layer_metrics(spans) -> dict:
    totals = layer_totals(spans)

    def get(name: str, key: str) -> float:
        return float(totals.get(name, {}).get(key, 0))

    out = {}
    for name, keys in [
        ("rootdata.enumerate_levi_dominant", ("s", "weights")),
        ("rootdata.enumerate_dominant", ("s", "weights")),
        ("nilpotent.classify_orbits", ("s",)),
        ("nilpotent.closure_poset", ("s",)),
        ("nilpotent.grading_data", ("s",)),
        ("repcalc.weyl_dim", ("s", "calls")),
        ("ktheory.pushforward", ("s", "calls", "terms")),
        ("ktheory.hnf_certified_split", ("s", "self_s", "rows_in", "certified", "provisional")),
        ("ktheory.flatten_kclass", ("s",)),
        ("orbitalg.spanning_set", ("s", "self_s")),
        ("orbitalg.orbital_basis", ("s", "self_s", "boundary_rows")),
        ("orbitalg.full_basis", ("s",)),
        ("assocvar.module_to_kclass", ("s",)),
        ("assocvar.express_in_geometric_basis", ("s", "self_s")),
        ("assocvar.associated_cycle", ("s",)),
        ("cli.main", ("s", "self_s")),
    ]:
        for key in keys:
            out[f"{name}.{key}"] = get(name, key)

    stages = per_orbit_stages(spans)
    out["orbitalg.orbital_basis.dedup_dropped"] = float(
        sum(
            r["spanning_set.out"] - r["hnf_certified_split.rows_in"]
            for r in stages
            if "spanning_set.out" in r and "hnf_certified_split.rows_in" in r
        )
    )
    offered = get("ktheory.hnf_certified_split", "certified") + get(
        "ktheory.hnf_certified_split", "provisional"
    )
    out["orbitalg.orbital_basis.kept_ratio"] = (
        get("orbitalg.orbital_basis", "vectors") / offered if offered else 0.0
    )
    vectors = get("orbitalg.full_basis", "vectors")
    out["orbitalg.certified_ratio"] = (
        get("orbitalg.full_basis", "certified") / vectors if vectors else 0.0
    )
    out["orbitalg.norm_constant"] = get("orbitalg.full_basis", "norm_constant")
    out["orbitalg.support_window_sq"] = get("orbitalg.full_basis", "support_window_sq")
    # orbital_basis self time (dedup + boundary test) plus the two stages it
    # calls should cover full_basis; the rest is grading, flattening and the
    # closure-order loop
    full_s = out["orbitalg.full_basis.s"]
    stages_s = (
        out["orbitalg.orbital_basis.self_s"]
        + out["ktheory.hnf_certified_split.s"]
        + out["orbitalg.spanning_set.s"]
    )
    out["orbitalg.full_basis.stage_frac"] = stages_s / full_s if full_s else 0.0
    return out


def traced_run(bench: Bench, workload: str) -> tuple[dict, dict]:
    """One untraced pass, then one traced pass whose spans give the layers.

    The pass is the workload's basis calls, or for acycle-batch one basis
    build and one query of every module.  The traced pass ends with the
    probe, so no layer reads a constant zero on any workload.
    """
    modules = bench.make_modules() if workload == "acycle-batch" else None

    def one_pass() -> float:
        if modules is not None:
            return bench.acycle_pass(modules)
        return bench.basis_pass(BASIS_CASES[workload])[0]

    serial_s = bench.serial_baseline(BASIS_CASES.get(workload, ((ACYCLE_TYPE, ACYCLE_BOUND),)))
    untraced_s = one_pass()
    bench.stdout_bytes = 0
    tracer = Tracer()
    tracer.install(HOOKS)
    try:
        traced_s = one_pass()
        bench.probe()
    finally:
        tracer.uninstall()
    bench.unhooked.extend(t for t in tracer.unhooked if t not in bench.unhooked)
    spans = tracer.take()

    values = layer_metrics(spans)
    values["cli.stdout_bytes"] = float(bench.stdout_bytes)
    values["orbitalg.full_basis.serial_s"] = serial_s
    values["trace.overhead_s"] = traced_s - untraced_s

    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-seed{bench.args.seed}.json"
    path.write_text(
        json.dumps(
            {
                "workload": workload,
                "seed": bench.args.seed,
                "unhooked": bench.unhooked,
                "untraced_basis_s": untraced_s,
                "traced_basis_s": traced_s,
                "per_orbit": per_orbit_stages(spans),
                "layers": layer_totals(spans),
                "spans": span_records(spans),
            },
            indent=1,
        )
    )
    info = {"trace_file": str(path.relative_to(ROOT))}
    if modules is not None:
        info["modules"] = len(modules)
    return values, info


# ---------------------------------------------------------------------------


WORKLOAD_TYPES = {
    **{name: [label for label, _ in cases] for name, cases in BASIS_CASES.items()},
    "acycle-batch": [ACYCLE_TYPE],
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_TYPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "kcone" / "__init__.py").is_file():
        print(f"error: no kcone sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    kc = importlib.import_module("kcone")
    for sub in ("assocvar", "cli", "ktheory", "orbitalg", "rootdata"):
        importlib.import_module(f"kcone.{sub}")
    if Path(kc.__file__).resolve().parent != SRC / "kcone":
        print(f"error: imported kcone from {kc.__file__}, not {SRC}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    digests = json.loads((HERE / "digests.json").read_text())

    bench = Bench(args, kc, digests)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_kcone_lines": src_line_count(),
        "cli_workers": cli_workers(kc, bench.unhooked),
    }
    if args.trace:
        values, info = traced_run(bench, args.workload)
        values["meta.src_kcone_lines"] = float(meta["src_kcone_lines"])
        values["meta.cli_workers"] = float(meta["cli_workers"])
    else:
        values, info = plain_run(bench, args.workload, WORKLOAD_TYPES[args.workload])
    meta.update(info)

    check = bench.check
    failed_frac = check.failed / check.attempted if check.attempted else 1.0
    print("meta " + json.dumps(meta))
    print("unhooked " + json.dumps(bench.unhooked))
    for m in declared:
        alias = ACYCLE_ALIASES.get(m["name"]) if args.workload == "acycle-batch" else None
        suffix = f" ({alias})" if alias else ""
        print(f"metric {m['name']} = {values[m['name']]:.6g} {m['unit']}{suffix}")
    print(f"metric ops_failed_frac = {failed_frac:.6g} ({check.failed}/{check.attempted})")
    result = {
        "correct": check.attempted > 0 and check.failed == 0,
        "attempted": max(check.attempted, 1),
        "failed": check.failed if check.attempted else 1,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
