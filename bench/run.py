#!/usr/bin/env python3
"""brslab benchmark: seeded workloads, end-to-end timings, traced per-layer counters.

Run from the repository root:

    python3 bench/run.py --workload growth_sweep --seed 3 --seconds 20 --trace 0

``--workload all`` runs the four workloads one after another in this
process.  With ``--trace 0`` the run reports the end-to-end metrics
(``wall_s``, ``setup_s``, ``peak_rss_mb``), timed with host-speed scaling
(``hostspeed.py``).  With ``--trace 1`` it reports the per-layer metrics of
a traced pass; each pass of a traced run is a fresh interpreter.
``--record-refs`` regenerates the reference outputs in ``bench/refs/``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFS = BENCH / "refs"
OUT = BENCH / "out"

WORKLOADS = ("cli_readme", "growth_sweep", "rd_stiff", "reach_tdi")
# A seed selects one of POOL input sets; each has stored reference outputs.
POOL = 32
# Set-up is sampled in every run: the import of brslab in IMPORT_REPEATS
# fresh interpreters and the fixtures SETUP_REPEATS times; the medians count.
IMPORT_REPEATS = 5
SETUP_REPEATS = 3
# Every run times at least this many operations, unless that would take
# longer than HARD_LIMIT_S.
MIN_OPS = 2
HARD_LIMIT_S = 120.0
# Each pass of a traced run is one set-up and one operation in a fresh
# interpreter, and must end within this.
PASS_TIMEOUT_S = 150.0
BLAS_THREADS = 1
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

IMPORT_SNIPPET = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter();"
    " import brslab, brslab.cli; print(time.perf_counter() - t)"
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-refs", action="store_true",
                   help="recompute the stored reference outputs for every case")
    p.add_argument("--pass", dest="pass_kind", choices=("plain", "traced"),
                   help=argparse.SUPPRESS)
    p.add_argument("--spans", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.pass_kind and args.workload == "all":
        p.error("--pass takes a single workload")
    return args


def median(xs):
    return statistics.median(xs) if xs else float("nan")


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    last = metric.rsplit(".", 1)[-1]
    if last in ("s", "self_s"):
        return "s"
    if last in ("hit_ratio", "overhead"):
        return "ratio"
    if last == "artifact_bytes":
        return "bytes"
    return "count"


# -- environment --------------------------------------------------------------

def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, value = line.partition(":")
            if key.strip() == "model name":
                return value.strip()
    except OSError:
        pass
    return platform.processor() or None


def _cache_sizes():
    sizes = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            sizes[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = (
                (idx / "size").read_text().strip()
            )
        except OSError:
            continue
    return sizes


def _git_sha():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "brslab").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(seed: int, case: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "cache_sizes": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "seed": seed,
        "case": case,
    }


# -- set-up -------------------------------------------------------------------

def import_brslab():
    import brslab
    import brslab.cli  # noqa: F401

    if Path(brslab.__file__).resolve().parent != SRC / "brslab":
        raise SystemExit(f"brslab was imported from {brslab.__file__}, not {SRC}")


def fresh_import_s() -> float:
    """Import time of brslab in a fresh interpreter, by the child's clock."""
    done = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET, str(SRC)],
                          capture_output=True, text=True, timeout=120, cwd=ROOT)
    if done.returncode != 0:
        raise SystemExit(f"import in a fresh interpreter failed:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


def load_refs(name: str) -> dict:
    path = REFS / f"{name}.json"
    refs = json.loads(path.read_text())
    if refs["pool"] != POOL:
        raise SystemExit(f"{path} holds {refs['pool']} cases, expected {POOL}")
    return refs["cases"]


# -- runs ---------------------------------------------------------------------

def timed_op(w, fixture, ref, log, clock):
    """Run one operation; return (interval, output or None, failed)."""
    out = None
    with clock.interval() as iv:
        try:
            out = w.run(fixture)
        except Exception as exc:  # an exception is a failed operation, not a crash
            log.append(f"{type(exc).__name__}: {exc}")
    if out is None:
        return iv, None, True
    errs = w.check(out, ref)
    log.extend(errs)
    return iv, out, bool(errs)


def run_untraced(w, inp, ref, seconds):
    """Closed loop of operations for `seconds`, then the remaining set-up samples.

    Operations and fixture builds are timed by a HostClock, which reports
    each as measured and scaled to the reference host speed; the metrics use
    the scaled times.  Imports in fresh interpreters are timed by the child.
    One import is too short for the kernels to sample the host's speed well,
    so the median import is scaled by the median host speed of the
    operations.  The fixture built for the loop is the first set-up sample.
    The others, and the imports, are taken back to back after the last
    operation.
    """
    from hostspeed import HostClock, scale

    clock = HostClock()
    fixtures = []

    def timed_setup():
        with clock.interval() as iv:
            fixture = w.setup(inp)
        fixtures.append(iv)
        return fixture

    fixture = timed_setup()
    ops, log = [], []
    failed = 0
    start = time.perf_counter()
    while True:
        iv, _, bad = timed_op(w, fixture, ref, log, clock)
        ops.append(iv)
        failed += bad
        predicted = time.perf_counter() - start + median([o.raw_s for o in ops])
        if predicted > seconds and (len(ops) >= MIN_OPS or predicted > HARD_LIMIT_S):
            break
    del fixture
    while len(fixtures) < SETUP_REPEATS:
        timed_setup()
    imports = [fresh_import_s() for _ in range(IMPORT_REPEATS)]

    def med(ivs, field):
        return median([getattr(iv, field) for iv in ivs])

    metrics = {
        "wall_s": (med(ops, "scaled_s"), "s"),
        "setup_s": (scale(median(imports), med(ops, "round_s")) + med(fixtures, "scaled_s"),
                    "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {
        name: [{"raw_s": iv.raw_s, "scaled_s": iv.scaled_s, "round_s": iv.round_s}
               for iv in ivs]
        for name, ivs in (("ops", ops), ("fixtures", fixtures))
    }
    detail["import_s"] = imports
    detail["raw_wall_s"] = med(ops, "raw_s")
    detail["raw_setup_s"] = median(imports) + med(fixtures, "raw_s")
    return metrics, len(ops), failed, True, log, detail


def one_pass(w, inp, ref, kind, spans_path):
    """One set-up and one operation in this process, traced or not.

    Returns a JSON-ready record; ``run_traced`` starts one interpreter per
    pass, so no cache inside the process carries over between passes.
    """
    from hostspeed import HostClock
    from tracer import Tracer

    log = []
    tr = Tracer() if kind == "traced" else None
    if tr is not None:
        tr.install()
    try:
        if tr is not None:
            tr.label = "setup"
        fixture = w.setup(inp)
        if tr is not None:
            tr.label = "op"
        iv, out, bad = timed_op(w, fixture, ref, log, HostClock())
    finally:
        if tr is not None:
            tr.uninstall()
    record = {"op_s": iv.scaled_s, "failed": int(bad), "log": log, "metrics": None}
    if tr is not None:
        record["metrics"] = tr.metrics()
        record["metrics"]["cli.artifact_bytes"] = (out or {}).get("artifact_bytes", 0)
        if spans_path:
            Path(spans_path).write_text(json.dumps({"spans": tr.span_records()}))
    return record


def spawn_pass(name, seed, kind, spans_path=None):
    """Run `one_pass` in a fresh interpreter; None if it did not finish."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--trace", "1", "--pass", kind]
    if spans_path is not None:
        cmd += ["--spans", str(spans_path)]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=PASS_TIMEOUT_S,
                              cwd=ROOT)
    except subprocess.TimeoutExpired:
        return None
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-2000:])
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_traced(name, seed, spans_path):
    """An untraced pass, then two traced passes, each in its own interpreter."""
    from tracer import EXACT_COUNTS

    plain = spawn_pass(name, seed, "plain")
    pass_a = spawn_pass(name, seed, "traced", spans_path)
    pass_b = spawn_pass(name, seed, "traced")
    passes = (plain, pass_a, pass_b)
    if any(p is None for p in passes):
        raise SystemExit(f"{name}: a traced pass did not finish")
    log = [msg for p in passes for msg in p["log"]]
    failed = sum(p["failed"] for p in passes)
    metrics, counts_b = pass_a["metrics"], pass_b["metrics"]
    mismatched = [k for k in EXACT_COUNTS if metrics[k] != counts_b[k]]
    if mismatched:
        log.append("exact counts differ between traced passes: " + ", ".join(
            f"{k} {metrics[k]} vs {counts_b[k]}" for k in mismatched))
    metrics["trace.overhead"] = pass_a["op_s"] / plain["op_s"]
    detail = {"untraced_op_s": plain["op_s"], "traced_op_s": pass_a["op_s"],
              "exact_counts_b": {k: counts_b[k] for k in EXACT_COUNTS},
              "spans": str(spans_path.relative_to(ROOT))}
    return ({k: (v, unit_of(k)) for k, v in metrics.items()}, len(passes), failed,
            not mismatched, log, detail)


def record_refs(name: str, scratch: Path) -> int:
    from workloads import make_workloads

    cases, bad = {}, 0
    for case in range(POOL):
        w = make_workloads(scratch)[name]
        out = w.run(w.setup(w.inputs(case)))
        ref = w.reference(out)
        errs = w.check(out, ref)
        if errs:
            bad += 1
            print(f"{name} case {case}: {errs}", file=sys.stderr)
        cases[str(case)] = ref
        print(f"{name} case {case} recorded", flush=True)
    REFS.mkdir(exist_ok=True)
    doc = {"pool": POOL, "git_sha": _git_sha(), "src_sha256": _src_digest(), "cases": cases}
    (REFS / f"{name}.json").write_text(json.dumps(doc, sort_keys=True) + "\n")
    return 1 if bad else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "brslab" / "__init__.py").is_file():
        print(f"no brslab sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import_brslab()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    scratch = OUT / f"tmp-{os.getpid()}"
    try:
        if args.record_refs:
            return max(record_refs(name, scratch) for name in names)
        if args.pass_kind:
            return single_pass(args, scratch)
        return benchmark(args, names, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def single_pass(args, scratch) -> int:
    from workloads import make_workloads

    case = args.seed % POOL
    w = make_workloads(scratch)[args.workload]
    record = one_pass(w, w.inputs(case), load_refs(args.workload)[str(case)],
                      args.pass_kind, args.spans)
    print(json.dumps(record))
    return 0


def benchmark(args, names, scratch) -> int:
    from workloads import make_workloads

    refs = {name: load_refs(name) for name in names}
    case = args.seed % POOL
    env = environment(args.seed, case)
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    OUT.mkdir(exist_ok=True)
    workloads = make_workloads(scratch)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        w = workloads[name]
        inp, ref = w.inputs(case), refs[name][str(case)]
        tag = f"{name}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            res = run_traced(name, args.seed, OUT / f"spans-{tag}.json")
        else:
            res = run_untraced(w, inp, ref, args.seconds)
        metrics, attempted, failed, counts_ok, log, detail = res
        for msg in log[:5]:
            print(f"{name}: FAILED CHECK {msg}", file=sys.stderr)
        prefix = f"{name}." if len(names) > 1 else ""
        for key, (value, unit) in metrics.items():
            total["metrics"][prefix + key] = {"value": value, "unit": unit}
        total["attempted"] += attempted
        total["failed"] += failed
        total["correct"] = total["correct"] and failed == 0 and counts_ok
        summary = ", ".join(f"{k}={v:.6g} {u}" for k, (v, u) in metrics.items())
        if "raw_wall_s" in detail:
            summary += (f" (unscaled: wall_s={detail['raw_wall_s']:.6g} s,"
                        f" setup_s={detail['raw_setup_s']:.6g} s)")
        print(f"{name} seed={args.seed} trace={args.trace}: {summary},"
              f" fail_frac={failed / attempted:.3g} ({failed}/{attempted} ops)", flush=True)
        (OUT / f"result-{tag}.json").write_text(json.dumps({
            "workload": name, "env": env, "attempted": attempted, "failed": failed,
            "metrics": {k: v for k, (v, _) in metrics.items()}, "detail": detail,
            "failures": log,
        }, indent=1, sort_keys=True, default=float))
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
