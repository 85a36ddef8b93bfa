"""Benchmark of permutangle's figure campaigns, stored-record checks and scalar calls.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Every operation is timed against a round of
the frozen reference loop in ``refloop.py`` (1 ref: one pass on each thread
the operation runs on), run just before and just after it, so the figures
hold while the host's speed drifts. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``;
with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
self times of a traced replay. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
TMP_DIR = ROOT / ".bench_tmp"

#: Fresh processes timed for setup_s; the median is reported.
SETUP_PROBES = 7
#: The set-up reference: a fresh interpreter that imports the reference loop
#: (and with it numpy) and runs five reference rounds, each a pass on each of
#: the workload's threads. Like a probe it starts an interpreter and loads
#: extension modules, which a round in this process does not, so it tracks
#: set-up time where the reference round does not. Frozen with the loop.
SETUP_REF_CODE = (
    "import sys, threading; sys.path.insert(0, sys.argv[1]); import refloop\n"
    "for _ in range(5):\n"
    "    passes = [threading.Thread(target=refloop.ref_pass) for _ in range(int(sys.argv[2]))]\n"
    "    for t in passes: t.start()\n"
    "    for t in passes: t.join()\n"
    "print('ready')"
)
#: setup_s is reported in seconds at this nominal set-up reference time, so
#: that host drift divides out of it. Frozen with the set-up reference.
NOMINAL_SETUP_REF_S = 0.35
#: Untimed reference passes before the first operation.
WARM_REFS = 3

END_TO_END_UNITS = {
    "items_per_ref": "items/ref",
    "op_ref_p50": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

#: Per-layer metric -> how its self time is divided: per call or per record.
PER_LAYER = {
    "qstate.substream": "call",
    "qstate.haar_random_pure": "call",
    "qstate.reduce": "call",
    "qstate.mix": "call",
    "qstate.spectral": "call",
    "permutations.partial_transpose": "call",
    "permutations.link_transform": "call",
    "matkernel.determinant": "call",
    "matkernel.eig_hermitian": "call",
    "matkernel.singular_values": "call",
    "measures.concurrence": "call",
    "measures.negativity": "call",
    "measures.r12": "call",
    "measures.three_tangle": "call",
    "families.make_state": "call",
    "families.closed_form_measures": "call",
    "families.boundary_curve": "call",
    "experiments.build_record": "call",
    "experiments.campaign_overhead": "record",
    "experiments.figure_io": "call",
    "experiments.read_records_csv": "record",
    "experiments.verify": "record",
    "experiments.records_csv_bytes": "record",
    "experiments.records_to_json": "record",
    "experiments.records_from_json": "record",
    "cli.verify_overhead": "call",
}
_CAMPAIGNS = ("experiments.scatter", "experiments.perturbation_campaign",
              "experiments.separable_campaign")


def _import_program():
    """Import permutangle from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import permutangle

    if Path(permutangle.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"permutangle imported from {permutangle.__file__}, not {src}")


def _setup(workload: str, seed: int, tmp: Path):
    """Build the workload, self-test the checkers, warm up: all before timing."""
    import oracles
    import refloop
    import workloads

    oracles.self_test()
    wl = workloads.WORKLOADS[workload](seed, tmp)
    for _ in range(WARM_REFS):
        refloop.ref_pass()
    return wl, [f"warm-up: {p}" for p in wl.check(wl.op())]


def _timed_ref(threads: int) -> float:
    """Wall seconds of one reference round: a pass of the loop on each of
    ``threads`` threads at once, as the operation it brackets runs."""
    import refloop

    if threads == 1:
        return refloop.timed_ref()
    passes = [threading.Thread(target=refloop.ref_pass) for _ in range(threads)]
    t0 = time.perf_counter()
    for t in passes:
        t.start()
    for t in passes:
        t.join()
    return time.perf_counter() - t0


def _until_ready(argv: list[str]) -> float:
    """Wall seconds from spawning ``argv`` to its line ``ready``; waits for its exit."""
    t0 = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        if proc.wait(timeout=120) != 0 or line.strip() != "ready":
            raise SystemExit(f"set-up child failed: {argv[1:3]} printed {line!r}")
    return elapsed


def _setup_seconds(workload: str, seed: int, threads: int) -> tuple[list[float], list[float]]:
    """Wall seconds of SETUP_PROBES fresh processes, from spawn to their first
    timed operation, and of the set-up references run before, between and
    after them."""
    probe = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", "0", "--setup-probe"]
    reference = [sys.executable, "-c", SETUP_REF_CODE, str(HERE), str(threads)]
    refs = [_until_ready(reference)]
    walls = []
    for _ in range(SETUP_PROBES):
        walls.append(_until_ready(probe))
        refs.append(_until_ready(reference))
    return walls, refs


class Run:
    """The timed loop shared by traced and untraced runs."""

    def __init__(self, wl, tracer=None, problems=()):
        self.wl = wl
        self.tracer = tracer
        self.op_ref: list[float] = []
        self.op_wall: list[float] = []
        self.refs: list[float] = []
        self.passes: list[float] = []
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = list(problems)
        self.last = None

    def one_op(self):
        r0 = _timed_ref(self.wl.threads)
        t0 = time.perf_counter()
        result = self.wl.op()
        wall = time.perf_counter() - t0
        r1 = _timed_ref(self.wl.threads)
        self.refs += [r0, r1]
        self.op_wall.append(wall)
        self.op_ref.append(wall / ((r0 + r1) / 2.0))
        self.items += self.wl.items_per_op
        self.attempted += 1
        return result

    def traced_op(self, op_index: int):
        """One operation and its replay under the tracer, then one single
        reference pass: the per-layer unit, since the spans that enter the
        per-layer figures run on one thread."""
        self.tracer.current_item = op_index * 1_000_000
        with self.tracer.installed():
            result = self.one_op()
            self.problems += self.wl.replay(result, self.tracer, op_index)
        self.passes.append(_timed_ref(1))
        return result

    def loop(self, seconds: float) -> None:
        """Whole rounds (operation, checks, probe) until ``seconds`` have passed."""
        deadline = time.perf_counter() + seconds
        while not self.op_ref or time.perf_counter() < deadline:
            if self.tracer is None:
                result = self.one_op()
            else:
                result = self.traced_op(len(self.op_ref))
            self.problems += self.wl.check(result)
            if self.wl.probe is not None:
                self.attempted += 1
                self.failed += not self.wl.probe()
            self.last = result


def _layer_metrics(tracer, solo, pass_s: float) -> dict[str, float]:
    """Self time per call (or per record) in micro-ref, at ``pass_s`` per ref.

    ``solo`` traced the one-worker rerun of the campaigns, whose stages run
    on the main thread as children of the campaign span: that span's self
    time per sample is the chunking and glue around the traced stages.
    """
    stats = tracer.self_times()
    solo_stats = solo.self_times()
    out = {}
    for name, per in PER_LAYER.items():
        if name == "cli.verify_overhead":
            calls, _, ns = stats.get("cli.run", (0, 0, 0))
        elif name == "experiments.campaign_overhead":
            parts = [solo_stats.get(c, (0, 0, 0)) for c in _CAMPAIGNS]
            calls, ns = sum(p[1] for p in parts), sum(p[2] for p in parts)
        elif name == "experiments.figure_io":
            calls = stats.get("experiments.figure_dataset", (0, 0, 0))[0]
            ns = tracer.durations("experiments.figure_dataset") - tracer.durations(
                *_CAMPAIGNS, parent="experiments.figure_dataset")
        else:
            calls, records, ns = stats.get(name, (0, 0, 0))
            if per == "record":
                calls = records
        if calls:
            out[f"{name}.self_uref"] = ns / calls / (pass_s * 1e9) * 1e6
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # Campaigns use the default worker pool, as users get it.
    os.environ.pop("PERMUTANGLE_THREADS", None)

    _import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}")
    TMP_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_DIR))
    try:
        if args.setup_probe:
            _setup(args.workload, args.seed, tmp)
            print("ready", flush=True)
            return 0
        threads = workloads.WORKLOADS[args.workload].threads
        setup = ([], []) if args.trace else _setup_seconds(args.workload, args.seed, threads)
        wl, problems = _setup(args.workload, args.seed, tmp)
        if args.trace:
            result = _traced(args, wl, tmp, problems)
        else:
            result = _untraced(args, wl, setup, problems)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _report(run: Run, metrics: dict, units: dict) -> dict:
    for problem in run.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def _untraced(args, wl, setup: tuple[list[float], list[float]], problems: list[str]) -> dict:
    walls, refs = setup
    run = Run(wl, problems=problems)
    run.loop(args.seconds)
    run.problems += wl.pool_check(run.last)
    metrics = {
        "items_per_ref": run.items / sum(run.op_ref),
        "op_ref_p50": statistics.median(run.op_ref),
        "setup_s": statistics.median(
            wall / ((r0 + r1) / 2.0) for wall, r0, r1 in zip(walls, refs, refs[1:])
        ) * NOMINAL_SETUP_REF_S,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {
        "workload": args.workload,
        "ops": len(run.op_ref),
        "wall_items_per_s": run.items / sum(run.op_wall),
        "ref_ms": 1e3 * statistics.median(run.refs),
        "setup_wall_s": walls,
        "setup_ref_s": statistics.median(refs),
    }
    print("info " + json.dumps(info))
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {END_TO_END_UNITS[name]}")
    return _report(run, metrics, END_TO_END_UNITS)


def _traced(args, wl, tmp: Path, problems: list[str]) -> dict:
    import spans
    import workloads

    tracer, solo = spans.Tracer(), spans.Tracer()
    run = Run(wl, tracer, problems)
    run.loop(args.seconds)
    with solo.installed():
        run.problems += wl.pool_check(run.last)
    pass_s = statistics.median(run.passes)
    metrics = _layer_metrics(tracer, solo, pass_s)

    # Layers this workload never calls are measured on one traced operation
    # of each other workload, so every run reports every layer.
    cover, cover_solo = spans.Tracer(), spans.Tracer()
    cover_run = Run(None, cover)
    csv_size = wl.csv_bytes(run.last)
    for name, cls in workloads.WORKLOADS.items():
        if name == args.workload:
            continue
        sub = tmp / f"cover-{name}"
        sub.mkdir()
        cover_run.wl = cls(args.seed, sub)
        result = cover_run.traced_op(0)
        with cover_solo.installed():
            cover_run.problems += cover_run.wl.pool_check(result)
        cover_run.problems += cover_run.wl.check(result)
        csv_size = csv_size or cover_run.wl.csv_bytes(result)
    covered = _layer_metrics(cover, cover_solo, statistics.median(cover_run.passes))
    sources = {}
    for name in PER_LAYER:
        key = f"{name}.self_uref"
        sources[name] = "own" if key in metrics else "cover"
        if key not in metrics and key not in covered:
            run.problems.append(f"no spans for layer {name}")
        metrics.setdefault(key, covered.get(key, 0.0))
    metrics["experiments.csv_bytes_per_record"] = csv_size[0] / csv_size[1]
    run.problems += [f"cover: {p}" for p in cover_run.problems]

    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{args.workload}-{args.seed}.csv.gz")
    info = {
        "workload": args.workload,
        "ops": len(run.op_ref),
        "traced_items_per_ref": run.items / sum(run.op_ref),
        "ref_ms": 1e3 * statistics.median(run.refs),
        "pass_ms": 1e3 * pass_s,
        "spans": len(tracer),
        "layer_source": sources,
    }
    print("info " + json.dumps(info))
    units = {name: "uref" for name in metrics}
    units["experiments.csv_bytes_per_record"] = "bytes"
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    return _report(run, metrics, units)


if __name__ == "__main__":
    sys.exit(main())
