"""ceisen benchmark: time to a verified CLI answer, end to end and per module.

Usage (from the root of a checkout):

    python3 benchmarks/run.py --workload theta-deep --seed 1 --seconds 15 --trace 0

Every CLI invocation is a fresh interpreter running
`python -c "import sys; from ceisen.cli import main; sys.exit(main())" ARGS`
with `PYTHONPATH=src` and `--threads 1`, one at a time.  Its exit code and
the sha256 of its stdout must match the pins in `expected.json`.

`--trace 0` sets the workload up three times, then repeats the workload's
invocations until `--seconds` have passed, and reports the end-to-end metrics
from medians over the repetitions.  Times are scaled to a reference CPU
speed, measured by a probe that runs a fixed loop on the same CPU while each
invocation runs (see README.md).  `--trace 1` sets up once, measures the same
untraced repetitions, then runs the workload twice more under `tracer.py` and
reports the per-layer metrics; the counts of the two traced runs must agree.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  A fuller record, with the run
environment, goes to `benchmarks/results/`.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
RESULTS = BENCH / "results"
CLI = "import sys; from ceisen.cli import main; sys.exit(main())"
DEADLINE_S = 170.0  # every run must end within 180 s
SETUPS_UNTRACED = 3
TRACED_REPS = 2
PROBE_INTERVAL_S = 0.1
# Typical CPU time of one probe_work() on the 2.1 GHz Xeon vCPU where the
# benchmark was defined; scaled times are seconds at that speed.
PROBE_REF_S = 0.0035


@dataclass(frozen=True)
class Workload:
    why: str
    invocations: tuple[tuple[str, ...], ...]
    cache: str  # "none", "fresh" (empty dir per invocation) or "snapshot"
    snapshot_builds: tuple[tuple[str, ...], ...] = ()


WORKLOADS = {
    "theta-deep": Workload(
        why="hseries to D=5000 at N=11, 66, 210 without a cache: ternary theta "
        "enumeration and class numbers dominate; Brandt never runs",
        invocations=(
            ("hseries", "--ramified", "11", "--dmax", "5000"),
            ("hseries", "--ramified", "2,3,11", "--dmax", "5000"),
            ("hseries", "--ramified", "2,3,7", "--M", "5", "--dmax", "5000"),
        ),
        cache="none",
    ),
    "walk-cold": Workload(
        why="verify --suite mass at N=389 and N=210 (Eichler cut) into empty "
        "cache dirs: algebra search and the mass-certified class walk",
        invocations=(
            ("verify", "--suite", "mass", "--ramified", "389"),
            ("verify", "--suite", "mass", "--ramified", "3,5,7", "--M", "2"),
        ),
        cache="fresh",
    ),
    "hecke-warm": Workload(
        why="shatable at N=197 and the hecke suite at N=210 from a warm "
        "snapshot: Brandt pairs, exact eigensystems and the snapshot reader",
        invocations=(
            ("shatable", "--ramified", "197", "--l", "7", "--dmax", "1000"),
            ("verify", "--suite", "hecke", "--ramified", "2,3,7", "--M", "5", "--mmax", "60"),
        ),
        cache="snapshot",
        snapshot_builds=(
            ("verify", "--suite", "mass", "--ramified", "197"),
            ("verify", "--suite", "mass", "--ramified", "2,3,7", "--M", "5"),
        ),
    ),
}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

LATTICE_KINDS = {"theta32": "ternary", "brandt": "pair", "order": "walk"}

PER_LAYER = {
    "quatalg.construct_algebra.s": "s",
    "order.left_ideal_classes.s": "s",
    "order.maximal_order.s": "s",
    "order.eichler_order.s": "s",
    "order.classes_found": "count",
    "order.is_equivalent.calls": "count",
    "order.is_equivalent.hits": "count",
    "order.is_equivalent.s": "s",
    "order.is_equivalent.hit_rate": "ratio",
    "order.reduce_ideal.s": "s",
    "order.right_order.s": "s",
    "order.unit_count.s": "s",
    "order.product_lattice.calls": "count",
    "order.product_lattice.s": "s",
    "order.classes_from_json.s": "s",
    "order.build_class_set.calls": "count",
    **{f"lattice.points.{k}": "count" for k in LATTICE_KINDS.values()},
    **{f"lattice.points_up_to.s.{k}": "s" for k in LATTICE_KINDS.values()},
    **{f"lattice.us_per_point.{k}": "us" for k in LATTICE_KINDS.values()},
    "theta32.prefill_counts.s": "s",
    "theta32.cohen_H.s": "s",
    "theta32.cusp_G.s": "s",
    "theta32.ternary_enumerations": "count",
    "qform.closed_form_H.calls": "count",
    "qform.closed_form_H.s": "s",
    "qform.class_number.s": "s",
    "qform.class_number.misses": "count",
    "brandt.brandt_matrices_upto.s": "s",
    "brandt.rational_eigensystem.s": "s",
    "brandt.pair_enumerations": "count",
    "brandt.pair_reuse_ratio": "ratio",
    "linalg.charpoly.calls": "count",
    "linalg.charpoly.s": "s",
    "linalg.mat_mul.calls": "count",
    "linalg.mat_mul.s": "s",
    "verify.best_coefficient_congruence.s": "s",
    "verify.divisibility_table.s": "s",
    "cli.self_s": "s",
    "cli.startup_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, timeout, failed setup)."""


def pin_key(args: tuple[str, ...]) -> str:
    return " ".join(args)


def probe_work() -> float:
    """CPU seconds this thread takes for a fixed bit of pure-Python work like
    the CLI's own (Fraction arithmetic and dict updates)."""
    t0 = time.thread_time()
    acc = Fraction(0)
    seen: dict[int, int] = {}
    for i in range(1, 1001):
        acc += Fraction(i % 97, i % 89 + 1)
        seen[i % 1009] = seen.get(i % 1009, 0) + i * i % 7
    return time.thread_time() - t0


class SpeedProbe:
    """Samples the speed of this process's CPU while a child runs on it.

    Shared virtual CPUs change speed by up to 2x within seconds, because of
    other tenants of the host (seen on a 2-vCPU 2.1 GHz Xeon VM), and a CLI
    invocation slows in step with probe_work() run on the same CPU at the
    same time.  A thread runs
    probe_work() at once and then every PROBE_INTERVAL_S; `scale` turns the
    child's times into times at the reference speed, and `stolen_s` is the
    CPU time the probe took from the child.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.stolen_s = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run)

    def _run(self) -> None:
        t0 = time.thread_time()
        self.samples.append(probe_work())
        while not self._stop.wait(PROBE_INTERVAL_S):
            self.samples.append(probe_work())
        self.stolen_s = time.thread_time() - t0

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def scale(self) -> float:
        return PROBE_REF_S * len(self.samples) / sum(self.samples)


@dataclass
class Outcome:
    args: tuple[str, ...]
    t_spawn: float
    wall: float
    cpu: float
    rss_mb: float
    exit: int
    ok: bool
    scale: float = 1.0  # from the SpeedProbe that ran with the invocation
    probe_s: float = 0.0  # CPU time the probe took from the invocation's wall time

    @property
    def scaled_wall(self) -> float:
        return (self.wall - self.probe_s) * self.scale


class Runner:
    """Starts CLI invocations one at a time and checks them against the pins."""

    def __init__(self, work: Path, deadline: float, pins: dict) -> None:
        self.work = work
        self.deadline = deadline
        self.pins = pins
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.outcomes: list[Outcome] = []

    def invoke(self, args: tuple[str, ...], cache_dir: Path | None = None,
               spans: tuple[Path, str] | None = None) -> Outcome:
        """Run one CLI invocation (traced if `spans` is given) and check it
        against its pin."""
        argv = list(args) + ["--threads", "1"]
        key = pin_key(tuple(argv))
        if cache_dir is not None:
            argv += ["--cache-dir", str(cache_dir)]
        if spans is None:
            cmd = ["-c", CLI, *argv]
        else:
            cmd = [str(BENCH / "tracer.py"), str(spans[0]), spans[1], "--", *argv]
        out, outcome = self.run_child(tuple(args), cmd)
        pin = self.pins.get(key)
        digest = hashlib.sha256(out).hexdigest()
        outcome.ok = pin is not None and outcome.exit == pin["exit"] and digest == pin["sha256"]
        if not outcome.ok:
            tail = (self.work / "stderr.txt").read_text(errors="replace")[-2000:]
            print(f"MISMATCH {key}: exit {outcome.exit}, sha256 {digest}\n{tail}",
                  file=sys.stderr)
        return outcome

    def run_child(self, args: tuple[str, ...], cmd: list[str]) -> tuple[bytes, Outcome]:
        """Run `python CMD` to completion under a SpeedProbe; return its stdout
        and measurements.  The child is killed at the run deadline."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run deadline passed")
        with open(self.work / "stderr.txt", "wb") as err, SpeedProbe() as probe:
            t_spawn = time.monotonic()
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *cmd], cwd=ROOT, env=self.env,
                                    stdout=subprocess.PIPE, stderr=err)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            reaped = False
            try:
                out = proc.stdout.read()
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
                reaped = True
                wall = time.perf_counter() - t0
            finally:
                timer.cancel()
                if not reaped:
                    proc.kill()
                    proc.wait()
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if time.monotonic() >= self.deadline:
            raise BenchError(f"{pin_key(args)} ran past the run deadline")
        return out, Outcome(args, t_spawn, wall, usage.ru_utime + usage.ru_stime,
                            usage.ru_maxrss / 1024.0, code, code == 0,
                            probe.scale, probe.stolen_s)


def setup(runner: Runner, wl: Workload, target: Path) -> float:
    """Prepare one copy of the workload's inputs in `target`; return its
    scaled time.

    Every workload byte-compiles and imports the package in a child first, so
    no timed invocation pays for that.  `hecke-warm` also builds its class-set
    snapshots into `target`.
    """
    target.mkdir(parents=True)
    _, warm = runner.run_child(("import",), ["-c", "import ceisen.cli"])
    if not warm.ok:
        raise BenchError("cannot import ceisen.cli from src/")
    steps = [warm]
    for args in wl.snapshot_builds:
        steps.append(runner.invoke(args, cache_dir=target))
        if not steps[-1].ok:
            raise BenchError(f"setup invocation failed: {pin_key(args)}")
    return sum(o.scaled_wall for o in steps)


def run_rep(runner: Runner, wl: Workload, order: list[int], rep_dir: Path,
            snapshot: Path, traced: bool) -> list[Outcome]:
    """One repetition: every invocation of the workload, in the given order.
    Outcomes come back in workload order."""
    rep_dir.mkdir(parents=True)
    cache = None
    if wl.cache == "snapshot":
        cache = rep_dir / "cache"
        shutil.copytree(snapshot, cache)
    outcomes: dict[int, Outcome] = {}
    for k in order:
        args = wl.invocations[k]
        if wl.cache == "fresh":
            cache = rep_dir / f"cache{k}"
            cache.mkdir()
        spans = (rep_dir / f"spans{k}.json", f"{rep_dir.name}/{k}") if traced else None
        outcomes[k] = runner.invoke(args, cache_dir=cache, spans=spans)
    rep = [outcomes[k] for k in range(len(wl.invocations))]
    runner.outcomes.extend(rep)
    return rep


def _ancestors(spans: dict, sid: int):
    parent = spans[sid][1]
    while parent:
        yield spans[parent]
        parent = spans[parent][1]


def layer_metrics(invocations: list[tuple[dict, Outcome]]) -> dict[str, float]:
    """Per-layer metrics (all but trace.overhead_s) of one traced repetition,
    from each invocation's span record and outcome.

    A name's time is the busy time of its spans that have no ancestor of the
    same name.  Lattice points go to the kind of the nearest ancestor span from
    theta32, brandt or order.  Times are scaled like the end-to-end ones.
    """
    busy: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    counts: Counter = Counter()
    points: Counter = Counter()
    points_s: dict[str, float] = defaultdict(float)
    distinct_pairs = cli_self = startup = 0.0
    misses = 0
    for record, outcome in invocations:
        scale = outcome.scale
        spans = {s[0]: s for s in record["spans"]}
        covered: dict[int, float] = defaultdict(float)
        n_classes = 0
        for _sid, parent, _name, _t0, _t1, span_busy, _count in spans.values():
            covered[parent] += span_busy
        for sid, _parent, name, _t0, _t1, span_busy, count in spans.values():
            calls[name] += 1
            counts[name] += count
            if all(a[2] != name for a in _ancestors(spans, sid)):
                busy[name] += span_busy * scale
            if name == "lattice.points_up_to":
                kind = next((LATTICE_KINDS[a[2].split(".")[0]] for a in _ancestors(spans, sid)
                             if a[2].split(".")[0] in LATTICE_KINDS), "other")
                points[kind] += count
                points_s[kind] += span_busy * scale
            elif name == "cli.main":
                cli_self += (span_busy - covered[sid]) * scale
            elif name in ("order.build_class_set", "order.classes_from_json"):
                n_classes = count
        if any(s[2] == "brandt.counts_by_value" for s in spans.values()):
            distinct_pairs += n_classes * (n_classes + 1) // 2
        startup += (record["t_imported"] - outcome.t_spawn) * scale
        misses += record["class_number_misses"]

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        name: busy[name[: -len(".s")]]
        for name in PER_LAYER
        if name.endswith(".s") and not name.startswith("lattice.")
    }
    m.update({
        "order.classes_found": counts["order.left_ideal_classes"],
        "order.is_equivalent.calls": calls["order.is_equivalent"],
        "order.is_equivalent.hits": counts["order.is_equivalent"],
        "order.is_equivalent.hit_rate": ratio(counts["order.is_equivalent"],
                                              calls["order.is_equivalent"]),
        "order.product_lattice.calls": calls["order.product_lattice"],
        "order.build_class_set.calls": calls["order.build_class_set"],
        "theta32.ternary_enumerations": calls["theta32.counts_with_primitive"],
        "qform.closed_form_H.calls": calls["qform.closed_form_H"],
        "qform.class_number.misses": misses,
        "brandt.pair_enumerations": calls["brandt.counts_by_value"],
        "brandt.pair_reuse_ratio": ratio(distinct_pairs, calls["brandt.counts_by_value"]),
        "linalg.charpoly.calls": calls["linalg.charpoly"],
        "linalg.mat_mul.calls": calls["linalg.mat_mul"],
        "cli.self_s": cli_self,
        "cli.startup_s": startup,
    })
    for kind in LATTICE_KINDS.values():
        m[f"lattice.points.{kind}"] = points[kind]
        m[f"lattice.points_up_to.s.{kind}"] = points_s[kind]
        m[f"lattice.us_per_point.{kind}"] = 1e6 * ratio(points_s[kind], points[kind])
    if points["other"]:
        print(f"note: {points['other']} lattice points outside theta32/brandt/order spans",
              file=sys.stderr)
    return m


def end_to_end(reps: list[list[Outcome]], setups: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics, and the raw (unscaled) medians for the record.

    Times sum, over the workload's invocations, each invocation's median
    scaled time across the repetitions.
    """
    def per_invocation(value):
        return [statistics.median(value(rep[k]) for rep in reps) for k in range(len(reps[0]))]

    metrics = {
        "wall_s": sum(per_invocation(lambda o: o.scaled_wall)),
        "cpu_s": sum(per_invocation(lambda o: o.cpu * o.scale)),
        "peak_rss_mb": max(per_invocation(lambda o: o.rss_mb)),
        "setup_s": statistics.median(setups),
    }
    raw = {
        "wall_s": sum(per_invocation(lambda o: o.wall)),
        "cpu_s": sum(per_invocation(lambda o: o.cpu)),
        "speed": statistics.median(o.scale for rep in reps for o in rep),
    }
    return metrics, raw


def highest_percentile(n: int) -> str:
    """The highest of p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return f"p{p}"
    return "none above the median (fewer than 20 samples)"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.monotonic()
    load_start = os.getloadavg()[0]
    if not (ROOT / "src" / "ceisen" / "cli.py").is_file():
        print(f"error: no ceisen sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # The speed probe and the invocations share one CPU, so they see the same speed.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    pins = json.loads((BENCH / "expected.json").read_text())
    wl = WORKLOADS[args.workload]
    work = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    runner = Runner(work, start + DEADLINE_S, pins)
    # The seed fixes only the order of the invocations inside each repetition:
    # the argument sets are pinned, so every seed does the same work.
    rng = random.Random(args.seed)
    try:
        work.mkdir(parents=True)
        setups = [setup(runner, wl, work / f"setup{k}")
                  for k in range(1 if args.trace else SETUPS_UNTRACED)]
        snapshot = work / f"setup{len(setups) - 1}"
        reps: list[list[Outcome]] = []
        t_measure = time.monotonic()
        while not reps or time.monotonic() - t_measure < args.seconds:
            order = rng.sample(range(len(wl.invocations)), len(wl.invocations))
            reps.append(run_rep(runner, wl, order, work / f"rep{len(reps)}", snapshot, False))
        traced_reps = []
        for t in range(TRACED_REPS if args.trace else 0):
            order = rng.sample(range(len(wl.invocations)), len(wl.invocations))
            rep_dir = work / f"traced{t}"
            rep = run_rep(runner, wl, order, rep_dir, snapshot, True)
            records = [(json.loads((rep_dir / f"spans{k}.json").read_text()), o)
                       for k, o in enumerate(rep)]
            traced_reps.append((rep, layer_metrics(records)))
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    e2e, raw = end_to_end(reps, setups)
    problems = []
    if args.trace:
        metrics = {}
        for name, unit in PER_LAYER.items():
            if name == "trace.overhead_s":
                continue
            values = [m[name] for _, m in traced_reps]
            if unit in ("count", "ratio") and len(set(values)) != 1:
                problems.append(f"{name} differs between traced runs: {values}")
            metrics[name] = statistics.median(values)
        traced_e2e, _ = end_to_end([rep for rep, _ in traced_reps], setups)
        metrics["trace.overhead_s"] = traced_e2e["wall_s"] - e2e["wall_s"]
        if args.workload == "hecke-warm" and metrics["order.build_class_set.calls"]:
            problems.append("the warm snapshot was rebuilt (order.build_class_set ran)")
        units = PER_LAYER
    else:
        metrics = e2e
        units = END_TO_END
    failed = sum(not o.ok for o in runner.outcomes)
    attempted = len(runner.outcomes)
    correct = failed == 0 and not problems
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)

    env = {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": git_commit(),
        "loadavg_1m_start": load_start,
        "loadavg_1m_end": os.getloadavg()[0],
        "elapsed_s": time.monotonic() - start,
    }
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(reps)} untraced repetitions of {len(wl.invocations)} invocations, "
          f"{len(setups)} setups; env {json.dumps(env)}")
    print(f"  unscaled medians: wall {raw['wall_s']:.4g} s, cpu {raw['cpu_s']:.4g} s; "
          f"speed scale {raw['speed']:.4g}")
    for name, value in metrics.items():
        line = f"  {name} = {value:.6g} {units[name]}"
        if name in END_TO_END:
            count = len(setups) if name == "setup_s" else len(reps)
            line += f" (median of n={count}; highest percentile: {highest_percentile(count)})"
        print(line)
    print(f"  ops_failed = {failed / attempted:.4g} ({failed} of {attempted} invocations)")
    RESULTS.mkdir(exist_ok=True)
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "metrics": metrics, "unscaled": raw,
        "setups_s": setups,
        "invocations": [
            {"args": list(o.args), "wall_s": o.wall, "cpu_s": o.cpu, "scale": o.scale,
             "probe_s": o.probe_s, "rss_mb": o.rss_mb, "exit": o.exit, "ok": o.ok}
            for o in runner.outcomes
        ],
        "problems": problems,
    }
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
