"""Tests of the benchmark itself: its declared metrics, pins, span arithmetic
and the determinism of the traced counts.  Run with `python3 -m pytest -q benchmarks`."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_every_invocation_is_pinned():
    pins = json.loads((BENCH / "expected.json").read_text())
    for wl in run.WORKLOADS.values():
        for args in wl.invocations + wl.snapshot_builds:
            pin = pins[run.pin_key(tuple(args) + ("--threads", "1"))]
            assert pin["exit"] == 0 and len(pin["sha256"]) == 64


def test_points_span_closes_on_early_exit():
    t = tracer.Tracer()
    points = t.wrap_points(lambda G, bound: (p for p in [((1,), 1), ((2,), 4), ((3,), 9)]))
    for coords, _ in points(None, None):
        if coords == (2,):
            break
    assert [(s[2], s[6]) for s in t.spans] == [("lattice.points_up_to", 2)]


def test_layer_metrics_from_spans():
    # cli.main(0..10) > classes_from_json(1..3, n=2) and counts_by_value(4..8) > points
    spans = [
        (2, 1, "order.classes_from_json", 1.0, 3.0, 2.0, 2),
        (4, 3, "lattice.points_up_to", 4.0, 8.0, 3.0, 7),
        (3, 1, "brandt.counts_by_value", 4.0, 8.0, 4.0, 1),
        (5, 1, "order.is_equivalent", 8.0, 9.0, 1.0, 1),
        (6, 1, "order.is_equivalent", 9.0, 9.5, 0.5, 0),
        (1, 0, "cli.main", 0.0, 10.0, 10.0, 1),
    ]
    record = {"spans": spans, "t_imported": 5.25, "class_number_misses": 3}
    outcome = run.Outcome(("hseries",), t_spawn=5.0, wall=10.5, cpu=10.0, rss_mb=20.0,
                          exit=0, ok=True, scale=1.0)
    m = run.layer_metrics([(record, outcome)])
    assert m["cli.self_s"] == 10.0 - (2.0 + 4.0 + 1.0 + 0.5)
    assert m["cli.startup_s"] == 0.25
    assert m["order.classes_from_json.s"] == 2.0
    assert m["lattice.points.pair"] == 7 and m["lattice.points.walk"] == 0
    assert m["lattice.us_per_point.pair"] == pytest.approx(1e6 * 3.0 / 7)
    assert m["brandt.pair_enumerations"] == 1
    assert m["brandt.pair_reuse_ratio"] == 3.0  # n(n+1)/2 = 3 pairs, one enumeration
    assert (m["order.is_equivalent.calls"], m["order.is_equivalent.hits"]) == (2, 1)
    assert m["order.is_equivalent.hit_rate"] == 0.5
    assert m["qform.class_number.misses"] == 3
    assert set(m) == set(run.PER_LAYER) - {"trace.overhead_s"}


def _traced_counts(tmp_path: Path, tag: str) -> dict:
    """Count metrics of one traced pass over small inputs that reach the
    ternary, walk and pair enumerations; stdout must match an untraced run."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    invocations = [
        ["hseries", "--ramified", "11", "--dmax", "300"],
        ["verify", "--suite", "hecke", "--ramified", "2,3,7", "--M", "5", "--mmax", "12"],
    ]
    records = []
    for k, args in enumerate(invocations):
        argv = args + ["--threads", "1", "--cache-dir", str(tmp_path / f"{tag}{k}")]
        spans = tmp_path / f"{tag}{k}.json"
        traced = subprocess.run(
            [sys.executable, str(BENCH / "tracer.py"), str(spans), f"{tag}/{k}", "--", *argv],
            cwd=ROOT, env=env, capture_output=True, timeout=120)
        plain = subprocess.run([sys.executable, "-c", run.CLI, *argv],
                               cwd=ROOT, env=env, capture_output=True, timeout=120)
        assert traced.returncode == plain.returncode == 0
        assert traced.stdout == plain.stdout
        outcome = run.Outcome(tuple(args), t_spawn=0.0, wall=0.0, cpu=0.0, rss_mb=0.0,
                              exit=0, ok=True)
        records.append((json.loads(spans.read_text()), outcome))
    m = run.layer_metrics(records)
    return {name: m[name] for name, unit in run.PER_LAYER.items()
            if unit in ("count", "ratio") and name != "trace.overhead_s"}


def test_traced_counts_repeat_exactly(tmp_path):
    first = _traced_counts(tmp_path, "a")
    second = _traced_counts(tmp_path, "b")
    assert first == second
    for name in ("lattice.points.ternary", "lattice.points.walk", "lattice.points.pair",
                 "order.is_equivalent.calls", "brandt.pair_enumerations",
                 "qform.class_number.misses"):
        assert first[name] > 0, name
