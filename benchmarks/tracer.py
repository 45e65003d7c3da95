"""Run one ceisen CLI invocation with spans around the package's public functions.

Usage: python benchmarks/tracer.py SPANS_JSON RUN_ID -- CLI_ARGS...

Each function named in WRAPPED is replaced, in the module where its caller
looks it up, by a wrapper that records a span (id, parent, name, start, end,
busy time, count).  `ceisen.cli.main(CLI_ARGS)` then runs exactly as under the
console script: its stdout is untouched and the exit code is passed on.  Spans
stay in memory and are written to SPANS_JSON once, when the invocation ends.

The span stack is a plain list, so this is only valid for single-threaded
runs (`--threads 1`).
"""

from __future__ import annotations

import time

T_START = time.monotonic()

import functools  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

import ceisen.cli  # noqa: E402

T_IMPORTED = time.monotonic()

# (span name, [(module, attribute) where a caller looks the function up])
WRAPPED = [
    ("quatalg.construct_algebra", [("ceisen.quatalg", "construct_algebra")]),
    ("order.build_class_set", [("ceisen.cli", "build_class_set")]),
    ("order.classes_from_json", [("ceisen.cli", "classes_from_json")]),
    ("order.maximal_order", [("ceisen.order", "maximal_order")]),
    ("order.eichler_order", [("ceisen.order", "eichler_order")]),
    ("order.left_ideal_classes", [("ceisen.order", "left_ideal_classes")]),
    ("order.is_equivalent", [("ceisen.order", "is_equivalent")]),
    ("order.reduce_ideal", [("ceisen.order", "reduce_ideal")]),
    ("order.right_order", [("ceisen.order", "right_order")]),
    ("order.unit_count", [("ceisen.order", "unit_count")]),
    ("order.product_lattice", [("ceisen.order", "product_lattice"),
                               ("ceisen.brandt", "product_lattice")]),
    ("theta32.prefill_counts", [("ceisen.cli", "prefill_counts")]),
    ("theta32.cohen_H", [("ceisen.cli", "cohen_H")]),
    ("theta32.cusp_G", [("ceisen.verify", "cusp_G")]),
    ("theta32.counts_with_primitive", [("ceisen.theta32", "counts_with_primitive")]),
    ("qform.closed_form_H", [("ceisen.cli", "closed_form_H")]),
    ("qform.class_number", [("ceisen.cli", "class_number"),
                            ("ceisen.qform", "class_number"),
                            ("ceisen.verify", "class_number"),
                            ("ceisen.theta32", "class_number")]),
    ("brandt.brandt_matrices_upto", [("ceisen.cli", "brandt_matrices_upto")]),
    ("brandt.rational_eigensystem", [("ceisen.cli", "rational_eigensystem")]),
    ("brandt.counts_by_value", [("ceisen.brandt", "counts_by_value")]),
    ("linalg.charpoly", [("ceisen.brandt", "charpoly")]),
    ("linalg.mat_mul", [("ceisen.brandt", "mat_mul"), ("ceisen.linalg", "mat_mul")]),
    ("verify.best_coefficient_congruence", [("ceisen.cli", "best_coefficient_congruence")]),
    ("verify.divisibility_table", [("ceisen.cli", "divisibility_table")]),
]

# What a span's `count` field holds, for spans where it is not 1.
COUNTERS = {
    "order.is_equivalent": lambda result: int(bool(result)),
    "order.build_class_set": lambda result: result.n,
    "order.classes_from_json": lambda result: result.n,
    "order.left_ideal_classes": lambda result: result.n,
}


class Tracer:
    """Collects spans for one CLI invocation."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stack = [0]  # span ids; 0 is the root
        self.next_id = 1

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.next_id
            self.next_id += 1
            parent = self.stack[-1]
            self.stack.append(sid)
            count = 0
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                count = counter(result) if counter else 1
                return result
            finally:
                t1 = perf_counter()
                self.stack.pop()
                self.spans.append((sid, parent, name, t0, t1, t1 - t0, count))

        return traced

    def wrap_points(self, fn):
        """Wrap the generator `points_up_to`.

        Its span runs from the first request to the generator's close, which
        also happens on an early exit such as `exists_value` returning True.
        Busy time counts only the time spent inside the generator, and the
        span's count is the number of vectors it yielded.  The span is not
        pushed on the stack: the caller's own code runs between two yields.
        """

        @functools.wraps(fn)
        def traced(G, bound):
            sid = self.next_id
            self.next_id += 1
            parent = self.stack[-1]
            gen = fn(G, bound)
            points = 0
            busy = 0.0
            t0 = perf_counter()
            try:
                while True:
                    t = perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        busy += perf_counter() - t
                        return
                    busy += perf_counter() - t
                    points += 1
                    yield item
            finally:
                gen.close()
                t1 = perf_counter()
                self.spans.append((sid, parent, "lattice.points_up_to", t0, t1, busy, points))

        return traced

    def install(self) -> list[str]:
        """Replace every wrapped name; return the lookup sites that do not exist."""
        missing = []
        for name, sites in WRAPPED:
            for module_name, attr in sites:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    missing.append(f"{module_name}.{attr}")
                else:
                    setattr(module, attr, self.wrap(name, fn))
        lattice = importlib.import_module("ceisen.lattice")
        lattice.points_up_to = self.wrap_points(lattice.points_up_to)
        return missing


def main() -> int:
    spans_path, run_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_JSON RUN_ID -- CLI_ARGS...")
    qform = importlib.import_module("ceisen.qform")
    class_number = qform.class_number  # the lru_cache object, before wrapping
    tracer = Tracer()
    missing = tracer.install()
    if missing:
        print("tracer: no function at " + ", ".join(missing), file=sys.stderr)
    rc = None
    try:
        rc = tracer.wrap("cli.main", ceisen.cli.main)(argv)
    finally:
        sys.stdout.flush()
        record = {
            "run_id": run_id,
            "t_start": T_START,
            "t_imported": T_IMPORTED,
            "exit": rc,
            "class_number_misses": class_number.cache_info().misses,
            "missing": missing,
            "spans": tracer.spans,
        }
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
