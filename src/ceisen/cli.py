"""Command-line front end.

Subcommands:
  hseries   dual computation of the weight-3/2 Eisenstein coefficients
            (theta side vs. closed class-number formula), emitted as a table;
  verify    named verification suites (mass, rowsum, trace, hecke, congruence);
  shatable  mod-l divisibility comparison between cusp coefficients m_D and
            class numbers h(-D) over the admissible fundamental family;
  classnum  imaginary quadratic class numbers h(-D), u(-D) for -D a discriminant.

Exit codes: 0 success / all checks pass, 1 a verified identity failed,
2 configuration or precondition error (an unwritable --out or --cache-dir too).  All arithmetic is exact; output is
byte-identical across runs and thread counts for the same configuration.

Each process imports only what its subcommand runs: hseries, classnum and
the mass suite never import `brandt` or `verify`, which shatable and the
other suites bind on first use, and `json` is imported by the snapshot
reader and writer and by --format json alone.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import operator
import os
import sys
from fractions import Fraction
from importlib import import_module
from math import gcd, isqrt

from .arith import CongruencePreconditionError, is_prime
from .linalg import mat_mul
from .order import CacheError, build_class_set, classes_from_json, classes_to_json
from .qform import (
    LevelConfig,
    class_number,
    class_numbers,
    closed_form_H,
    field_class_numbers,
    fundamental_parts,
    mass,
    unit_factor,
)
from .theta32 import cohen_H
from .theta32 import prefill_counts  # noqa: F401  no caller; benchmarks/tracer.py wraps it at this site

# The Brandt-side names, by home module.  `cmd_shatable` and every verify
# suite but mass bind them all with `_bind_brandt_side` before they read any,
# so hseries, classnum and the mass suite never import brandt or verify.
_BRANDT_SIDE = (
    ("brandt", ("brandt_matrices_upto", "expected_row_sum", "rational_eigensystem")),
    ("verify", ("DivisibilityRow", "admissible_fundamental_Ds", "best_coefficient_congruence",
                "divisibility_table", "eigenvalue_congruence", "trace_identity_check")),
)


def _bind_brandt_side() -> None:
    """Bind each Brandt-side name in this module, except one already bound:
    a wrapper or monkeypatch set on the module before first use stays."""
    g = globals()
    for module, names in _BRANDT_SIDE:
        home = import_module(f".{module}", __package__)
        for name in names:
            g.setdefault(name, getattr(home, name))


def __getattr__(name: str):
    """A Brandt-side name read from outside, as `getattr(cli, name)`, binds them all."""
    if not any(name in names for _, names in _BRANDT_SIDE):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind_brandt_side()
    return globals()[name]


EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2


def _check_flags(args: argparse.Namespace) -> None:
    """Check the flags that every subcommand takes."""
    if args.dmax < 0:
        raise ValueError("--dmax must be >= 0")
    if args.mmax < 0:
        raise ValueError("--mmax must be >= 0")
    if args.threads < 1:
        raise ValueError("--threads must be >= 1")
    if args.l is not None and (args.l == 2 or not is_prime(args.l)):
        raise ValueError("--l must be an odd prime")


def _level(args: argparse.Namespace) -> LevelConfig:
    """The level that --ramified and --M name."""
    if not args.ramified:
        raise ValueError("--ramified is required for this subcommand")
    ramified = tuple(int(tok) for tok in args.ramified.split(",") if tok)
    if not ramified:
        raise ValueError("--ramified must list at least one prime")
    return LevelConfig.from_primes(ramified, args.M)


# ---------------------------------------------------------------------------
# output helpers


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _cells(column) -> list[str]:
    """A column's CSV cells; bools are compared by identity, since 1 == True."""
    return ["true" if x is True else "false" if x is False else str(x) for x in column]


def _emit(args: argparse.Namespace, header: list[str] | tuple[str, ...], columns: list, json_extra: dict,
          stderr_summary: str | None = None) -> None:
    """Emit one table, given by its columns, as CSV (header + rows) or JSON
    (row objects + extras).  There is one column per header name, all of one
    length, or no column at all for a table with no rows, as zip(*rows)
    gives it."""
    if args.format == "csv":
        lines = [",".join(header), *map(",".join, zip(*map(_cells, columns), strict=True))]
        _write("\n".join(lines) + "\n", args.out)
        if stderr_summary is not None:
            print(stderr_summary, file=sys.stderr)
    else:
        import json

        obj = dict(json_extra)
        obj["rows"] = [dict(zip(header, row)) for row in zip(*columns, strict=True)]
        _write(json.dumps(obj, indent=2, default=str) + "\n", args.out)


def _config_json(level: LevelConfig) -> dict:
    """The level's sorted, distinct ramified primes and M, however --ramified is spelled."""
    return {"ramified": list(level.ramified), "M": level.M.value}


# ---------------------------------------------------------------------------
# class-set construction with a transparent cache


def _cache_path(cache_dir: str, level: LevelConfig) -> str:
    """The snapshot file of the level: named by its sorted, distinct ramified
    primes, so every spelling of --ramified for one level shares it."""
    name = f"classes_{'-'.join(map(str, level.ramified))}_M{level.M.value}.json"
    return os.path.join(cache_dir, name)


def _get_classes(cache_dir: str | None, level: LevelConfig):
    """The level's class set, read or built.  It lives until exit and holds no
    reference cycle, so it and the imports are frozen out of the collector's
    generations: no full collection, in the run or at exit, scans them.  So is
    any cyclic garbage of an in-process caller of `main`, never to be collected."""
    classes = _load_or_build_classes(cache_dir, level)
    gc.freeze()
    return classes


def _load_or_build_classes(cache_dir: str | None, level: LevelConfig):
    if cache_dir is None:
        return build_class_set(level)
    import json

    os.makedirs(cache_dir, exist_ok=True)
    path = _cache_path(cache_dir, level)
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            classes = classes_from_json(data)
            got = classes.cfg
            if got != level:
                raise CacheError(f"snapshot is for P={got.P.value}, M={got.M.value}, "
                                 f"not P={level.P.value}, M={level.M.value}")
            return classes
        except (CacheError, ValueError, KeyError, TypeError, OSError) as e:
            print(f"ceisen: rebuilding {path}: {type(e).__name__}: {e}", file=sys.stderr)
    classes = build_class_set(level)
    _write_snapshot(path, classes)
    return classes


def _write_snapshot(path: str, classes) -> None:
    """Write the class-set snapshot so that readers see the old file or the
    whole new one: dump to a temp file in the same directory, then rename it
    onto `path`.  A failed or interrupted dump removes the temp file."""
    import json

    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(classes_to_json(classes), fh, indent=2)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


# ---------------------------------------------------------------------------
# subcommands


def _hseries_columns(level: LevelConfig, D_max: int) -> tuple[list, list, list, list]:
    """The columns fundamental, s, h, u of the hseries rows D = 0..D_max.

    -n0 is the discriminant of Q(sqrt(-D)), and -D is fundamental iff n0 == D:
    n0 = F[D] if -D is a discriminant, else 4D' for D' ≡ D ≡ 1, 2 (mod 4) the
    squarefree part of D, set along D'·f², f odd, from the least such D'.  s
    counts the level primes dividing D, one slice per prime.  h(-n0) is a
    class_number lookup when n0 <= D_max, else field_class_numbers(D_max)[D'].
    Row 0 holds false, 0, 0, 1.
    """
    n0 = fundamental_parts(D_max)
    for m in range(1, D_max + 1):
        if m % 4 in (1, 2) and not n0[m]:
            for f in range(1, isqrt(D_max // m) + 1, 2):
                n0[m * f * f] = 4 * m
    s = [0] * (D_max + 1)
    for p in (*level.P.primes, *level.M.primes):
        s[p::p] = [x + 1 for x in s[p::p]]
    fund = [D > 0 and n == D for D, n in enumerate(n0)]
    hf = field_class_numbers(D_max)
    h = [0] + [class_number(-n) if n <= D_max else hf[n // 4] for n in n0[1:]]
    u = [1] + [unit_factor(-n) for n in n0[1:]]
    return fund, s, h, u


def cmd_hseries(args: argparse.Namespace) -> int:
    level = _level(args)
    classes = _get_classes(args.cache_dir, level)
    # closed_form_H sizes the class-number table to D_max, all that the
    # h column's class_number lookups read.  Fraction.__str__ is canonical
    # (lowest terms, positive denominator), so two coefficients are equal
    # exactly when their strings are.
    H = list(map(str, cohen_H(classes, args.dmax)))
    C = list(map(str, closed_form_H(level, args.dmax)))
    equal = list(map(operator.eq, H, C))
    header = ["D", "H_theta", "H_closed", "equal", "fundamental", "s", "h", "u"]
    columns = [range(args.dmax + 1), H, C, equal, *_hseries_columns(level, args.dmax)]
    all_equal = all(equal)
    _emit(args, header, columns, {"config": _config_json(level), "all_equal": all_equal})
    return EXIT_OK if all_equal else EXIT_FAIL


def cmd_classnum(args: argparse.Namespace) -> int:
    if args.dmax < 3:
        raise ValueError("--dmax must be >= 3 for classnum")
    header = ["D", "fundamental", "h", "u"]
    F = fundamental_parts(args.dmax)
    h = class_numbers(args.dmax)
    Ds = [D for D in range(3, args.dmax + 1) if F[D]]
    columns = [Ds, [F[D] == D for D in Ds], [h[D] for D in Ds], [unit_factor(-D) for D in Ds]]
    _emit(args, header, columns, {"D_max": args.dmax})
    return EXIT_OK


def _suite_mass(args: argparse.Namespace, classes) -> list[tuple[str, str, bool]]:
    total = classes.total_mass()
    expected = mass(classes.cfg)
    return [("mass", f"computed={total};expected={expected}", total == expected)]


def _rowsum_checks(level: LevelConfig, mats) -> list[tuple[str, str, bool]]:
    checks = []
    for m in range(1, len(mats)):
        sums = list(map(sum, mats[m]))
        expected = expected_row_sum(m, level)
        ok = all(s == expected for s in sums)
        observed = sums[0] if len(set(sums)) == 1 else "nonconstant"
        checks.append((f"rowsum:m={m}", f"observed={observed};expected={expected}", ok))
    return checks


def _suite_trace(args: argparse.Namespace, classes) -> list[tuple[str, str, bool]]:
    return [
        (f"trace:m={row.m}", f"lhs={row.lhs};rhs={row.rhs}", row.ok)
        for row in trace_identity_check(classes, args.mmax)
    ]


def _suite_hecke(args: argparse.Namespace, classes) -> list[tuple[str, str, bool]]:
    level, m_max = classes.cfg, args.mmax
    mats = brandt_matrices_upto(classes, m_max)
    n = classes.n
    identity = mats[1] == [[int(i == j) for j in range(n)] for i in range(n)]
    checks = [("hecke:B1", "B_1 is the identity", identity)]
    u_ok = all(ok for *_, ok in _rowsum_checks(level, mats))
    checks.append(("hecke:u", f"all-ones eigenvector for m<={m_max}", u_ok))
    for m in range(2, m_max + 1):
        for mp in range(m + 1, m_max // m + 1):
            if gcd(m, mp) != 1 or gcd(m * mp, level.N) != 1:
                continue
            ok = mat_mul(mats[m], mats[mp]) == mats[m * mp]
            checks.append(
                (f"hecke:mult:{m}x{mp}", f"B_{m}*B_{mp}==B_{m * mp}", ok)
            )
    return checks


def _suite_congruence(args: argparse.Namespace, classes) -> list[tuple[str, str, bool]]:
    eig = rational_eigensystem(classes)
    H = cohen_H(classes, args.dmax)
    coef, v_used = best_coefficient_congruence(classes, eig, H, args.l)
    p_max = max(args.mmax, 2)
    eig_failures = eigenvalue_congruence(classes, v_used, args.l, p_max)
    checks = [
        (
            "congruence:eigenvalue",
            f"l={args.l};p_max={p_max};failures={len(eig_failures)}",
            not eig_failures,
        )
    ]
    for p, lhs, rhs in eig_failures[:10]:
        checks.append((f"congruence:eigenvalue:p={p}", f"a_p={lhs};expected={rhs}", False))
    checks.append(
        (
            "congruence:lambda",
            f"lambda={coef.lam};reason={coef.reason};D_max={coef.checked_max};"
            f"failures={len(coef.failures)};line={list(v_used)}",
            coef.passed,
        )
    )
    for D, lhs, rhs in coef.failures[:10]:
        checks.append((f"congruence:coefficient:D={D}", f"lhs={lhs};rhs={rhs}", False))
    return checks


# Each suite takes the parsed flags and the class set, whose cfg is the level.
_SUITES = {
    "mass": _suite_mass,
    "rowsum": lambda args, classes: _rowsum_checks(classes.cfg, brandt_matrices_upto(classes, args.mmax)),
    "trace": _suite_trace,
    "hecke": _suite_hecke,
    "congruence": _suite_congruence,
}


def cmd_verify(args: argparse.Namespace) -> int:
    if args.suite != "mass":
        _bind_brandt_side()
    level = _level(args)
    if args.suite == "congruence" and args.l is None:
        raise ValueError("the congruence suite requires --l")
    if args.suite in ("hecke", "rowsum", "trace") and args.mmax < 1:
        raise ValueError(f"the {args.suite} suite needs --mmax >= 1")
    classes = _get_classes(args.cache_dir, level)
    checks = _SUITES[args.suite](args, classes)
    passed = all(ok for _, _, ok in checks)
    _emit(
        args, ["check", "detail", "passed"], list(zip(*checks)),
        {"config": _config_json(level), "suite": args.suite, "passed": passed},
    )
    return EXIT_OK if passed else EXIT_FAIL


def cmd_shatable(args: argparse.Namespace) -> int:
    _bind_brandt_side()
    level = _level(args)
    if args.l is None:
        raise ValueError("shatable requires --l")
    if not admissible_fundamental_Ds(level, args.dmax):
        raise ValueError(f"no admissible fundamental D <= {args.dmax}; raise --dmax")
    classes = _get_classes(args.cache_dir, level)
    eig = rational_eigensystem(classes)
    H = cohen_H(classes, args.dmax)
    coef, v_used = best_coefficient_congruence(classes, eig, H, args.l)
    table = divisibility_table(classes, v_used, args.l, args.dmax)
    agree = sum(1 for row in table if row.agree)
    total = len(table)
    rate = Fraction(agree, total)
    summary = f"lambda={coef.lam};agree={agree}/{total};rate={rate}"
    _emit(
        args, DivisibilityRow._fields, list(zip(*table)),
        {
            "config": _config_json(level),
            "l": args.l,
            "lambda": coef.lam,
            "line": list(v_used),
            "agree": agree,
            "total": total,
            "agreement_rate": str(rate),
        },
        stderr_summary=summary,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ceisen",
        description="Exact weight-3/2 Eisenstein coefficients from quaternion "
        "ideal classes, with verification suites.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--ramified", default=None,
                        help="comma-separated ramified primes, e.g. 2,3,11")
    common.add_argument("--M", type=int, default=1,
                        help="square-free auxiliary level coprime to the ramified part")
    common.add_argument("--dmax", type=int, default=2000,
                        help="largest coefficient index D (default 2000)")
    common.add_argument("--mmax", type=int, default=30,
                        help="largest Brandt index m; also the prime bound of the "
                        "congruence eigenvalue check (default 30)")
    common.add_argument("--l", type=int, default=None, help="odd prime modulus")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--cache-dir", default=None,
                        help="directory for class-set snapshots (validated on load)")
    common.add_argument("--out", default=None, help="output file (default stdout)")
    common.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility (must be >= 1); has no effect, "
                        "every run is serial")

    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("hseries", parents=[common],
                       help="coefficient table: theta side vs. closed formula")
    p.set_defaults(func=cmd_hseries)
    p = sub.add_parser("verify", parents=[common], help="run one verification suite")
    p.add_argument("--suite", choices=tuple(_SUITES), required=True)
    p.set_defaults(func=cmd_verify)
    p = sub.add_parser("shatable", parents=[common],
                       help="mod-l divisibility of m_D vs. h(-D)")
    p.set_defaults(func=cmd_shatable)
    p = sub.add_parser("classnum", parents=[common],
                       help="class numbers h(-D), u(-D) for -D a discriminant")
    p.set_defaults(func=cmd_classnum)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check_flags(args)
        return args.func(args)
    except (ValueError, CongruencePreconditionError, OSError) as exc:
        print(f"ceisen: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())
