from __future__ import annotations

import ast
import importlib
import random
import re
from functools import lru_cache
from math import isqrt
from pathlib import Path

import pytest

import ceisen
from ceisen.arith import (
    CertificateError,
    certify,
    factorize,
    is_prime,
    kronecker,
    primes_up_to,
    squarefree_kernel,
    valuation,
)
from ceisen.qform import LevelConfig, fundamental_parts, local_factors


def test_factorize_examples():
    assert factorize(66).factors == ((2, 1), (3, 1), (11, 1))
    assert factorize(1).factors == ()
    assert factorize(2000).factors == ((2, 4), (5, 3))
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-5)


def test_factorize_roundtrip():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(1, 10**6)
        f = factorize(n)
        prod = 1
        for p, e in f.factors:
            assert is_prime(p)
            prod *= p**e
        assert prod == n == f.value


def _legendre_oracle(d: int, p: int) -> int:
    # direct definition: count square roots of d mod an odd prime
    r = d % p
    if r == 0:
        return 0
    return 1 if any((x * x) % p == r for x in range(1, p)) else -1


def test_kronecker_against_legendre_oracle():
    for p in primes_up_to(60):
        if p == 2:
            continue
        for d in range(-40, 41):
            assert kronecker(d, p) == _legendre_oracle(d, p), (d, p)


def test_kronecker_examples():
    assert kronecker(-3, 11) == -1
    assert kronecker(-8, 11) == 1
    assert kronecker(-4, 2) == 0
    with pytest.raises(ValueError):
        kronecker(5, 0)


def test_kronecker_multiplicative():
    rng = random.Random(11)
    for _ in range(300):
        d = rng.randrange(-50, 51)
        m = rng.choice([n for n in range(-30, 31) if n])
        n = rng.choice([n for n in range(-30, 31) if n])
        assert kronecker(d, m * n) == kronecker(d, m) * kronecker(d, n)


def test_kronecker_at_two_period_eight():
    for d in range(-100, 100, 2):
        assert kronecker(d, 2) == 0
    for d in (1, 7, 9, 15, 17, -1, -7):
        assert kronecker(d, 2) == 1
    for d in (3, 5, 11, 13, -3, -5):
        assert kronecker(d, 2) == -1


@lru_cache(maxsize=None)
def _local_factor_table(p: int) -> list[int]:
    return local_factors(LevelConfig.from_primes([p]), 2000)


def local_symbol(D: int, p: int) -> int:
    """χ(p) of the order of discriminant -D (D <= 2000), read back from its
    local factor 1 − χ(p) at the level P = {p}."""
    return 1 - _local_factor_table(p)[D]


def test_eichler_symbol_cases():
    assert local_symbol(3, 11) == -1  # 11 coprime to 3
    assert local_symbol(11, 11) == 0  # divides exactly once
    assert local_symbol(12, 2) == 1  # 2 divides the conductor of -12
    assert local_symbol(15, 3) == 0  # p exactly divides
    assert local_symbol(3, 3) == 0
    assert local_symbol(27, 3) == 1  # conductor 3
    # even fundamental parts report ramification at 2, despite 4 | D
    assert local_symbol(4, 2) == 0
    assert local_symbol(8, 2) == 0
    assert local_symbol(16, 2) == 1  # -16 = -4·2², conductor 2
    assert local_symbol(20, 2) == 0  # -20 fundamental, even
    assert local_symbol(32, 2) == 1  # -32 = -8·2², conductor 2
    assert local_symbol(28, 2) == 1  # -28 = -7·2², conductor 2
    assert local_symbol(7, 2) == 1  # -7 ≡ 1 (mod 8): 2 splits


def test_eichler_symbol_matches_kronecker_on_coprime_part():
    parts = fundamental_parts(2000)
    for D in range(3, 2001):
        if parts[D]:
            for p in primes_up_to(50):
                if D % p:
                    assert local_symbol(D, p) == kronecker(-D, p), (D, p)


def test_valuation_and_kernel():
    assert valuation(48, 2) == 4
    assert squarefree_kernel(-66) == -66
    assert squarefree_kernel(72) == 2
    assert squarefree_kernel(-4) == -1


def test_discriminant_metadata():
    parts = fundamental_parts(27)
    assert parts[4] == 4  # -4 fundamental
    assert parts[12] == 3  # -12 = -3·2²
    assert parts[27] == 3  # -27 = -3·3²
    assert parts[:3] == [0, 0, 0] and parts[5] == parts[6] == 0  # not discriminants
    parts[4] = 99  # a fresh list each call
    assert fundamental_parts(27)[4] == 4
    assert fundamental_parts(0) == [0]
    with pytest.raises(ValueError):
        fundamental_parts(-1)


def scan_discriminant(d: int) -> tuple[int, bool, int]:
    """Reference: the conductor is the largest g with g² | d and d/g² ≡ 0, 1 (mod 4)."""
    f = 1
    for g in range(2, isqrt(-d) + 1):
        if d % (g * g) == 0 and (d // (g * g)) % 4 in (0, 1):
            f = g
    return d, f == 1, f


def test_discriminant_matches_conductor_scan():
    parts = fundamental_parts(20000)
    assert len(parts) == 20001
    for n in range(20001):
        if n >= 3 and (-n) % 4 in (0, 1):
            _, is_fundamental, f = scan_discriminant(-n)
            assert parts[n] * f * f == n and (parts[n] == n) == is_fundamental, n
        else:
            assert parts[n] == 0, n


def test_fundamental_discriminant_of_field():
    # -F[4D] is the discriminant of Q(sqrt(-D)), fundamental at -D iff F[4D] == D
    parts = fundamental_parts(200)
    assert parts[4 * 1] == 4
    assert parts[4 * 3] == 3
    assert parts[4 * 4] == 4
    assert parts[4 * 47] == 47
    assert parts[4 * 50] == 8
    for D in range(1, 51):
        assert (parts[4 * D] == D) == (parts[D] == D), D


def test_certify_raises_certificate_error():
    certify(True, "never raised")
    with pytest.raises(CertificateError, match="^exact identity failed$"):
        certify(False, "exact identity failed")
    # existing `except ArithmeticError` handlers still catch it
    assert issubclass(CertificateError, ArithmeticError)
    assert ceisen.CertificateError is CertificateError


# The exceptions src may raise: each reports bad input.  A failed exact
# identity is a certify(...) call instead.  AttributeError is what a module
# `__getattr__` must raise for a name it does not have (PEP 562).
INPUT_ERRORS = {"ValueError", "CacheError", "CongruencePreconditionError", "AlgebraSearchError",
                "AttributeError"}


def _raises(node, func=None):
    """(enclosing function, raised name or None for a bare raise) for every
    raise statement under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Raise):
            exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
            yield func, None if exc is None else getattr(exc, "id", ast.unparse(exc))
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
        yield from _raises(child, inner)


def test_src_certificates_use_certify():
    # an `assert` vanishes under `python -O`, and an exception class of its own
    # for an identity that cannot fail is a second idiom: every certificate in
    # src is one certify(...) call, and every other raise reports bad input.
    # A module's private names stay its own: no module of the package imports
    # another's `_name`.  Value types are NamedTuples: no module imports
    # `dataclasses`, whose import alone costs every invocation several ms.
    asserts, raises, private, dataclass_imports = [], [], [], []
    for path in sorted(Path(ceisen.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        asserts += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                    if isinstance(node, ast.Assert)]
        raises += [(path.name, func, name) for func, name in _raises(tree)
                   if name not in INPUT_ERRORS]
        private += [f"{path.name}:{node.lineno}:{alias.name}" for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)
                    and (node.level or (node.module or "").startswith("ceisen"))
                    for alias in node.names if alias.name.startswith("_")]
        dataclass_imports += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                              if (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")
                              or (isinstance(node, ast.Import)
                                  and any(alias.name == "dataclasses" for alias in node.names))]
    assert asserts == []
    assert private == []
    assert dataclass_imports == []
    # the one raise of CertificateError, in certify, and the snapshot writer's
    # re-raise after it removes its temp file
    assert raises == [("arith.py", "certify", "CertificateError"),
                      ("cli.py", "_write_snapshot", None)]


# Certificates that no test trips, each with the reason no input reaches it.
# The list may only shrink: a test that trips one of them, with an input or
# through a patched helper, takes it off.
UNTRIPPED_CERTIFICATES = {
    "Faddeev-LeVerrier trace not divisible by k",  # charpoly over integer matrices
}


def _certificate_templates():
    """{template: longest literal piece} for every certify(...) call in src;
    an f-string's fields are written {}."""
    out = {}
    for path in sorted(Path(ceisen.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "certify":
                msg = node.args[1]
                pieces = [msg.value] if isinstance(msg, ast.Constant) else [
                    v.value if isinstance(v, ast.Constant) else None for v in msg.values]
                template = "".join("{}" if x is None else x for x in pieces)
                out[template] = max((x.strip() for x in pieces if x), key=len)
    return out


def _certificate_patterns():
    """The match= pattern of every pytest.raises(CertificateError or CacheError)
    in the tests: an f-string's fields become .*, and a name stands for every
    string in its test function."""
    patterns = set()
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, ast.FunctionDef):
                continue
            for call in ast.walk(func):
                if not (isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "raises"
                        and getattr(call.args[0], "id", None) in ("CertificateError", "CacheError")):
                    continue
                for kw in call.keywords:
                    if kw.arg != "match":
                        continue
                    if isinstance(kw.value, ast.Constant):
                        patterns.add(kw.value.value)
                    elif isinstance(kw.value, ast.JoinedStr):
                        patterns.add("".join(v.value if isinstance(v, ast.Constant) else ".*"
                                             for v in kw.value.values))
                    else:
                        patterns.update(n.value for n in ast.walk(func)
                                        if isinstance(n, ast.Constant) and isinstance(n.value, str))
    return patterns


def test_every_certificate_is_tripped():
    # a pattern trips a template when it finds the template's text or holds
    # its longest literal piece, and finds no other template; every template
    # is tripped by some test or pinned on UNTRIPPED_CERTIFICATES
    templates = _certificate_templates()
    tripped = set()
    for pattern in _certificate_patterns():
        text = re.sub(r"\\(.)", r"\1", pattern)  # the pattern's escapes undone
        hits = [t for t, piece in templates.items() if re.search(pattern, t) or piece in text]
        if len(hits) == 1:
            tripped.update(hits)
    untested = sorted(set(templates) - tripped - UNTRIPPED_CERTIFICATES)
    assert untested == [], f"no test trips these certificates: {untested}"
    assert UNTRIPPED_CERTIFICATES <= set(templates) - tripped
    assert len(UNTRIPPED_CERTIFICATES) <= 1


def _imported_names(tree, lines):
    """(line, bound name) of every import in the module, except `__future__`
    imports and lines marked `# noqa: F401`."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__" or "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]


def test_src_imports_are_used():
    # every name a src module imports is used in it (a name in `__all__`
    # counts), and the modules that compute on integer rows do not import
    # `fractions`: an import left behind by a refactor fails here
    unused, fraction_imports = [], []
    for path in sorted(Path(ceisen.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        module = importlib.import_module("ceisen" if path.stem == "__init__" else f"ceisen.{path.stem}")
        used.update(getattr(module, "__all__", ()))
        unused += [f"{path.name}:{line}:{name}"
                   for line, name in _imported_names(tree, text.splitlines()) if name not in used]
        if path.stem in ("linalg", "lattice", "quatalg"):
            fraction_imports += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                                 if (isinstance(node, ast.ImportFrom) and node.module == "fractions")
                                 or (isinstance(node, ast.Import)
                                     and any(alias.name == "fractions" for alias in node.names))]
    assert unused == []
    assert fraction_imports == []


def test_noqa_imports_are_the_tracer_sites():
    # `# noqa: F401` exempts an import from the check above.  Only two imports
    # may carry it: the functions that no src code calls and that
    # benchmarks/tracer.py wraps where they are imported
    marked = []
    for path in sorted(Path(ceisen.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        imports = {node.lineno: [alias.name for alias in node.names]
                   for node in ast.walk(ast.parse(text))
                   if isinstance(node, (ast.Import, ast.ImportFrom))}
        marked += [(path.name, imports.get(k)) for k, line in enumerate(text.splitlines(), 1)
                   if "# noqa: F401" in line]
    assert marked == [("brandt.py", ["charpoly"]), ("cli.py", ["prefill_counts"])]
