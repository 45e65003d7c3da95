import argparse
import ast
import contextlib
import gc
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import ceisen
from ceisen import cli
from ceisen.brandt import brandt_matrices_upto
from ceisen.cli import main
from ceisen.order import classes_from_json
from ceisen.qform import LevelConfig, class_number, fundamental_parts, s_ramified, unit_factor


def run(args):
    """Invoke the CLI in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(args)
        except SystemExit as exc:  # argparse errors
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# exit codes


def test_hseries_all_equal_exit_zero():
    rc, out, _ = run(["hseries", "--ramified", "11", "--dmax", "40"])
    assert rc == 0
    assert all(",true," in line or line.startswith("D,")
               for line in out.strip().split("\n"))


# argparse's own error, the one that test_config_error_messages does not run;
# it keeps the id argv10 that test selections name
@pytest.mark.parametrize("argv", [["verify", "--suite", "nope", "--ramified", "11"]], ids=["argv10"])
def test_config_errors_exit_two(argv):
    rc, _, _ = run(argv)
    assert rc == 2


@pytest.mark.parametrize("argv, message", [
    (["hseries", "--ramified", "2,3"], "ramified part needs an odd number of primes"),
    (["hseries", "--ramified", "4"], "4 is not prime"),
    (["hseries", "--ramified", "11", "--M", "4"], "level parts must be squarefree"),
    (["hseries", "--ramified", "11", "--M", "11"], "P and M must be coprime"),
    (["hseries", "--ramified", "11", "--threads", "0"], "--threads must be >= 1"),
    (["hseries", "--ramified", "11", "--l", "4"], "--l must be an odd prime"),
    (["hseries", "--ramified", "11", "--dmax", "-1"], "--dmax must be >= 0"),
    (["hseries", "--ramified", "11", "--mmax", "-1"], "--mmax must be >= 0"),
    (["hseries", "--dmax", "5"], "--ramified is required for this subcommand"),
    (["hseries", "--ramified", ","], "--ramified must list at least one prime"),
    (["verify", "--suite", "congruence", "--ramified", "11"], "the congruence suite requires --l"),
    (["shatable", "--ramified", "11"], "shatable requires --l"),
    (["classnum", "--dmax", "2"], "--dmax must be >= 3 for classnum"),
])
def test_config_error_messages(argv, message):
    # a single fault: exit 2, empty stdout and exactly one stderr line naming it
    assert run(argv) == (2, "", f"ceisen: configuration error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["hseries", "--ramified", "11", "--dmax", "5", "--out", "{tmp}/missing/table.csv"],
    ["hseries", "--ramified", "11", "--dmax", "5", "--out", "{tmp}"],
    ["verify", "--suite", "mass", "--ramified", "11", "--cache-dir", "{tmp}/file"],
], ids=["out-missing-parent", "out-is-directory", "cache-dir-is-file"])
def test_file_errors_exit_two(tmp_path, argv):
    # an unusable --out or --cache-dir is a configuration error, not a failed identity
    (tmp_path / "file").write_text("")
    rc, out, err = run([a.replace("{tmp}", str(tmp_path)) for a in argv])
    assert rc == 2 and out == ""
    assert err.startswith("ceisen: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "congruence", "--ramified", "11", "--l", "3", "--dmax", "20"],
    ["shatable", "--ramified", "11", "--l", "3", "--dmax", "20"],
    ["shatable", "--ramified", "5", "--M", "7", "--l", "3"],
], ids=["verify-11", "shatable-11", "shatable-35"])
def test_congruence_precondition_exit_two(argv):
    # l = 3 divides a unit weight (H(0) = Σ 1/e_i is not l-integral), so
    # λ·G ≡ H (mod l) is undefined: precondition, not failure, for both commands
    rc, _, err = run(argv)
    assert rc == 2
    assert "not invertible" in err


def test_hecke_suite_needs_mmax_one():
    # the suite checks B_1 = identity, so m = 0 alone is a configuration error
    rc, out, err = run(["verify", "--suite", "hecke", "--ramified", "11", "--mmax", "0"])
    assert rc == 2 and out == ""
    assert "--mmax >= 1" in err


def test_rowsum_suite_needs_mmax_one():
    # rowsum checks m = 1..mmax only, so mmax = 0 would pass with no check
    rc, out, err = run(["verify", "--suite", "rowsum", "--ramified", "11", "--mmax", "0"])
    assert rc == 2 and out == ""
    assert "the rowsum suite needs --mmax >= 1" in err


def test_trace_suite_needs_mmax_one():
    # at m = 0 both sides are the mass Σ 1/e_i, which the class set certifies
    rc, out, err = run(["verify", "--suite", "trace", "--ramified", "11", "--mmax", "0"])
    assert rc == 2 and out == ""
    assert "the trace suite needs --mmax >= 1" in err


def test_congruence_eigenvalue_check_needs_a_prime():
    # no prime p <= max(mmax, 2) = 2 is coprime to N = 66: nothing to check
    rc, out, err = run(["verify", "--suite", "congruence", "--ramified", "2,3,11",
                        "--l", "5", "--mmax", "2", "--dmax", "50"])
    assert rc == 2 and out == ""
    assert err.startswith("ceisen: configuration error: ") and err.count("\n") == 1
    assert "no prime" in err


def test_shatable_needs_an_admissible_d():
    # the first admissible fundamental D at N = 11 is 3, so --dmax 2 leaves an
    # empty family, which has no agreement rate
    rc, out, err = run(["shatable", "--ramified", "11", "--l", "5", "--dmax", "2"])
    assert rc == 2 and out == ""
    assert "no admissible fundamental D <= 2" in err


def test_negative_control_exit_one():
    rc, out, _ = run(["verify", "--suite", "congruence", "--ramified", "11",
                      "--l", "7", "--dmax", "60", "--mmax", "20"])
    assert rc == 1
    assert ",false" in out


# ---------------------------------------------------------------------------
# table contents


def test_hseries_level11_prefix():
    rc, out, _ = run(["hseries", "--ramified", "11", "--dmax", "4"])
    assert rc == 0
    assert out == (
        "D,H_theta,H_closed,equal,fundamental,s,h,u\n"
        "0,5/12,5/12,true,false,0,0,1\n"
        "1,0,0,true,false,0,1,2\n"
        "2,0,0,true,false,0,1,1\n"
        "3,1/3,1/3,true,true,0,1,3\n"
        "4,1/2,1/2,true,true,0,1,2\n"
    )


def test_hseries_sweeps_class_numbers_once(monkeypatch):
    # from a fresh table: one sieve sweep, sized to D_max by closed_form_H,
    # and one field-table build to D_max serve closed_form_H and the h column;
    # no class_number lookup reaches past D_max.  stdout is the pinned bytes
    # of the theta-deep benchmark's N = 11 invocation
    from ceisen import qform

    sweeps, builds, lookups = [], [], []
    sieve, field = qform.sieve_class_numbers, qform.field_class_numbers
    monkeypatch.setattr(qform, "_class_numbers", [])
    monkeypatch.setattr(qform, "sieve_class_numbers", lambda X: sweeps.append(X) or sieve(X))
    monkeypatch.setattr(cli, "field_class_numbers", lambda X: builds.append(X) or field(X))
    monkeypatch.setattr(cli, "class_number", lambda d: lookups.append(d) or class_number(d))
    rc, out, _ = run(["hseries", "--ramified", "11", "--dmax", "5000"])
    assert rc == 0
    assert sweeps == [5000]
    assert builds == [5000]
    assert lookups and min(lookups) >= -5000
    assert (hashlib.sha256(out.encode("utf-8")).hexdigest()
            == "81224f0a959c5b76c6de6f962d91fad03b40f41e21be78b39f7c015bc6348b54")


@pytest.mark.parametrize("ramified, M", [
    ((11,), 1),
    ((2, 3, 11), 1),
    ((3, 5, 7), 2),
    ((2, 3, 7), 5),
    ((2, 3, 5, 7, 11), 1),
], ids=["11", "66", "210-M2", "210-M5", "2310"])
def test_hseries_columns_match_per_D_functions(ramified, M):
    # the table-built columns against the per-D functions, with p = 2 in P,
    # in M and in neither; -D is fundamental iff fundamental_parts(D)[D] == D
    level = LevelConfig.from_primes(ramified, M)
    D_max = 5000
    fund, s, h, u = cli._hseries_columns(level, D_max)
    assert len(fund) == len(s) == len(h) == len(u) == D_max + 1
    assert (fund[0], s[0], h[0], u[0]) == (False, 0, 0, 1)
    F = fundamental_parts(4 * D_max)
    small = fundamental_parts(D_max)
    for D in range(1, D_max + 1):
        n0 = F[4 * D]
        assert fund[D] is (small[D] == D)
        assert s[D] == s_ramified(D, level)
        assert h[D] == class_number(-n0)
        assert u[D] == unit_factor(-n0)


# stdout sha256s of hseries at the smallest D_max: D_max = 0 is the mass row
# alone, and at D_max = 1, 2 the last row's n0 = 4·D_max lies past D_max, so
# its h comes from the field table
_SMALL_HSERIES = {
    ("11", 1): ["68f136332331e9f39db6f8c9b2d365b7f6bf88bad636a5458a1edfff1db8819e",
                "67c3901cdc68a53e865f33585d5c300d0903d8c488d262107f0c69732ab1b1b4",
                "dd9b1ee4e2867f8c9b2abe6a16fbfafd62dcf2f291ae413f11e1619faa822f02",
                "de3c82ac06051db32cf8d63b833d35bd0699a45b4fab986b7cbdf54c56bc2932",
                "e10bf22dc3e088865383f764d742e5aa75018aa8016baeb7ded1641505e78740",
                "1ca3a73768a6132287e14669fc9dcfe1ea8cd32c6adbe5909cd725584d3c3c1e",
                "f4211df0b01a8fea2c77ff85796be54257dac9f166ce56cfc50f8b7008b95c96"],
    ("2,3,11", 1): ["7dc35067635796c791145de275ccaf6c8f8849ae7ecd70a6b1137caf008c10c9",
                    "e7858f951f3fef823c9e3eff9e3622598b322b3fd47f4621c1646dec9f1c02b8",
                    "93d5b36f04593c1f4da99b52a79fd5276840223f2c302f7572844c484861635d",
                    "3665cda16910914f463f64c8d27cf35ee4e78ef5928f52a0b46cf031f85814a4",
                    "e6d5586426250db4d94b35c578a698f7e50c90a4fa69faef117241f50721fa7b",
                    "faf99dfd34f09a5a025decd08e335576f2474e5c4c6a2c033418b832074cee0a",
                    "31958967eee524b33b0e8ba587715224e3bb7a5c7400c0947ebffd1ef2b691f2"],
    ("2,3,7", 5): ["2e8a6de8c94cfd14f8f0f24e0bbd0c5795a12b22dc45c16c8cfe4034a25d2366",
                   "6508d53e925d8b2f1f4baf2db9f131b1a31619f6210eb5efa37e836599ca985f",
                   "6c763c42e51db6e677654ceb3bd8cf49c8e6ce88595a3e8f8bdac086a38601c4",
                   "0896d33f489789c1af7bfdbfcb8d3a7b1868d8a19570b3a20f1feab79bd174f3",
                   "680392f57b8e421f47806b967abf81c9f934983fa9b4616f626d18b132a5db8b",
                   "92b004f63210688b1458d6843e9cf9d22c99743d73512ae207daf4725b8bf8ef",
                   "6284af67a6641bf9e31aabc5efaeb84dd3cf42469f2df7b1e6f54a61f869bb27"],
}


@pytest.mark.parametrize("ramified, M", list(_SMALL_HSERIES), ids=["11", "66", "210-M5"])
def test_hseries_small_dmax_pinned(ramified, M):
    for D_max, digest in zip((0, 1, 2, 3, 4, 7, 8), _SMALL_HSERIES[ramified, M]):
        rc, out, _ = run(["hseries", "--ramified", ramified, "--M", str(M), "--dmax", str(D_max)])
        assert rc == 0
        assert len(out.split("\n")) == D_max + 3  # header, rows, final newline
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, D_max


def _emitted(fmt, header, columns):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(argparse.Namespace(format=fmt, out=None), header, columns, {"extra": 1})
    return out.getvalue()


@pytest.mark.parametrize("columns", [[], [[], [], []]], ids=["no-columns", "empty-columns"])
def test_emit_zero_rows(columns):
    # a table with no rows, as zip(*rows) gives it or as empty columns
    header = ["check", "detail", "passed"]
    assert _emitted("csv", header, columns) == "check,detail,passed\n"
    assert json.loads(_emitted("json", header, columns)) == {"extra": 1, "rows": []}


def test_emit_keeps_bools_apart_from_ints():
    # 1 == True and 0 == False, so the writer tells them apart by identity
    header = ["a", "b"]
    columns = [[1, True, 0, False], ["x", Fraction(1, 2), Fraction(3), False]]
    assert _emitted("csv", header, columns) == "a,b\n1,x\ntrue,1/2\n0,3\nfalse,false\n"
    rows = json.loads(_emitted("json", header, columns))["rows"]
    assert rows == [{"a": 1, "b": "x"}, {"a": True, "b": "1/2"},
                    {"a": 0, "b": "3"}, {"a": False, "b": False}]
    assert [type(r["a"]) for r in rows] == [int, bool, int, bool]


def test_emit_rejects_ragged_columns():
    with pytest.raises(ValueError):
        _emitted("csv", ["a", "b"], [[1, 2], [3]])


def test_hseries_json():
    rc, out, _ = run(["hseries", "--ramified", "11", "--dmax", "12",
                      "--format", "json"])
    assert rc == 0
    obj = json.loads(out)
    assert obj["all_equal"] is True
    assert obj["config"] == {"ramified": [11], "M": 1}
    assert obj["rows"][0] == {"D": 0, "H_theta": "5/12", "H_closed": "5/12",
                              "equal": True, "fundamental": False,
                              "s": 0, "h": 0, "u": 1}
    assert obj["rows"][12]["H_theta"] == "4/3"


def test_classnum_values():
    rc, out, _ = run(["classnum", "--dmax", "47"])
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "D,fundamental,h,u"
    table = {int(l.split(",")[0]): l for l in lines[1:]}
    assert table[3] == "3,true,1,3"
    assert table[4] == "4,true,1,2"
    assert table[23] == "23,true,3,1"
    assert table[47] == "47,true,5,1"
    assert table[12] == "12,false,1,1"
    assert 5 not in table and 6 not in table  # -5, -6 are not discriminants


@pytest.mark.parametrize("argv, digest", [
    (["classnum", "--dmax", "5000"],
     "4918f1305dd82ba31f198bd07b8912fdec4937bb06ca04679b13ace770e90e21"),
    (["hseries", "--ramified", "2,3,7", "--M", "5", "--dmax", "2000", "--format", "json"],
     "c775de44ab9293f1e49df2e1bb20aa41f71b696a7ca3a6cbca5f4a4479f87a45"),
], ids=["classnum", "hseries-210-json"])
def test_pinned_stdout(argv, digest):
    rc, out, _ = run(argv)
    assert rc == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_verify_suites_pass():
    for suite, extra in [
        ("mass", []),
        ("rowsum", ["--mmax", "12"]),
        ("trace", ["--mmax", "8"]),
        ("hecke", ["--mmax", "15"]),
        ("congruence", ["--l", "5", "--dmax", "60", "--mmax", "20"]),
    ]:
        rc, out, _ = run(["verify", "--suite", suite, "--ramified", "11"] + extra)
        assert rc == 0, (suite, out)
        assert out.startswith("check,detail,passed\n")
        assert ",false" not in out


def test_hecke_suite_builds_the_matrices_once(monkeypatch):
    # hecke:u reads the row sums of the suite's own matrices
    calls = []

    def counted(classes, m_max):
        calls.append(m_max)
        return brandt_matrices_upto(classes, m_max)

    monkeypatch.setattr(cli, "brandt_matrices_upto", counted)
    rc, out, _ = run(["verify", "--suite", "hecke", "--ramified", "11", "--mmax", "12"])
    assert rc == 0 and "hecke:u,all-ones eigenvector for m<=12,true" in out
    assert calls == [12]


def test_class_set_is_frozen_out_of_the_collector(tmp_path):
    # built, then read back from its snapshot: either way the class set is
    # moved to the permanent generation, which no collection scans
    args = cli._build_parser().parse_args(
        ["verify", "--suite", "mass", "--ramified", "2,3,11", "--cache-dir", str(tmp_path)])
    for _ in range(2):
        cs = cli._get_classes(args.cache_dir, cli._level(args))
        assert gc.get_freeze_count() > 0
        assert all(o is not cs and o is not cs.ideals for o in gc.get_objects())
    assert os.listdir(tmp_path) == ["classes_2-3-11_M1.json"]


def test_verify_mass_210_value():
    rc, out, _ = run(["verify", "--suite", "mass", "--ramified", "2,3,7",
                      "--M", "5", "--format", "json"])
    assert rc == 0
    obj = json.loads(out)
    assert obj["passed"] is True
    assert obj["rows"][0]["detail"] == "computed=3;expected=3"


def test_shatable_summary_and_rows():
    rc, out, err = run(["shatable", "--ramified", "11", "--l", "5",
                        "--dmax", "100"])
    assert rc == 0
    assert err.strip() == "lambda=3;agree=15/15;rate=1"
    lines = out.strip().split("\n")
    assert lines[0] == "D,fundamental,s,h,h_mod_l,m_D,m_D_mod_l,agree"
    assert lines[1] == "3,true,0,1,1,-1,4,true"
    assert all(line.endswith(",true") for line in lines[1:])


def test_shatable_json_fields():
    rc, out, _ = run(["shatable", "--ramified", "2,3,11", "--l", "5",
                      "--dmax", "150", "--format", "json"])
    assert rc == 0
    obj = json.loads(out)
    assert obj["lambda"] == 2
    assert obj["line"] == [3, -2, -2, 3]
    assert obj["agree"] == obj["total"] == len(obj["rows"])
    assert obj["agreement_rate"] == "1"


# ---------------------------------------------------------------------------
# determinism, output file, cache


def test_byte_identical_reruns_and_threads():
    base = ["hseries", "--ramified", "2,3,11", "--dmax", "90"]
    first = run(base)
    second = run(base)
    threaded = run(base + ["--threads", "4"])
    assert first == second == threaded


def test_out_file_lf_and_utf8(tmp_path):
    target = tmp_path / "table.csv"
    rc, out, _ = run(["hseries", "--ramified", "11", "--dmax", "30",
                      "--out", str(target)])
    assert rc == 0 and out == ""
    raw = target.read_bytes()
    assert b"\r" not in raw
    assert raw.decode("utf-8").startswith("D,H_theta")
    rc2, stdout, _ = run(["hseries", "--ramified", "11", "--dmax", "30"])
    assert raw.decode("utf-8") == stdout


def test_cache_transparent(tmp_path):
    cache = str(tmp_path / "cache")
    base = ["verify", "--suite", "trace", "--ramified", "11", "--mmax", "6"]
    cold = run(base)
    first = run(base + ["--cache-dir", cache])
    assert os.listdir(cache) == ["classes_11_M1.json"]
    warm = run(base + ["--cache-dir", cache])
    assert cold == first == warm


def test_cache_corruption_recovers(tmp_path):
    cache = str(tmp_path / "cache")
    base = ["hseries", "--ramified", "11", "--dmax", "25", "--cache-dir", cache]
    first = run(base)
    path = os.path.join(cache, "classes_11_M1.json")
    with open(path, encoding="utf-8") as fh:
        snapshot = fh.read()
    # a tampered lattice: one basis coordinate of one class doubled
    data = json.loads(snapshot)
    coords = data["classes"][1]["basis"]
    k = next(k for k, x in enumerate(coords) if Fraction(x))
    coords[k] = str(2 * Fraction(coords[k]))
    zero_den = json.loads(snapshot)
    zero_den["classes"][1]["basis"][0] = "1/0"
    no_classes = {k: v for k, v in json.loads(snapshot).items() if k != "classes"}
    for corrupt, reason in [('{"version": 99}', "CacheError"), (json.dumps(data), "CacheError"),
                            (json.dumps(zero_den), "CacheError"),
                            # an interrupted write, and fields missing or of the wrong type
                            (snapshot[: len(snapshot) // 2], "JSONDecodeError"),
                            (json.dumps(no_classes), "KeyError"),
                            (json.dumps({**json.loads(snapshot), "M": "x"}), "TypeError")]:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(corrupt)
        rc, out, err = run(base)
        assert (rc, out) == first[:2] and rc == 0
        # one line on stderr names the snapshot and the reason for the rebuild
        assert err.startswith(f"ceisen: rebuilding {path}: {reason}: ") and err.count("\n") == 1
        # the rebuild rewrote the valid snapshot
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == snapshot


def test_cache_non_object_snapshot_rebuilds(tmp_path):
    # a snapshot whose top-level JSON value is not an object is a CacheError:
    # one rebuild line on stderr and exit 0, as for any other bad snapshot
    cache = str(tmp_path / "cache")
    argv = ["verify", "--suite", "mass", "--ramified", "11"]
    cold = run(argv)
    os.makedirs(cache)
    path = os.path.join(cache, "classes_11_M1.json")
    for text in ["[]", "null", '"x"', "5"]:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        rc, out, err = run(argv + ["--cache-dir", cache])
        assert (rc, out) == cold[:2], text
        assert err.count("\n") == 1 and path in err and "CacheError: " in err, text


def test_cache_of_another_level_rebuilds(tmp_path):
    cache = str(tmp_path / "cache")
    argv = ["verify", "--suite", "mass", "--ramified", "11"]
    cold = run(argv)
    assert run(["verify", "--suite", "mass", "--ramified", "2,3,11", "--cache-dir", cache])[0] == 0
    path = os.path.join(cache, "classes_11_M1.json")
    shutil.copy(os.path.join(cache, "classes_2-3-11_M1.json"), path)
    rc, out, err = run(argv + ["--cache-dir", cache])
    assert (rc, out) == cold[:2]
    assert err.count("\n") == 1 and path in err and "CacheError: " in err
    assert run(argv + ["--cache-dir", cache]) == cold


def test_cache_listing_a_class_twice_rebuilds(tmp_path):
    # at N = 197 classes 1 and 2 both have e = 2, so a snapshot with class 2
    # replaced by a copy of class 1 keeps the mass; the reader finds the two
    # ideals in one class, and the CLI rebuilds and prints the true mass row
    cache = str(tmp_path / "cache")
    argv = ["verify", "--suite", "mass", "--ramified", "197"]
    cold = run(argv + ["--cache-dir", cache])
    path = os.path.join(cache, "classes_197_M1.json")
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    assert data["classes"][1]["e"] == data["classes"][2]["e"] == 2
    data["classes"][2] = data["classes"][1]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    rc, out, err = run(argv + ["--cache-dir", cache])
    assert (rc, out) == cold[:2] == (0, "check,detail,passed\nmass,computed=49/6;expected=49/6,true\n")
    assert err == f"ceisen: rebuilding {path}: CacheError: two cached ideals are in one class\n"


def test_cache_is_named_after_the_level(tmp_path, monkeypatch):
    # the primes of --ramified in another order, or one of them twice, name
    # the same level and so read the same snapshot: no walk, no second file
    cache = str(tmp_path / "cache")
    argv = ["verify", "--suite", "mass", "--M", "5", "--cache-dir", cache]
    first = run(argv + ["--ramified", "2,3,7"])
    assert first[0] == 0
    assert os.listdir(cache) == ["classes_2-3-7_M5.json"]

    def no_walk(level):
        raise AssertionError("the snapshot was rebuilt")

    monkeypatch.setattr(cli, "build_class_set", no_walk)
    for ramified in ["7,3,2", "2,3,3,7"]:
        assert run(argv + ["--ramified", ramified]) == first
        assert os.listdir(cache) == ["classes_2-3-7_M5.json"]


def test_json_header_is_named_after_the_level():
    # the JSON config echoes the level, not how --ramified spells it
    argv = ["verify", "--suite", "mass", "--M", "5", "--format", "json"]
    first, *others = [run(argv + ["--ramified", r]) for r in ("2,3,7", "7,3,2", "2,3,3,7")]
    assert first[0] == 0
    assert json.loads(first[1])["config"] == {"ramified": [2, 3, 7], "M": 5}
    assert others == [first, first]


def _dump_then_fail(obj, fh, **kwargs):
    fh.write('{"version": ')
    raise OSError("simulated failure mid-write")


def test_cache_write_is_atomic(tmp_path, monkeypatch):
    cache = str(tmp_path / "cache")
    argv = ["verify", "--suite", "mass", "--ramified", "11", "--cache-dir", cache]
    assert run(argv)[0] == 0
    path = os.path.join(cache, "classes_11_M1.json")
    with open(path, "rb") as fh:
        before = fh.read()
    classes = classes_from_json(json.loads(before))
    monkeypatch.setattr(json, "dump", _dump_then_fail)
    # a rewrite that dies mid-dump leaves the valid snapshot untouched
    with pytest.raises(OSError, match="simulated"):
        cli._write_snapshot(path, classes)
    with open(path, "rb") as fh:
        assert fh.read() == before
    assert os.listdir(cache) == ["classes_11_M1.json"]
    # a cold build whose write dies exits 2 and leaves no partial file behind
    cold = str(tmp_path / "cold")
    rc, out, err = run(["verify", "--suite", "mass", "--ramified", "11", "--cache-dir", cold])
    assert rc == 2 and out == ""
    assert err.startswith("ceisen: ") and err.count("\n") == 1 and "simulated" in err
    assert os.listdir(cold) == []


def _child_env():
    """The environment of a child that imports the package this test imported,
    installed or not."""
    src = os.path.dirname(os.path.dirname(ceisen.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_console_script_subprocess():
    env = _child_env()
    proc = subprocess.run(
        [sys.executable, "-c",
         "from ceisen.cli import entry; entry()",
         ],
        input="",
        capture_output=True,
        text=True,
        env=env,
    )
    # no subcommand -> argparse usage error
    assert proc.returncode == 2

    # the console script exists only after an install; fall back to the module
    command = ["ceisen"] if shutil.which("ceisen") else [sys.executable, "-m", "ceisen"]
    proc = subprocess.run(
        command + ["verify", "--suite", "mass", "--ramified", "11"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "computed=5/12;expected=5/12" in proc.stdout


def _fresh_python(code):
    """Run code in a fresh interpreter that imports this package; its stdout."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


_IMPORT_SETS = """
import contextlib, io, sys
import ceisen.cli

def loaded():
    tracked = {"ceisen.brandt", "ceisen.verify", "json", "dataclasses", "inspect"}
    return sorted(tracked & set(sys.modules))

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        if ceisen.cli.main(list(argv)):
            sys.exit(f"exit code not 0: {argv}")

print(loaded())
run("hseries", "--ramified", "11", "--dmax", "20")
run("classnum", "--dmax", "20")
run("verify", "--suite", "mass", "--ramified", "11")
print(loaded())
run("verify", "--suite", "hecke", "--ramified", "11", "--mmax", "4")
print(loaded())
"""


def test_startup_imports_no_dataclasses():
    # every invocation is a fresh interpreter that compiles what it imports:
    # importing the CLI must not pull in `dataclasses`, which imports `inspect`
    # (and `ast`, `dis`, `tokenize`), nor `json`, nor the Brandt side, which
    # hseries, classnum and the mass suite never import; a Brandt-side suite does
    assert _fresh_python(_IMPORT_SETS).splitlines() == [
        "[]",
        "[]",
        "['ceisen.brandt', 'ceisen.verify']",
    ]
    # a bare `import ceisen` loads no submodule
    code = "import sys, ceisen; print(sorted(m for m in sys.modules if m.startswith('ceisen.')))"
    assert _fresh_python(code) == "[]\n"


_EXPORTS = """
import importlib, sys
import ceisen
try:
    ceisen.no_such_name
except AttributeError as exc:
    print(exc)
print(set(ceisen.__all__) <= set(dir(ceisen)))
print(sorted(m for m in sys.modules if m.startswith("ceisen.")))
# each export is its home module's own object, the one that defines it
moved = [name for name in ceisen.__all__
         if getattr(ceisen, name) is not getattr(
             importlib.import_module(getattr(ceisen, name).__module__), name)]
print(moved)
print(ceisen.CongruencePreconditionError is importlib.import_module("ceisen.verify").CongruencePreconditionError)
namespace = {}
exec("from ceisen import *", namespace)
print(sorted(set(namespace) - {"__builtins__"}) == sorted(ceisen.__all__))
"""


def test_package_exports_resolve_on_first_access():
    assert _fresh_python(_EXPORTS).splitlines() == [
        "module 'ceisen' has no attribute 'no_such_name'",
        "True",
        "[]",
        "[]",
        "True",
        "True",
    ]


_WRAPPED_ON_FIRST_READ = """
import contextlib, io, sys
from ceisen import cli
try:
    cli.no_such_name
except AttributeError as exc:
    print(exc)
# benchmarks/tracer.py reads each Brandt-side name with getattr, then sets its
# wrapper on the module: the command's first-use binding must keep it
real = getattr(cli, "rational_eigensystem")
calls = []
cli.rational_eigensystem = lambda classes: calls.append(classes.n) or real(classes)
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    rc = cli.main(["shatable", "--ramified", "11", "--l", "5", "--dmax", "20"])
print(rc, calls)
print(cli.divisibility_table is sys.modules["ceisen.verify"].divisibility_table)
"""


def test_cli_brandt_side_binding_keeps_a_wrapper():
    assert _fresh_python(_WRAPPED_ON_FIRST_READ).splitlines() == [
        "module 'ceisen.cli' has no attribute 'no_such_name'",
        "0 [2]",
        "True",
    ]


def test_readme_library_example_runs(readme_library_run):
    # the documented example imports only what `ceisen` exports, and runs
    code, proc = readme_library_run
    imported = [node for node in ast.walk(ast.parse(code))
                if isinstance(node, ast.ImportFrom) and node.module.startswith("ceisen")]
    assert [node.module for node in imported] == ["ceisen"]
    assert {alias.name for alias in imported[0].names} <= set(ceisen.__all__)
    assert proc.returncode == 0, proc.stderr
