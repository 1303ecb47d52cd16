import json
import subprocess
import sys

import pytest


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "colouralg", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def col_cfg(tmp_path):
    return write(
        tmp_path,
        "col.json",
        {
            "ring": {"kind": "Fp", "p": 5},
            "construction": {"kind": "col_split", "lam": "1"},
            "seed": 42,
            "samples": 200,
            "mode": "seeded",
        },
    )


def test_build_col_split(col_cfg):
    rc, out, _ = run_cli("build", col_cfg)
    assert rc == 0
    meta = json.loads(out)
    assert meta["family"] == "col_split"
    assert meta["rank"] == 7
    assert meta["basis"] == ["1", "u1", "u2", "u3", "v1", "v2", "v3"]
    assert len(meta["structure_constants"]) == 49
    # u1 * u2 = v3
    row = next(
        r for r in meta["structure_constants"] if (r["left"], r["right"]) == ("u1", "u2")
    )
    assert row["product"] == ["0", "0", "0", "0", "0", "0", "1"]


def test_build_graded_rank(tmp_path):
    cfg = write(
        tmp_path,
        "g.json",
        {"ring": {"kind": "Fp", "p": 7}, "construction": {"kind": "graded", "l": 1, "m": 1, "n": 1}},
    )
    rc, out, _ = run_cli("build", cfg)
    assert rc == 0
    assert json.loads(out)["rank"] == 8


def test_build_rejects_degenerate_gram(tmp_path):
    z, o = ["0", "0"], ["1", "1"]
    cfg = write(
        tmp_path,
        "bad.json",
        {
            "ring": {"kind": "Q"},
            "construction": {
                "kind": "cay_hermitian",
                "etale": {"kind": "split"},
                "gram": [[o, z, z], [z, o, z], [z, z, z]],
                "alpha": o,
            },
        },
    )
    rc, _, err = run_cli("build", cfg)
    assert rc == 2
    assert json.loads(err)["error"] == "Degenerate"


def test_check_all_applicable_exit_zero(col_cfg):
    rc, out, _ = run_cli("check", col_cfg, "--suite", "all-applicable")
    assert rc == 0
    reports = [json.loads(line) for line in out.splitlines()]
    assert all(r["pass"] for r in reports)
    assert {r["identity"] for r in reports} >= {"flexible", "jordan", "quadratic-relation"}


def test_check_inapplicable_suite_exit_two(col_cfg):
    rc, _, err = run_cli("check", col_cfg, "--suite", "composition")
    assert rc == 2
    assert json.loads(err)["error"] == "SuiteNotApplicable"


def test_check_exhaustive_flexible_mod_3(tmp_path):
    cfg = write(
        tmp_path,
        "f3.json",
        {"ring": {"kind": "Fp", "p": 3}, "construction": {"kind": "col_split", "lam": "1"}},
    )
    rc, out, _ = run_cli("check", cfg, "--suite", "flexible", "--mode", "exhaustive")
    assert rc == 0
    report = json.loads(out)
    assert report["pass"] and report["samples"] == 3**14


def test_check_zorn_seeded_1000(tmp_path):
    cfg = write(
        tmp_path,
        "z.json",
        {"ring": {"kind": "Fp", "p": 5}, "construction": {"kind": "zorn", "lam": "1"}},
    )
    rc, out, _ = run_cli(
        "check", cfg, "--suite", "all-applicable", "--seed", "7", "--samples", "1000"
    )
    assert rc == 0
    assert all(json.loads(line)["pass"] for line in out.splitlines())


def test_check_reports_byte_identical(col_cfg):
    rc1, out1, _ = run_cli("check", col_cfg, "--suite", "all-applicable")
    rc2, out2, _ = run_cli("check", col_cfg, "--suite", "all-applicable")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_check_text_format(col_cfg):
    rc, out, _ = run_cli("check", col_cfg, "--suite", "flexible", "--format", "text")
    assert rc == 0
    assert out.startswith("PASS")


def test_mul_worked_product(tmp_path, col_cfg):
    x = write(tmp_path, "x.json", {"a": "1", "u": ["1", "0", "0"], "ud": ["0", "1", "0"]})
    y = write(tmp_path, "y.json", {"a": "2", "u": ["0", "1", "0"], "ud": ["1", "0", "0"]})
    rc, out, _ = run_cli("mul", col_cfg, x, y)
    assert rc == 0
    result = json.loads(out)
    assert result["product"] == {"a": "3", "u": ["2", "1", "1"], "ud": ["1", "2", "1"]}
    # norm = 9 - (2+2+1) = 4, trace = 6 = 1 mod 5
    assert result["norm"] == "4"
    assert result["trace"] == "1"


def test_mul_identity(tmp_path, col_cfg):
    one = write(tmp_path, "one.json", {"a": "1", "u": ["0", "0", "0"], "ud": ["0", "0", "0"]})
    x = write(tmp_path, "x.json", {"a": "3", "u": ["1", "2", "0"], "ud": ["0", "4", "1"]})
    rc, out, _ = run_cli("mul", col_cfg, one, x)
    assert rc == 0
    assert json.loads(out)["product"] == {"a": "3", "u": ["1", "2", "0"], "ud": ["0", "4", "1"]}


def test_mul_malformed_element(tmp_path, col_cfg):
    x = write(tmp_path, "x.json", {"a": "3 + @", "u": ["0", "0", "0"], "ud": ["0", "0", "0"]})
    rc, _, err = run_cli("mul", col_cfg, x, x)
    assert rc == 2
    assert json.loads(err)["error"] == "ParseError"


def test_map_check_cube_root(tmp_path):
    cfg = write(
        tmp_path,
        "c7.json",
        {"ring": {"kind": "Fp", "p": 7}, "construction": {"kind": "col_split", "lam": "1"}},
    )
    mp = write(tmp_path, "m.json", {"kind": "cube-root", "mu": "2"})
    rc, out, _ = run_cli("map-check", cfg, mp, "--mode", "exhaustive")
    assert rc == 0
    assert json.loads(out)["pass"]
    bad = write(tmp_path, "bad.json", {"kind": "cube-root", "mu": "3"})
    rc, _, err = run_cli("map-check", cfg, bad)
    assert rc == 2
    assert json.loads(err)["error"] == "NotCubeRoot"


def test_map_check_dual_iso_over_q(tmp_path):
    cfg = write(
        tmp_path,
        "q.json",
        {"ring": {"kind": "Q"}, "construction": {"kind": "col_split", "lam": "1"}, "samples": 500},
    )
    mp = write(tmp_path, "m.json", {"kind": "dual"})
    rc, out, _ = run_cli("map-check", cfg, mp)
    assert rc == 0
    assert json.loads(out)["pass"]


def test_map_check_diagonal(tmp_path):
    cfg = write(
        tmp_path,
        "q8.json",
        {"ring": {"kind": "Q"}, "construction": {"kind": "col_split", "lam": "8"}},
    )
    mp = write(
        tmp_path,
        "m.json",
        {
            "kind": "diagonal",
            "matrix": [["2", "0", "0"], ["0", "2", "0"], ["0", "0", "2"]],
            "lam_prime": "1",
        },
    )
    rc, out, _ = run_cli("map-check", cfg, mp, "--mode", "exhaustive")
    assert rc == 0
    # same matrix against mismatched trivializations is a config error
    bad_cfg = write(
        tmp_path,
        "q1.json",
        {"ring": {"kind": "Q"}, "construction": {"kind": "col_split", "lam": "1"}},
    )
    rc, _, err = run_cli("map-check", bad_cfg, mp)
    assert rc == 2
    assert json.loads(err)["error"] == "MorphismConditionFailed"


def test_map_check_g_phi_and_non_isometry(tmp_path):
    o, z = ["1", "1"], ["0", "0"]
    cfg = write(
        tmp_path,
        "h.json",
        {
            "ring": {"kind": "Fp", "p": 5},
            "construction": {
                "kind": "col_hermitian",
                "etale": {"kind": "split"},
                "gram": [[o, z, z], [z, o, z], [z, z, o]],
                "alpha": o,
            },
        },
    )
    cycle = write(
        tmp_path,
        "cycle.json",
        {"kind": "G-phi", "matrix": [[z, z, o], [o, z, z], [z, o, z]]},
    )
    rc, out, _ = run_cli("map-check", cfg, cycle, "--mode", "exhaustive")
    assert rc == 0
    stretch = write(
        tmp_path,
        "stretch.json",
        {"kind": "G-phi", "matrix": [[["2", "2"], z, z], [z, o, z], [z, z, o]]},
    )
    rc, _, err = run_cli("map-check", cfg, stretch)
    assert rc == 2
    assert json.loads(err)["error"] == "NotIsometry"


def test_map_check_custom_table(tmp_path, col_cfg):
    ident = [["1" if i == j else "0" for j in range(7)] for i in range(7)]
    mp = write(tmp_path, "m.json", {"kind": "custom", "table": ident})
    rc, out, _ = run_cli("map-check", col_cfg, mp, "--mode", "exhaustive")
    assert rc == 0
    broken = [["0"] * 7 for _ in range(7)]
    broken[1][2] = "1"
    mp2 = write(tmp_path, "m2.json", {"kind": "custom", "table": broken})
    rc, out, _ = run_cli("map-check", col_cfg, mp2, "--mode", "exhaustive")
    assert rc == 1
    assert not json.loads(out)["pass"]


def test_mul_graded_worked_example(tmp_path):
    cfg = write(
        tmp_path,
        "g.json",
        {"ring": {"kind": "Q"}, "construction": {"kind": "graded", "l": 1, "m": 1, "n": 1}},
    )
    x = write(tmp_path, "x.json", {"a": "0", "fl": "t0", "fm": "0", "flm": "0"})
    y = write(tmp_path, "y.json", {"a": "0", "fl": "0", "fm": "t1", "flm": "0"})
    rc, out, _ = run_cli("mul", cfg, x, y)
    assert rc == 0
    result = json.loads(out)
    assert result["product"] == {"a": "0", "fl": "0", "fm": "0", "flm": "t0*t1"}
    rc, out, _ = run_cli("mul", cfg, y, x)
    assert json.loads(out)["product"]["flm"] == "-t0*t1"


def test_check_w_hermitian_quartic(tmp_path):
    o, z = ["1", "1"], ["0", "0"]
    cfg = write(
        tmp_path,
        "w.json",
        {
            "ring": {"kind": "Fp", "p": 7},
            "construction": {
                "kind": "w_hermitian",
                "etale": {"kind": "kummer", "d": "3"},
                "gram": [[["1", "0"], z, z], [z, ["1", "0"], z], [z, z, ["1", "0"]]],
                "alpha": ["1", "0"],
            },
            "samples": 300,
        },
    )
    rc, out, _ = run_cli("check", cfg, "--suite", "all-applicable")
    assert rc == 0
    names = {json.loads(line)["identity"] for line in out.splitlines()}
    assert "quartic" in names and "cross-defining" in names


def test_graded_info(tmp_path):
    cfg = write(
        tmp_path,
        "g.json",
        {"ring": {"kind": "Fp", "p": 7}, "construction": {"kind": "graded", "l": 1, "m": 1, "n": 1}},
    )
    rc, out, _ = run_cli("graded-info", cfg)
    assert rc == 0
    info = json.loads(out)
    assert info["rank"] == 8
    assert info["radical_dim"] == 7
    assert info["nilpotency"] == 3
    assert info["n1_shortcut"] == {"agrees": False, "rank": 8, "shortcut_value": 9}
    assert all(c["pass"] for c in info["checks"])


def test_graded_info_non_field_base(tmp_path):
    cfg = write(
        tmp_path,
        "g15.json",
        {"ring": {"kind": "Zmod", "n": 15}, "construction": {"kind": "graded", "l": 1, "m": 2, "n": 1}},
    )
    rc, out, _ = run_cli("graded-info", cfg)
    assert rc == 0
    info = json.loads(out)
    assert info["rank"] == 1 + 2 + 3 + 4
    assert info["radical_dim"] is None
    assert "note" in info


def test_bad_ring_config_exit_two(tmp_path):
    cfg = write(
        tmp_path,
        "bad.json",
        {"ring": {"kind": "Zmod", "n": 4}, "construction": {"kind": "col_split", "lam": "1"}},
    )
    rc, _, err = run_cli("build", cfg)
    assert rc == 2
    assert json.loads(err)["error"] == "EvenModulus"


def test_missing_config_file_exit_two():
    rc, _, err = run_cli("build", "/nonexistent/cfg.json")
    assert rc == 2


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_check_rejects_non_positive_samples_flag(col_cfg, samples):
    rc, out, err = run_cli("check", col_cfg, "--samples", samples)
    assert rc == 2
    assert out == ""
    assert json.loads(err)["error"] == "ValueError"


_COL = {"kind": "col_split", "lam": "1"}
_HERM = {
    "kind": "cay_hermitian",
    "gram": [[["1", "1"], ["0", "0"], ["0", "0"]], [["0", "0"], ["1", "1"], ["0", "0"]], [["0", "0"], ["0", "0"], ["1", "1"]]],
    "alpha": ["1", "1"],
}
MALFORMED_CONFIGS = {
    "samples-zero": {"ring": {"kind": "Fp", "p": 5}, "construction": _COL, "samples": 0},
    "samples-float": {"ring": {"kind": "Fp", "p": 5}, "construction": _COL, "samples": 2.5},
    "config-not-object": [{"kind": "Fp", "p": 5}, _COL],
    "ring-not-object": {"ring": 5, "construction": _COL},
    "poly-base-not-object": {"ring": {"kind": "poly", "base": "Q", "vars": ["t"]}, "construction": _COL},
    "p-float": {"ring": {"kind": "Fp", "p": 7.5}, "construction": _COL},
    "n-string": {"ring": {"kind": "Zmod", "n": "15"}, "construction": _COL},
    "construction-not-object": {"ring": {"kind": "Q"}, "construction": "col_split"},
    "etale-not-object": {"ring": {"kind": "Q"}, "construction": dict(_HERM, etale="split")},
    "gram-not-list": {"ring": {"kind": "Q"}, "construction": dict(_HERM, etale={"kind": "split"}, gram=5)},
    "gram-2x2": {
        "ring": {"kind": "Q"},
        "construction": dict(_HERM, etale={"kind": "split"}, gram=[[["1", "1"], ["0", "0"]], [["0", "0"], ["1", "1"]]]),
    },
    "graded-l-float": {"ring": {"kind": "Fp", "p": 7}, "construction": {"kind": "graded", "l": 1.5, "m": 1, "n": 1}},
    "graded-n-bool": {"ring": {"kind": "Fp", "p": 7}, "construction": {"kind": "graded", "l": 1, "m": 1, "n": True}},
    "poly-vars-int": {"ring": {"kind": "poly", "base": {"kind": "Q"}, "vars": 5}, "construction": _COL},
    "construction-kind-list": {"ring": {"kind": "Q"}, "construction": dict(_COL, kind=["col_split"])},
}


@pytest.mark.parametrize("name", list(MALFORMED_CONFIGS))
def test_malformed_config_exit_two(tmp_path, name):
    rc, out, err = run_cli("check", write(tmp_path, "bad.json", MALFORMED_CONFIGS[name]))
    assert rc == 2
    assert out == ""
    assert "error" in json.loads(err)


@pytest.mark.parametrize(
    "element, error",
    [
        ({"a": "1", "u": ["0", "1"], "ud": ["0", "0", "0"]}, "WrongRing"),
        ({"a": 5, "u": ["0", "0", "0"], "ud": ["0", "0", "0"]}, "ParseError"),
    ],
    ids=["short-vector", "number-not-string"],
)
def test_mul_rejects_malformed_factor(tmp_path, col_cfg, element, error):
    x = write(tmp_path, "x.json", element)
    rc, out, err = run_cli("mul", col_cfg, x, x)
    assert rc == 2
    assert out == ""
    assert json.loads(err)["error"] == error


@pytest.mark.parametrize("command", ["build", "graded-info"])
def test_graded_rank_limit_exit_two(tmp_path, command):
    # rank 1 + 35 + 35 + 165 = 236: refused before any basis is built
    cfg = write(tmp_path, "g.json", {"ring": {"kind": "Fp", "p": 7}, "construction": {"kind": "graded", "l": 4, "m": 4, "n": 3}})
    proc = subprocess.run([sys.executable, "-m", "colouralg", command, cfg], capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert json.loads(proc.stderr) == {"error": "BadDegrees", "message": "graded rank 236 exceeds the limit 128"}


@pytest.mark.parametrize(
    "p, rc",
    [(1000000000000000003, 0), (2**89 - 1, 2)],
    ids=["prime-near-1e18", "prime-above-limit"],
)
def test_prime_check_is_bounded(tmp_path, p, rc):
    cfg = write(tmp_path, "p.json", {"ring": {"kind": "Fp", "p": p}, "construction": {"kind": "col_split"}})
    proc = subprocess.run([sys.executable, "-m", "colouralg", "build", cfg], capture_output=True, text=True, timeout=30)
    assert proc.returncode == rc
    if rc == 2:
        assert json.loads(proc.stderr)["error"] == "BadPrime"
    else:
        assert json.loads(proc.stdout)["ring"] == {"kind": "Fp", "p": p}
