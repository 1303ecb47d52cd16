import json
import subprocess
import sys
from dataclasses import replace

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


def test_check_exhaustive_zorn_f7_composition(tmp_path):
    # 7^8 elements: the work bound, not the element count, decides, and
    # norm-composition settles on its 45 x 45 grid of degree 2 rows
    cfg = write(tmp_path, "z7.json", {"ring": {"kind": "Fp", "p": 7}, "construction": {"kind": "zorn", "lam": "3"}})
    rc, out, _ = run_cli("check", cfg, "--suite", "composition", "--mode", "exhaustive")
    assert rc == 0
    report = json.loads(out)
    assert report["pass"] and report["samples"] == 7**16


def test_check_exhaustive_past_the_work_bound_exit_two(tmp_path):
    # graded(2,2,2) has rank 28; its first identity, flexible, is past the bound
    cfg = write(tmp_path, "g.json", {"ring": {"kind": "Fp", "p": 7}, "construction": {"kind": "graded", "l": 2, "m": 2, "n": 2}})
    rc, out, err = run_cli("check", cfg, "--mode", "exhaustive")
    assert rc == 2
    assert out == ""
    assert json.loads(err) == {
        "error": "ExhaustiveTooLarge",
        "message": "flexible needs an estimated 1778715 evaluations, past the bound 1000000",
    }


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


_S_ONE, _S_ZERO = ["1", "1"], ["0", "0"]
_S_IDENTITY = [[_S_ONE if i == j else _S_ZERO for j in range(3)] for i in range(3)]
_HERM_F5 = {
    "ring": {"kind": "Fp", "p": 5},
    "construction": {
        "kind": "col_hermitian",
        "etale": {"kind": "split"},
        "gram": _S_IDENTITY,
        "alpha": _S_ONE,
    },
}
_COL_F5 = {"ring": {"kind": "Fp", "p": 5}, "construction": {"kind": "col_split", "lam": "1"}}

# (config, map description, expected error)
MALFORMED_MAPS = {
    "not-object": (_COL_F5, [1], "BadSpec"),
    "diagonal-matrix-int": (_COL_F5, {"kind": "diagonal", "matrix": 5, "lam_prime": "1"}, "NotSLinear"),
    "diagonal-2x3": (
        _COL_F5,
        {"kind": "diagonal", "matrix": [["1", "0", "0"], ["0", "1", "0"]], "lam_prime": "1"},
        "NotSLinear",
    ),
    "custom-table-int": (_COL_F5, {"kind": "custom", "table": 5}, "NotSLinear"),
    "custom-rows-int": (_COL_F5, {"kind": "custom", "table": [5] * 7}, "NotSLinear"),
    "g-phi-matrix-int": (_HERM_F5, {"kind": "G-phi", "matrix": 5}, "NotSLinear"),
    "g-phi-gram-prime-rows-int": (
        _HERM_F5,
        {"kind": "G-phi", "matrix": _S_IDENTITY, "gram_prime": [5, 5, 5]},
        "NotSLinear",
    ),
    "derivation-matrix-int": (_HERM_F5, {"kind": "derivation", "matrix": 5}, "NotSLinear"),
}


@pytest.mark.parametrize("name", list(MALFORMED_MAPS))
def test_malformed_map_exit_two(tmp_path, name):
    config, mdesc, error = MALFORMED_MAPS[name]
    rc, out, err = run_cli("map-check", write(tmp_path, "c.json", config), write(tmp_path, "m.json", mdesc))
    assert rc == 2
    assert out == ""
    assert json.loads(err)["error"] == error


_F7 = {"kind": "Fp", "p": 7}
_FAMILY_CONFIGS = {
    "col_split": {"ring": _F7, "construction": {"kind": "col_split", "lam": "1"}},
    "zorn": {"ring": _F7, "construction": {"kind": "zorn", "lam": "1"}},
    "w_split": {"ring": _F7, "construction": {"kind": "w_split", "lam": "1"}},
    "graded": {"ring": _F7, "construction": {"kind": "graded", "l": 1, "m": 1, "n": 1}},
    **{
        kind: {
            "ring": _F7,
            "construction": {"kind": kind, "etale": {"kind": "split"}, "gram": _S_IDENTITY, "alpha": _S_ONE},
        }
        for kind in ("cay_hermitian", "col_hermitian", "w_hermitian")
    },
}
_SPLIT_MAPS = {
    "dual": {"kind": "dual"},
    "cube-root": {"kind": "cube-root", "mu": "2"},
    "diagonal": {"kind": "diagonal", "matrix": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], "lam_prime": "1"},
}
# a lift applies to the one hermitian family it lifts to, a derivation to the hermitian families
_LIFT_MAPS = {kind: {"kind": kind, "matrix": _S_IDENTITY} for kind in ("G-phi", "H-phi", "derivation")}
_MISFITS = [
    *[(kind, family) for kind in _SPLIT_MAPS for family in ("cay_hermitian", "col_hermitian", "w_hermitian", "graded")],
    ("dual", "w_split"),
    ("dual", "zorn"),
    ("G-phi", "cay_hermitian"),
    ("G-phi", "w_hermitian"),
    ("H-phi", "col_hermitian"),
    ("H-phi", "w_hermitian"),
    *[("derivation", family) for family in ("col_split", "zorn", "w_split", "graded")],
]


@pytest.mark.parametrize("kind, family", _MISFITS, ids=[f"{k}-{f}" for k, f in _MISFITS])
def test_map_kind_not_for_family_exit_two(tmp_path, capsys, kind, family):
    # a map kind on a family it does not fit is a configuration error, not a
    # traceback and not a failed check
    from colouralg import cli

    cfg = write(tmp_path, "c.json", _FAMILY_CONFIGS[family])
    mdesc = {**_SPLIT_MAPS, **_LIFT_MAPS}[kind]
    rc = cli.main(["map-check", cfg, write(tmp_path, "m.json", mdesc), "--samples", "5"])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert json.loads(err)["error"] == "SuiteNotApplicable"


@pytest.mark.parametrize("family", ["graded", "w_hermitian"])
def test_map_check_identity_custom_table_on_any_family(tmp_path, capsys, family):
    # custom maps apply to every family, graded and vector algebras included
    from colouralg import cli

    rank = {"graded": 8, "w_hermitian": 6}[family]
    ident = [["1" if i == j else "0" for j in range(rank)] for i in range(rank)]
    cfg = write(tmp_path, "c.json", _FAMILY_CONFIGS[family])
    rc = cli.main(["map-check", cfg, write(tmp_path, "m.json", {"kind": "custom", "table": ident}), "--samples", "5"])
    out, _ = capsys.readouterr()
    assert rc == 0
    assert json.loads(out)["pass"]


def test_map_check_g_phi_into_another_trivialization(tmp_path, capsys):
    # the transposition has det -1, so it lifts into the space with alpha' = -alpha and not into (P, h, alpha)
    from colouralg import cli

    swap = [[_S_ZERO, _S_ONE, _S_ZERO], [_S_ONE, _S_ZERO, _S_ZERO], [_S_ZERO, _S_ZERO, _S_ONE]]
    cfg = write(tmp_path, "c.json", _HERM_F5)
    mp = write(tmp_path, "m.json", {"kind": "G-phi", "matrix": swap, "alpha_prime": ["4", "4"]})
    assert cli.main(["map-check", cfg, mp, "--samples", "20"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] and report["samples"] == 21
    mp = write(tmp_path, "m.json", {"kind": "G-phi", "matrix": swap})
    assert cli.main(["map-check", cfg, mp, "--samples", "20"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["error"] == "MorphismConditionFailed"


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


@pytest.mark.parametrize(
    "slot, nilpotency, findings",
    [("a", 3, [False, True]), ("fl", None, [True, False])],
    ids=["unit-slot", "degree-l-slot"],
)
def test_graded_info_reports_planted_wrong_product(tmp_path, monkeypatch, capsys, slot, nilpotency, findings):
    # the first radical basis element r gains a 1 in the unit slot of r 1
    # (the radical is no longer an ideal) or in the degree-l slot of r r (a
    # square leaves the top slot); graded-info reports the finding, exit 1
    from colouralg import cli
    from colouralg.graded import GradedAlgebra, GradedSpec
    from colouralg.rings import PrimeField

    unit, first = GradedAlgebra(GradedSpec(1, 1, 1), PrimeField(7)).basis()[:2]
    right = unit if slot == "a" else first
    real = GradedAlgebra.mul

    def planted(self, x, y):
        out = real(self, x, y)
        if x == first and y == right:
            out = replace(out, a=1) if slot == "a" else replace(out, fl=(1,) + out.fl[1:])
        return out

    monkeypatch.setattr(GradedAlgebra, "mul", planted)
    cfg = write(
        tmp_path,
        "g.json",
        {"ring": {"kind": "Fp", "p": 7}, "construction": {"kind": "graded", "l": 1, "m": 1, "n": 1}},
    )
    assert cli.main(["graded-info", cfg]) == 1
    info = json.loads(capsys.readouterr().out)
    assert info["nilpotency"] == nilpotency
    assert info["checks"] == [
        {"name": "rank-matches-enumeration", "pass": True},
        {"name": "radical-is-ideal", "pass": findings[0]},
        {"name": "radical-cube-zero", "pass": findings[1]},
    ]


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


def test_help_keeps_the_subcommand_table():
    rc, out, _ = run_cli("--help")
    assert rc == 0
    assert "    colouralg build CONFIG              # family metadata + structure constants" in out.splitlines()


@pytest.mark.parametrize("flag, value", [("--samples", "abc"), ("--mode", "bogus")])
def test_usage_errors_are_json_with_exit_two(col_cfg, flag, value):
    rc, out, err = run_cli("check", col_cfg, flag, value)
    assert rc == 2
    assert out == ""
    record = json.loads(err)
    assert set(record) == {"error", "message"}
    assert record["error"] == "ArgumentError"
    assert record["message"].startswith(f"argument {flag}: invalid") and repr(value) in record["message"]


def test_check_refuses_samples_past_the_work_bound(tmp_path):
    # an identity its grid leaves open draws every sample, so an unbounded count would run for hours
    cfg = write(tmp_path, "c.json", _HERM_F5)
    proc = subprocess.run(
        [sys.executable, "-m", "colouralg", "check", cfg, "--suite", "herm-cross", "--samples", "1000000000000"],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert json.loads(proc.stderr) == {
        "error": "ValueError",
        "message": "the sample count 1000000000000 is past the work bound 1000000",
    }


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
    "poly-var-not-name": {"ring": {"kind": "poly", "base": {"kind": "Q"}, "vars": ["t", "1x"]}, "construction": _COL},
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
        ([1], "BadSpec"),
    ],
    ids=["short-vector", "number-not-string", "not-object"],
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


def test_graded_large_degrees_refused_before_the_rank_is_computed(tmp_path):
    # C(2 * 10^6, 10^6) alone would take minutes; a degree past the limit is refused at once
    cfg = write(tmp_path, "g.json", {"ring": {"kind": "Fp", "p": 7}, "construction": {"kind": "graded", "l": 10**6, "m": 1, "n": 10**6}})
    proc = subprocess.run([sys.executable, "-m", "colouralg", "build", cfg], capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert json.loads(proc.stderr) == {"error": "BadDegrees", "message": "graded degrees must be below the rank limit 128"}


# 5,001 digits: past the 4,300 that CPython converts between int and str by default
_DIGITS = "7" * 5001
_COL_F7 = '{"ring": {"kind": "Fp", "p": 7}, "construction": {"kind": "col_split", "lam": "1"}}'
_ZERO3 = '["0", "0", "0"]'
LONG_INTEGERS = {
    "config-number": (
        "build",
        '{"ring": {"kind": "Fp", "p": 7}, "construction": {"kind": "graded", "l": %s, "m": 1, "n": 1}}' % _DIGITS,
        [],
        "BadSpec",
    ),
    "config-lam-string": (
        "build",
        '{"ring": {"kind": "Fp", "p": 7}, "construction": {"kind": "col_split", "lam": "%s"}}' % _DIGITS,
        [],
        "ParseError",
    ),
    "map-number": ("map-check", _COL_F7, ['{"kind": "cube-root", "mu": %s}' % _DIGITS], "BadSpec"),
    "element-number": (
        "mul",
        _COL_F7,
        ['{"a": %s, "u": %s, "ud": %s}' % (_DIGITS, _ZERO3, _ZERO3)] * 2,
        "BadSpec",
    ),
}


@pytest.mark.parametrize("name", list(LONG_INTEGERS))
def test_over_long_integer_is_a_project_error(tmp_path, name):
    command, config, inputs, error = LONG_INTEGERS[name]
    paths = []
    for i, text in enumerate([config, *inputs]):
        path = tmp_path / f"f{i}.json"
        path.write_text(text)
        paths.append(str(path))
    cfg, *rest = paths
    rc, out, err = run_cli(command, cfg, *rest)
    assert rc == 2
    assert out == ""
    assert json.loads(err)["error"] == error


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


# 100,000 nested lists: json.loads gives up with a RecursionError long before the end
_NESTED = "[" * 100_000
NESTED_INPUTS = {
    "config": ("build", _NESTED, [], "the config"),
    "map": ("map-check", _COL_F7, [_NESTED], "the map description"),
    "element": ("mul", _COL_F7, [_NESTED] * 2, "an element file"),
}


@pytest.mark.parametrize("name", list(NESTED_INPUTS))
def test_deeply_nested_json_is_a_project_error(tmp_path, name):
    command, config, inputs, what = NESTED_INPUTS[name]
    paths = []
    for i, text in enumerate([config, *inputs]):
        path = tmp_path / f"f{i}.json"
        path.write_text(text)
        paths.append(str(path))
    rc, out, err = run_cli(command, *paths)
    assert rc == 2
    assert out == ""
    assert [json.loads(line) for line in err.splitlines()] == [
        {"error": "BadSpec", "message": f"{what} is nested too deeply"}
    ]


def test_graded_info_reports_a_planted_enumeration_fault(tmp_path, monkeypatch, capsys):
    # each slot's enumeration drops its last monomial: graded(1,1,1) has 5 enumerated
    # coordinates against the binomial rank 8, and the check must say so
    from colouralg import cli, graded

    real = graded.monomials_of_degree
    monkeypatch.setattr(graded, "monomials_of_degree", lambda nvars, degree: real(nvars, degree)[:-1])
    cfg = write(
        tmp_path,
        "g.json",
        {"ring": {"kind": "Fp", "p": 7}, "construction": {"kind": "graded", "l": 1, "m": 1, "n": 1}},
    )
    assert cli.main(["graded-info", cfg]) == 1
    info = json.loads(capsys.readouterr().out)
    assert info["rank"] == 5
    assert info["checks"][0] == {"name": "rank-matches-enumeration", "pass": False}


def _without(data: dict, key: str) -> dict:
    return {k: v for k, v in data.items() if k != key}


_HERM_CONS = _HERM_F5["construction"]
_KUMMER_F5 = {**_HERM_F5, "construction": {**_HERM_CONS, "etale": {"kind": "kummer"}}}
_POLY_COL = {"construction": {"kind": "col_split", "lam": "1"}}
_ELEMENT = {"a": "1", "u": ["0", "1", "0"], "ud": ["0", "0", "1"]}
# (command, config, the files after it, the message): a required key is missing from one object
MISSING_KEYS = {
    "ring": ("build", _without(_COL_F5, "ring"), [], "the config has no 'ring'"),
    "construction": ("build", _without(_COL_F5, "construction"), [], "the config has no 'construction'"),
    "kind": ("build", {**_COL_F5, "construction": {"lam": "1"}}, [], "the construction has no 'kind'"),
    **{
        key: ("build", {**_HERM_F5, "construction": _without(_HERM_CONS, key)}, [], f"the construction has no {key!r}")
        for key in ("etale", "gram", "alpha")
    },
    "kummer-d": ("build", _KUMMER_F5, [], "the kummer etale spec has no 'd'"),
    "poly-base": ("build", {**_POLY_COL, "ring": {"kind": "poly", "vars": ["t"]}}, [], "the poly ring spec has no 'base'"),
    "poly-vars": ("build", {**_POLY_COL, "ring": {"kind": "poly", "base": {"kind": "Q"}}}, [], "the poly ring spec has no 'vars'"),
    "map-kind": ("map-check", _COL_F5, [{"mu": "2"}], "the map description has no 'kind'"),
    "map-mu": ("map-check", _COL_F5, [{"kind": "cube-root"}], "the map description has no 'mu'"),
    "map-lam-prime": (
        "map-check",
        _COL_F5,
        [{"kind": "diagonal", "matrix": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}],
        "the map description has no 'lam_prime'",
    ),
    "map-table": ("map-check", _COL_F5, [{"kind": "custom"}], "the map description has no 'table'"),
    "map-derivation-matrix": ("map-check", _HERM_F5, [{"kind": "derivation"}], "the map description has no 'matrix'"),
    "map-g-phi-matrix": ("map-check", _HERM_F5, [{"kind": "G-phi"}], "the map description has no 'matrix'"),
    "element-u": ("mul", _COL_F5, [_without(_ELEMENT, "u"), _ELEMENT], "a col_split element has no 'u'"),
}


@pytest.mark.parametrize("name", list(MISSING_KEYS))
def test_missing_key_is_a_bad_spec_naming_it(tmp_path, capsys, name):
    # exit 2 with one BadSpec record naming the key and its object, never a bare KeyError
    from colouralg import cli

    command, config, inputs, message = MISSING_KEYS[name]
    paths = [write(tmp_path, f"f{i}.json", data) for i, data in enumerate([config, *inputs])]
    assert cli.main([command, *paths]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert [json.loads(line) for line in err.splitlines()] == [{"error": "BadSpec", "message": message}]
