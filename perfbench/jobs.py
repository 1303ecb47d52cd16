"""Workload definitions: the configs, handles and jobs each workload runs.

A workload is built once per process (this is the measured set-up: every
algebra handle, map and hermitian space is constructed, with its
validation) and then yields, for each round, a list of jobs.  A round uses
one *variant*: an index into a fixed pool of sampler seeds or inputs, so
every output the benchmark can produce is recorded in ``expected.json``.
The benchmark seed only chooses which variants the rounds use.

In-process jobs return a list of ``CheckReport``; CLI jobs are argument
lists for a fresh ``python -m colouralg`` process.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

from colouralg import algebras, checks, etale, maps, rings
from colouralg.graded import GradedAlgebra, GradedSpec
from colouralg.trivec import HermitianSpace, mat_identity

ACCEPTANCE_SEED = 20240817

# Pool sizes: every variant's outputs are recorded in expected.json.
VARIANTS = {"seeded_finite": 16, "seeded_exact": 16, "exhaustive_f3": 2, "cli_cold": 16}


def pool_seed(variant: int) -> int:
    """Sampler seed of a variant; fixed, so outputs can be recorded."""
    return ACCEPTANCE_SEED + 7919 * variant


def variant_stream(workload: str, seed: int):
    """The variant of each round, drawn from the benchmark seed."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield rng.randrange(VARIANTS[workload])


# ----------------------------------------------------------------- spaces


def _split_space(R, alpha=None):
    S = etale.SplitTorus(R)
    return HermitianSpace(S, mat_identity(S), S.one if alpha is None else alpha)


def _kummer_gram_det1(F7):
    # [[1, 2+r, 0], [2-r, 2, 0], [0, 0, 1]] over F7[r], r^2 = 3: det = 1
    K = etale.KummerExtension(F7, 3)
    z, o = K.zero, K.one
    s = (2, 1)
    return HermitianSpace(K, ((o, s, z), (K.conj(s), (2, 0), z), (z, z, o)), K.one)


def _split_gram_det1(R, one, two, three):
    # [[1, (1,2), 0], [(2,1), 3, 0], [0, 0, 1]]: det = 3 - 2 = 1
    S = etale.SplitTorus(R)
    z, o = S.zero, S.one
    s = (one, two)
    return HermitianSpace(S, ((o, s, z), (S.conj(s), (three, three), z), (z, z, o)), S.one)


def _cycle(P, R):
    return tuple(
        tuple(P.S.scalar(R.of_int(v)) for v in row) for row in ((0, 0, 1), (1, 0, 0), (0, 1, 0))
    )


def _seeded(variant: int, count: int) -> checks.Sampler:
    return checks.Sampler(seed=pool_seed(variant), count=count)


# ------------------------------------------------------------ in-process


class SeededFinite:
    """One config per family over cheap modular rings, the map checks, the
    cross-construction checks and two negative controls."""

    SAMPLES = 300
    MAP_SAMPLES = 400

    def __init__(self):
        F7, Z15 = rings.PrimeField(7), rings.IntegersMod(15)
        P = _split_space(F7)
        self.F7 = F7
        self.suites = {
            "col_split/Z15": algebras.ColSplitAlgebra(Z15, 1),
            "zorn/F7": algebras.ZornAlgebra(F7, 2),
            "w_split/F7": algebras.WSplitAlgebra(F7, 3),
            "cay_hermitian/kummer3/F7": algebras.CayleyAlgebra(_kummer_gram_det1(F7)),
            "w_hermitian/kummer3/F7": algebras.WHermAlgebra(_kummer_gram_det1(F7)),
            "col_hermitian/split/F7": algebras.ColHermAlgebra(_split_space(F7, alpha=(3, 5))),
            "graded(1,1,1)/F7": GradedAlgebra(GradedSpec(1, 1, 1), F7),
        }
        col = algebras.ColSplitAlgebra(F7, 1)
        diag = ((2, 0, 0), (0, 4, 0), (0, 0, 1))
        cycle = _cycle(P, F7)
        e = P.basis()
        self.maps = {
            "dual": maps.dual_iso(col),
            "cube-root": maps.cube_root_auto(col, 2),
            "diagonal": maps.diagonal_iso(col, diag, 1),
            "G-phi": maps.lift_isometry(P, P, cycle, "colour"),
            "H-phi": maps.lift_isometry(P, P, cycle, "cayley"),
        }
        self.derivation = (maps.lambda_map(P, e[0], e[1]), algebras.CayleyAlgebra(P))

    def jobs(self, variant: int):
        s = _seeded(variant, self.SAMPLES)
        sm = _seeded(variant, self.MAP_SAMPLES)
        out = [
            (f"suite:{label}", lambda A=A: checks.run_suite(A, "all-applicable", s))
            for label, A in self.suites.items()
        ]
        out += [
            (f"map:{kind}", lambda m=m: [maps.is_homomorphism(m, sm)]) for kind, m in self.maps.items()
        ]
        d, A = self.derivation
        out += [
            ("map:derivation", lambda: [maps.is_derivation(d, A, sm)]),
            ("cross-construction", lambda: [checks.cross_construction_check(self.F7, 1, sm)]),
            ("cay-zorn", lambda: [checks.cay_zorn_check(self.F7)]),
            (
                "control:norm-composition/col_split",
                lambda: [checks.run_identity(self.suites["col_split/Z15"], "norm-composition", sm)],
            ),
            (
                "control:corrupt-gram",
                lambda: [checks.cross_construction_check(self.F7, 1, sm, corrupt_gram=True)],
            ),
        ]
        return out


class SeededExact:
    """The suite shape over Q (Fraction) and over sparse polynomials."""

    def __init__(self):
        Q = rings.RationalField()
        F7t = rings.PolynomialRing(rings.PrimeField(7), ["t0", "t1"])
        Qt = rings.PolynomialRing(Q, ["t0"])
        one, two, three = Fraction(1), Fraction(2), Fraction(3)
        # (label, handle, samples per identity)
        self.configs = [
            ("col_split/Q", algebras.ColSplitAlgebra(Q, one), 100),
            ("zorn/Q", algebras.ZornAlgebra(Q, two), 75),
            ("w_split/Q", algebras.WSplitAlgebra(Q, one), 200),
            ("cay_hermitian/split/Q", algebras.CayleyAlgebra(_split_gram_det1(Q, one, two, three)), 30),
            ("col_split/F7[t0,t1]", algebras.ColSplitAlgebra(F7t, F7t.one), 20),
            ("w_split/Q[t0]", algebras.WSplitAlgebra(Qt, Qt.one), 40),
        ]

    def jobs(self, variant: int):
        return [
            (f"suite:{label}", lambda A=A, n=n: checks.run_suite(A, "all-applicable", _seeded(variant, n)))
            for label, A, n in self.configs
        ]


class ExhaustiveF3:
    """Exhaustive mode over F3: the batch kernel, the scalar all-pairs path
    and arity-1 enumeration.  The variant picks the unit lam (1 or 2).

    ``jordan`` on the kernel is left out: it runs the same kernel as
    ``flexible``, and with it the traced run (one untraced and two traced
    rounds) took ~120 s, too close to the 180 s one benchmark run may last."""

    def __init__(self):
        F3 = rings.PrimeField(3)
        self.handles = []
        for lam in (1, 2):
            S = etale.SplitTorus(F3)
            self.handles.append(
                {
                    "col_split": algebras.ColSplitAlgebra(F3, lam),
                    "w_split": algebras.WSplitAlgebra(F3, lam),
                    "zorn": algebras.ZornAlgebra(F3, lam),
                    "col_hermitian": algebras.ColHermAlgebra(
                        HermitianSpace(S, mat_identity(S), (lam, lam))
                    ),
                }
            )

    def jobs(self, variant: int):
        h = self.handles[variant]
        ex = checks.Sampler(seed=0, mode="exhaustive")

        def run(family, suite):
            return lambda: checks.run_suite(h[family], suite, ex)

        return [
            ("kernel:col_split/flexible", run("col_split", "flexible")),
            ("scalar:w_split/anticommutative", run("w_split", "anticommutative")),
            ("arity1:zorn/quadratic", run("zorn", "quadratic")),
            ("arity1:zorn/power-assoc", run("zorn", "power-assoc")),
            ("arity1:col_hermitian/quadratic", run("col_hermitian", "quadratic")),
            ("arity1:col_hermitian/power-assoc", run("col_hermitian", "power-assoc")),
        ]


# ------------------------------------------------------------------- CLI

_F7 = {"kind": "Fp", "p": 7}
_Q = {"kind": "Q"}
_KUMMER_DET1 = {
    "etale": {"kind": "kummer", "d": "3"},
    "gram": [[["1", "0"], ["2", "1"], ["0", "0"]], [["2", "-1"], ["2", "0"], ["0", "0"]], [["0", "0"], ["0", "0"], ["1", "0"]]],
    "alpha": ["1", "0"],
}
_SPLIT_DET1 = {
    "etale": {"kind": "split"},
    "gram": [[["1", "1"], ["1", "2"], ["0", "0"]], [["2", "1"], ["3", "3"], ["0", "0"]], [["0", "0"], ["0", "0"], ["1", "1"]]],
    "alpha": ["1", "1"],
}
_SPLIT_ID = {
    "etale": {"kind": "split"},
    "gram": [[["1", "1"], ["0", "0"], ["0", "0"]], [["0", "0"], ["1", "1"], ["0", "0"]], [["0", "0"], ["0", "0"], ["1", "1"]]],
    "alpha": ["1", "1"],
}

# name -> config written to <fixture dir>/<name>.json
CLI_CONFIGS = {
    "col_split-F7": {"ring": _F7, "construction": {"kind": "col_split", "lam": "1"}},
    "col_split-Z15": {"ring": {"kind": "Zmod", "n": 15}, "construction": {"kind": "col_split", "lam": "2"}},
    "col_split-Q": {"ring": _Q, "construction": {"kind": "col_split", "lam": "1"}},
    "zorn-F7": {"ring": _F7, "construction": {"kind": "zorn", "lam": "2"}},
    "w_split-Q": {"ring": _Q, "construction": {"kind": "w_split", "lam": "1"}},
    "cay-kummer-F7": {"ring": _F7, "construction": dict(kind="cay_hermitian", **_KUMMER_DET1)},
    "cay-split-Q": {"ring": _Q, "construction": dict(kind="cay_hermitian", **_SPLIT_DET1)},
    "colherm-split-F7": {"ring": _F7, "construction": dict(kind="col_hermitian", **_SPLIT_ID)},
    "graded-111-F7": {"ring": _F7, "construction": {"kind": "graded", "l": 1, "m": 1, "n": 1}},
    "graded-121-F7": {"ring": _F7, "construction": {"kind": "graded", "l": 1, "m": 2, "n": 1}},
    "even-modulus": {"ring": {"kind": "Zmod", "n": 4}, "construction": {"kind": "col_split", "lam": "1"}},
    "ring-not-object": {"ring": 5, "construction": {"kind": "col_split", "lam": "1"}},
}

CLI_MAPS = {
    "dual": {"kind": "dual"},
    "G-phi-cycle": {
        "kind": "G-phi",
        "matrix": [[["0", "0"], ["0", "0"], ["1", "1"]], [["1", "1"], ["0", "0"], ["0", "0"]], [["0", "0"], ["1", "1"], ["0", "0"]]],
    },
}

# the configs whose handles the set-up builds (the others are meant to fail)
CLI_VALID = [k for k in CLI_CONFIGS if k not in ("even-modulus", "ring-not-object")]


def _q_element_coords(rng, n):
    return [f"{rng.randint(-9, 9)}/{rng.randint(1, 5)}" for _ in range(n)]


def cli_mul_inputs(variant: int) -> dict:
    """Per-variant factors for the ``mul`` jobs, as element JSON."""
    rng = random.Random(pool_seed(variant))
    c = lambda n: _q_element_coords(rng, n)  # noqa: E731
    f7 = lambda n: [str(rng.randrange(7)) for _ in range(n)]  # noqa: E731
    pair = lambda: [[str(rng.randint(-9, 9)), str(rng.randint(-9, 9))] for _ in range(3)]  # noqa: E731
    out = {}
    for side in ("x", "y"):
        a = c(7)
        out[f"col_split-Q.{side}"] = {"a": a[0], "u": a[1:4], "ud": a[4:7]}
        z = f7(8)
        out[f"zorn-F7.{side}"] = {"a": z[0], "ap": z[1], "u": z[2:5], "ud": z[5:8]}
        out[f"cay-split-Q.{side}"] = {
            "a": [str(rng.randint(-9, 9)), str(rng.randint(-9, 9))],
            "u": pair(),
        }
    return out


class CliCold:
    """Sequential fresh ``python -m colouralg`` processes, one client."""

    CHECK_SAMPLES = 6

    def __init__(self, fixture_dir: str):
        from colouralg import cli

        self.dir = fixture_dir
        os.makedirs(fixture_dir, exist_ok=True)
        for name, cfg in CLI_CONFIGS.items():
            self._write(f"{name}.json", cfg)
        for name, m in CLI_MAPS.items():
            self._write(f"map-{name}.json", m)
        # the handles every invocation of the round rebuilds
        self.handles = [cli.build_algebra(CLI_CONFIGS[k]) for k in CLI_VALID]

    def _write(self, name, obj):
        with open(os.path.join(self.dir, name), "w", encoding="utf-8") as fh:
            json.dump(obj, fh, sort_keys=True)

    def _p(self, name):
        return os.path.join(self.dir, name)

    def jobs(self, variant: int):
        for key, elem in cli_mul_inputs(variant).items():
            self._write(f"mul-{variant}-{key}.json", elem)
        seed = str(pool_seed(variant))
        n = str(self.CHECK_SAMPLES)
        cfg = lambda k: self._p(f"{k}.json")  # noqa: E731
        mul = lambda k: [  # noqa: E731
            "mul", cfg(k), self._p(f"mul-{variant}-{k}.x.json"), self._p(f"mul-{variant}-{k}.y.json")
        ]
        return [
            ("build:col_split-F7", ["build", cfg("col_split-F7")]),
            ("build:cay-kummer-F7", ["build", cfg("cay-kummer-F7")]),
            ("check:zorn-F7", ["check", cfg("zorn-F7"), "--seed", seed, "--samples", n]),
            ("check:cay-kummer-F7", ["check", cfg("cay-kummer-F7"), "--seed", seed, "--samples", n]),
            ("check:w_split-Q", ["check", cfg("w_split-Q"), "--seed", seed, "--samples", n]),
            ("check:col_split-Z15/jordan", ["check", cfg("col_split-Z15"), "--suite", "jordan", "--seed", seed, "--samples", "40"]),
            ("mul:col_split-Q", mul("col_split-Q")),
            ("mul:zorn-F7", mul("zorn-F7")),
            ("mul:cay-split-Q", mul("cay-split-Q")),
            ("map-check:dual/col_split-F7", ["map-check", cfg("col_split-F7"), self._p("map-dual.json"), "--seed", seed, "--samples", "30"]),
            ("map-check:G-phi/colherm-split-F7", ["map-check", cfg("colherm-split-F7"), self._p("map-G-phi-cycle.json"), "--seed", seed, "--samples", "30"]),
            ("graded-info:111-F7", ["graded-info", cfg("graded-111-F7")]),
            ("graded-info:121-F7", ["graded-info", cfg("graded-121-F7")]),
            ("error:even-modulus", ["check", cfg("even-modulus")]),
            ("error:inapplicable-suite", ["check", cfg("col_split-F7"), "--suite", "composition"]),
            ("error:samples-zero", ["check", cfg("zorn-F7"), "--samples", "0"]),
            ("error:ring-not-object", ["check", cfg("ring-not-object")]),
        ]


def build(workload: str, work_dir: str):
    if workload == "seeded_finite":
        return SeededFinite()
    if workload == "seeded_exact":
        return SeededExact()
    if workload == "exhaustive_f3":
        return ExhaustiveF3()
    if workload == "cli_cold":
        return CliCold(os.path.join(work_dir, "fixtures"))
    raise ValueError(f"unknown workload {workload!r}")
