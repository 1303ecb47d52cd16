"""Golden CLI outputs: the behaviour contract of every refactor.

Each case runs one CLI command in-process and compares its exit code and its
exact stdout with ``tests/golden/cli.json``.  The fixtures cover one
configuration per family (plus a polynomial base ring and a non-field
graded base); the failing controls pin counterexamples, and with them the
SplitMix64 draw order, the basis order and the lowest failing index.

The in-process cases pin reports the CLI cannot produce: the
``norm-composition`` control on ``col_split`` (seeded and exhaustive), which
the CLI cannot request because the suite is gated off for that family; the
``herm-cross`` suite on spaces with a planted fault in alpha, ``h`` or the
cross product; homomorphism, derivation, cross-construction and Cayley-Zorn
checks that fail, some under a planted fault in a family's ``mul`` or
``norm``; seeded element identities over Z/n that fail under a fault that
keeps the product bilinear (a wrong pairing weight, a doubled alpha, one
wrong structure constant).  Their stdout is the report JSON lines, their exit code 1 when a
report fails.

Regenerate the goldens only when an output change is intended::

    PYTHONPATH=src python tests/test_golden.py --record
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from dataclasses import replace
from unittest import mock

import pytest

from colouralg import checks, cli, etale, maps, rings
from colouralg.algebras import CayleyAlgebra, ColSplitAlgebra, WHermAlgebra, WSplitAlgebra, ZornAlgebra
from colouralg.graded import GradedAlgebra, GradedSpec
from colouralg.trivec import HermitianSpace, mat_identity

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "cli.json")

F7 = {"kind": "Fp", "p": 7}


def _pairs(rows):
    return [[[str(a), str(b)] for a, b in row] for row in rows]


_ID = [[(1, 0), (0, 0), (0, 0)], [(0, 0), (1, 0), (0, 0)], [(0, 0), (0, 0), (1, 0)]]
_SPLIT_ID = [[(1, 1), (0, 0), (0, 0)], [(0, 0), (1, 1), (0, 0)], [(0, 0), (0, 0), (1, 1)]]
# [[1, 2+r, 0], [2-r, 2, 0], [0, 0, 1]] over F7[r], r^2 = 3: det = 1
_KUMMER_DET1 = [[(1, 0), (2, 1), (0, 0)], [(2, -1), (2, 0), (0, 0)], [(0, 0), (0, 0), (1, 0)]]
_CYCLE = [[(0, 0), (0, 0), (1, 1)], [(1, 1), (0, 0), (0, 0)], [(0, 0), (1, 1), (0, 0)]]
# x |-> h(e1, x) e2 - h(e2, x) e1 for the identity Gram matrix
_LAMBDA12 = [[(0, 0), (-1, 0), (0, 0)], [(1, 0), (0, 0), (0, 0)], [(0, 0), (0, 0), (0, 0)]]

FILES = {
    # configs, one per family
    "col_split.json": {"ring": {"kind": "Zmod", "n": 15}, "construction": {"kind": "col_split", "lam": "2"}},
    "col_split-poly.json": {
        "ring": {"kind": "poly", "base": F7, "vars": ["t0", "t1"]},
        "construction": {"kind": "col_split", "lam": "3"},
    },
    "zorn.json": {"ring": F7, "construction": {"kind": "zorn", "lam": "3"}},
    "w_split.json": {"ring": {"kind": "Q"}, "construction": {"kind": "w_split", "lam": "1/2"}},
    "cay_hermitian.json": {
        "ring": F7,
        "construction": {
            "kind": "cay_hermitian",
            "etale": {"kind": "kummer", "d": "3"},
            "gram": _pairs(_KUMMER_DET1),
            "alpha": ["1", "0"],
        },
    },
    "col_hermitian.json": {
        "ring": F7,
        "construction": {
            "kind": "col_hermitian",
            "etale": {"kind": "split"},
            "gram": _pairs(_SPLIT_ID),
            "alpha": ["3", "5"],
        },
    },
    "w_hermitian.json": {
        "ring": {"kind": "Fp", "p": 5},
        "construction": {
            "kind": "w_hermitian",
            "etale": {"kind": "kummer", "d": "2"},
            "gram": _pairs(_ID),
            "alpha": ["1", "0"],
        },
    },
    "graded.json": {"ring": F7, "construction": {"kind": "graded", "l": 1, "m": 2, "n": 1}},
    "graded-Z15.json": {"ring": {"kind": "Zmod", "n": 15}, "construction": {"kind": "graded", "l": 1, "m": 1, "n": 1}},
    # maps
    "map-dual.json": {"kind": "dual"},
    "map-cube-root.json": {"kind": "cube-root", "mu": "2"},
    "map-diagonal.json": {"kind": "diagonal", "matrix": [["2", "0", "0"], ["0", "4", "0"], ["0", "0", "1"]], "lam_prime": "3"},
    "map-G-phi.json": {"kind": "G-phi", "matrix": _pairs(_CYCLE)},
    "map-H-phi.json": {"kind": "H-phi", "matrix": _pairs(_ID)},
    "map-derivation.json": {"kind": "derivation", "matrix": _pairs(_LAMBDA12)},
    "map-not-derivation.json": {"kind": "derivation", "matrix": _pairs(_ID)},
    # swaps u1 and u2 but leaves the dual slots alone: not a homomorphism
    "map-custom.json": {
        "kind": "custom",
        "table": [[str(int(i == {1: 2, 2: 1}.get(j, j))) for j in range(7)] for i in range(7)],
    },
    # factors for mul, one pair per family
    "col_split.x.json": {"a": "3", "u": ["1", "1/2", "14"], "ud": ["0", "7", "2"]},
    "col_split.y.json": {"a": "-1", "u": ["4", "0", "5"], "ud": ["1", "1", "-3"]},
    "col_split-poly.x.json": {"a": "t0 + 1", "u": ["t1", "2*t0^2", "0"], "ud": ["1", "t0*t1", "-t1"]},
    "col_split-poly.y.json": {"a": "t1", "u": ["1", "t0", "t1 - 3"], "ud": ["t0", "0", "5"]},
    "zorn.x.json": {"a": "1", "u": ["2", "3", "4"], "ud": ["5", "6", "0"], "ap": "6"},
    "zorn.y.json": {"a": "4", "u": ["0", "1", "1"], "ud": ["3", "2", "1"], "ap": "2"},
    "w_split.x.json": {"u": ["1/3", "-2", "0"], "ud": ["5", "1/7", "1"]},
    "w_split.y.json": {"u": ["2", "1", "-1/2"], "ud": ["0", "3", "4/5"]},
    "cay_hermitian.x.json": {"a": ["2", "5"], "u": [["1", "0"], ["3", "4"], ["6", "1"]]},
    "cay_hermitian.y.json": {"a": ["0", "1"], "u": [["2", "2"], ["0", "5"], ["1", "3"]]},
    "col_hermitian.x.json": {"a": "4", "u": [["1", "6"], ["2", "0"], ["3", "3"]]},
    "col_hermitian.y.json": {"a": "2", "u": [["0", "5"], ["1", "1"], ["4", "2"]]},
    "w_hermitian.x.json": {"u": [["1", "2"], ["3", "4"], ["0", "1"]]},
    "w_hermitian.y.json": {"u": [["4", "0"], ["2", "2"], ["1", "3"]]},
    "graded.x.json": {"a": "2", "fl": "t0 + 3*t1", "fm": "t0^2 - t0*t1", "flm": "t1^3"},
    "graded.y.json": {"a": "5", "fl": "4*t1", "fm": "2*t1^2 + t0^2", "flm": "t0^2*t1 + 1*t0^3"},
}

FAMILIES = ["col_split", "col_split-poly", "zorn", "w_split", "cay_hermitian", "col_hermitian", "w_hermitian", "graded"]
SEEDED = ["--seed", "11", "--samples", "20"]

CASES = {}
for fam in FAMILIES:
    CASES[f"build:{fam}"] = ["build", f"{fam}.json"]
    CASES[f"check:{fam}"] = ["check", f"{fam}.json", *SEEDED]
    CASES[f"mul:{fam}"] = ["mul", f"{fam}.json", f"{fam}.x.json", f"{fam}.y.json"]
CASES.update(
    {
        "check:col_split/jordan": ["check", "col_split.json", "--suite", "jordan", "--seed", "3", "--samples", "7"],
        "map-check:dual/col_split": ["map-check", "col_split.json", "map-dual.json", *SEEDED],
        "map-check:cube-root/zorn": ["map-check", "zorn.json", "map-cube-root.json", *SEEDED],
        "map-check:diagonal/zorn": ["map-check", "zorn.json", "map-diagonal.json", *SEEDED],
        "map-check:diagonal/zorn-exhaustive": ["map-check", "zorn.json", "map-diagonal.json", "--mode", "exhaustive"],
        "map-check:G-phi/col_hermitian": ["map-check", "col_hermitian.json", "map-G-phi.json", *SEEDED],
        "map-check:H-phi/cay_hermitian": ["map-check", "cay_hermitian.json", "map-H-phi.json", *SEEDED],
        "map-check:derivation/w_hermitian": ["map-check", "w_hermitian.json", "map-derivation.json", *SEEDED],
        "map-check:derivation/cay_hermitian": ["map-check", "cay_hermitian.json", "map-derivation.json", *SEEDED],
        "map-check:not-derivation/col_hermitian": ["map-check", "col_hermitian.json", "map-not-derivation.json", *SEEDED],
        "map-check:custom/col_split": ["map-check", "col_split.json", "map-custom.json", *SEEDED],
        "map-check:custom/col_split-exhaustive": ["map-check", "col_split.json", "map-custom.json", "--mode", "exhaustive"],
        "graded-info:graded": ["graded-info", "graded.json"],
        "graded-info:graded-Z15": ["graded-info", "graded-Z15.json"],
    }
)


def control_norm_composition(mode):
    """The failing control: norm-composition does not hold on col_split."""
    if mode == "seeded":
        A, sampler = ColSplitAlgebra(rings.IntegersMod(15), 2), checks.Sampler(seed=11, count=50)
    else:
        A, sampler = ColSplitAlgebra(rings.PrimeField(3), 1), checks.Sampler(mode="exhaustive")
    return [checks.run_identity(A, "norm-composition", sampler)]


# ----- planted faults in the hermitian space behind the herm-cross suite


def _split_f7():
    S = etale.SplitTorus(rings.PrimeField(7))
    return S, mat_identity(S)


def _kummer(R):
    """S = R[r]/(r^2 - 3) with the det-1 Gram matrix [[1, 2+r, 0], [2-r, 2, 0], [0, 0, 1]]."""
    K = etale.KummerExtension(R, R.of_int(3))
    z, o = K.zero, K.one
    s = (R.of_int(2), R.of_int(1))
    return K, ((o, s, z), (K.conj(s), K.scalar(R.of_int(2)), z), (z, z, o))


class _SwappedH(HermitianSpace):
    """h with its arguments swapped: conjugate-linear in the second slot."""

    def h(self, u, v):
        return HermitianSpace.h(self, v, u)


class _PerturbedCross(HermitianSpace):
    """The cross product plus v_1 w_1 in its first coordinate."""

    def cross(self, v, w):
        c = HermitianSpace.cross(self, v, w)
        return (self.S.add(c[0], self.S.mul(v[0], w[0])), c[1], c[2])


class _RareCross(HermitianSpace):
    """The cross product plus 1 in its last coordinate when two draws agree (~1 in 7)."""

    def cross(self, v, w):
        c = HermitianSpace.cross(self, v, w)
        return (c[0], c[1], self.S.add(c[2], self.S.one)) if v[0][0] == w[1][1] else c


def _alpha_doubled(S, gram):
    P = HermitianSpace(S, gram, S.one)
    P.alpha = S.add(S.one, S.one)  # after validation: n_S(alpha) det(H) = 4
    return P


def herm_cross(space):
    return checks.run_suite(WHermAlgebra(space), "herm-cross", checks.Sampler(seed=11, count=20))


# ----- failing map checks


def _rare_dual_fault():
    """The dual isomorphism of col_split over F7, off by one in the unit slot on x with a = 0 and ud3 != 0."""
    dual = maps.dual_iso(ColSplitAlgebra(rings.PrimeField(7), 1))
    B = dual.codomain

    def fn(x):
        y = dual.apply(x)
        return B.add(y, B.one()) if x.a == 0 and x.ud[2] != 0 else y

    return maps.AlgebraMap("planted", dual.domain, B, fn)


def _unchecked_diagonal():
    """A diagonal map of w_split over F7 that breaks det(phi) lam' = lam (no unit to check)."""
    phi = ((2, 0, 0), (0, 1, 0), (0, 0, 1))
    return maps.diagonal_iso(WSplitAlgebra(rings.PrimeField(7), 1), phi, 1, check=False)


def _not_derivation(mode):
    K, gram = _kummer(rings.PrimeField(7))
    d = mat_identity(K)
    sampler = checks.Sampler(seed=11, count=20, mode=mode)
    return [maps.is_derivation(d, CayleyAlgebra(HermitianSpace(K, gram, K.one)), sampler)]


# ----- planted faults in the families compared by the construction checks


def _planted(cls, name, wrong, fix):
    """Patch ``cls.name`` so that its result on inputs where ``wrong`` holds is ``fix(self, result)``."""
    real = getattr(cls, name)

    def method(self, *args):
        out = real(self, *args)
        return fix(self, out) if wrong(*args) else out

    return mock.patch.object(cls, name, method)


def cay_zorn(product=None, norm=None):
    """cay_zorn_check over F7 with planted Zorn faults.

    ``product`` = (i, j) makes the Zorn product of u-slot i by ud-slot j gain
    1 in ap; ``norm`` = i makes the Zorn norm of anything with u-slot i gain
    1.  The Cayley basis maps to 1, ap, u1, u2, u3, ud1, ud2, ud3 in order.
    """
    with contextlib.ExitStack() as patches:
        if product is not None:
            i, j = product
            wrong = lambda x, y: x.u[i] != 0 and y.ud[j] != 0  # noqa: E731
            patches.enter_context(_planted(ZornAlgebra, "mul", wrong, lambda A, z: replace(z, ap=A.ring.add(z.ap, 1))))
        if norm is not None:
            patches.enter_context(_planted(ZornAlgebra, "norm", lambda x: x.u[norm] != 0, lambda A, n: A.ring.add(n, 1)))
        return [checks.cay_zorn_check(rings.PrimeField(7))]


def cross_construction(corrupt_gram=False, rare_w_fault=False):
    """cross_construction_check over F7 with lam 3; ``rare_w_fault`` negates some w_split products."""
    with contextlib.ExitStack() as patches:
        if rare_w_fault:
            wrong = lambda x, y: x.u[0] == 3  # noqa: E731
            patches.enter_context(_planted(WSplitAlgebra, "mul", wrong, lambda A, z: A.neg(z)))
        sampler = checks.Sampler(seed=13, count=20)
        return [checks.cross_construction_check(rings.PrimeField(7), 3, sampler, corrupt_gram)]


# ----- seeded element identities over Z/n failing under a bilinear fault


def _half_weight(half):
    """col_split over Z/15 with the pairing weight ``half`` instead of inv(2) = 8."""
    A = ColSplitAlgebra(rings.IntegersMod(15), 2)
    A._half = half
    return A


def _graded_planted_constant(i, j, k):
    """graded(1,1,1) over F7 with 1 added to coordinate k of e_i e_j."""
    A = GradedAlgebra(GradedSpec(1, 1, 1), rings.PrimeField(7))
    real = A.mul

    def planted(x, y):
        c = list(A.coords(real(x, y)))
        c[k] = (c[k] + A.coords(x)[i] * A.coords(y)[j]) % 7
        return A.from_coords(c)

    A.mul = planted
    return A


def seeded(A, suites, seed):
    sampler = checks.Sampler(seed=seed, count=20)
    return [r for suite in suites for r in checks.run_suite(A, suite, sampler)]


Q = rings.RationalField()
ZORN_F7 = ZornAlgebra(rings.PrimeField(7), 1)
SEEDED_MAP = checks.Sampler(seed=11, count=20)
EXHAUSTIVE = checks.Sampler(mode="exhaustive")

# name -> reports computed in-process
IN_PROCESS = {
    "control:norm-composition/col_split-seeded": lambda: control_norm_composition("seeded"),
    "control:norm-composition/col_split-exhaustive": lambda: control_norm_composition("exhaustive"),
    "herm-cross:alpha-doubled/split-F7": lambda: herm_cross(_alpha_doubled(*_split_f7())),
    "herm-cross:h-swapped/kummer-F7": lambda: herm_cross(_SwappedH(*_kummer(rings.PrimeField(7)), (1, 0))),
    "herm-cross:perturbed-cross/kummer-Q": lambda: herm_cross(_PerturbedCross(*_kummer(Q), (Q.one, Q.zero))),
    "herm-cross:rare-cross/split-F7": lambda: herm_cross(_RareCross(*_split_f7(), (1, 1))),
    "herm-cross:rare-cross/kummer-F7": lambda: herm_cross(_RareCross(*_kummer(rings.PrimeField(7)), (1, 0))),
    "homomorphism:planted/seeded": lambda: [maps.is_homomorphism(_rare_dual_fault(), SEEDED_MAP)],
    "homomorphism:planted/exhaustive": lambda: [maps.is_homomorphism(_rare_dual_fault(), EXHAUSTIVE)],
    "homomorphism:unchecked-diagonal/seeded": lambda: [maps.is_homomorphism(_unchecked_diagonal(), SEEDED_MAP)],
    "homomorphism:unchecked-diagonal/exhaustive": lambda: [maps.is_homomorphism(_unchecked_diagonal(), EXHAUSTIVE)],
    "homomorphism:zero-map/unit": lambda: [
        maps.is_homomorphism(maps.custom_map(ZORN_F7, ZORN_F7, [[0] * 8 for _ in range(8)]), SEEDED_MAP)
    ],
    "derivation:identity/cay_hermitian-seeded": lambda: _not_derivation("seeded"),
    "derivation:identity/cay_hermitian-exhaustive": lambda: _not_derivation("exhaustive"),
    "seeded:half-weight-3/col_split-Z15": lambda: [
        checks.run_identity(_half_weight(3), "quadratic-relation", checks.Sampler(seed=13, count=20))
    ],
    "seeded:norm-composition/w_split-F7": lambda: [
        checks.run_identity(WSplitAlgebra(rings.PrimeField(7), 3), "norm-composition", checks.Sampler(seed=9, count=20))
    ],
    "seeded:alpha-doubled/cay_hermitian-kummer-F7": lambda: seeded(
        CayleyAlgebra(_alpha_doubled(*_kummer(rings.PrimeField(7)))), ["jordan", "composition"], 11
    ),
    "seeded:planted-constant/graded-F7": lambda: seeded(_graded_planted_constant(2, 3, 4), ["all-applicable"], 11),
    "cross-construction:corrupt-gram": lambda: cross_construction(corrupt_gram=True),
    "cross-construction:rare-w_split-fault": lambda: cross_construction(rare_w_fault=True),
    "cay-zorn:product-fault": lambda: cay_zorn(product=(1, 0)),
    "cay-zorn:norm-fault": lambda: cay_zorn(norm=0),
    # both faults on u2: the product with ud3, x's last pair, is reported before its norm
    "cay-zorn:product-and-norm-fault": lambda: cay_zorn(product=(1, 2), norm=1),
}


def write_files(directory):
    for name, payload in FILES.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def run_case(name, directory):
    """(exit code, stdout) of one case."""
    if name in IN_PROCESS:
        reports = IN_PROCESS[name]()
        return int(not all(r.passed for r in reports)), "".join(checks.report_json_line(r) + "\n" for r in reports)
    argv = [os.path.join(directory, a) if a.endswith(".json") else a for a in CASES[name]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def load_golden():
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    write_files(directory)
    return str(directory)


@pytest.mark.parametrize("name", list(CASES) + list(IN_PROCESS))
def test_golden_output(name, files):
    want = load_golden()[name]
    code, out = run_case(name, files)
    assert code == want["exit"]
    assert out == want["stdout"]


def record():
    with tempfile.TemporaryDirectory() as directory:
        write_files(directory)
        golden = {name: dict(zip(("exit", "stdout"), run_case(name, directory))) for name in list(CASES) + list(IN_PROCESS)}
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(golden)} cases to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
