"""Command-line front end.

Subcommands::

    colouralg build CONFIG              # family metadata + structure constants
    colouralg check CONFIG --suite S    # identity suites as JSON lines
    colouralg map-check CONFIG MAPFILE  # verify a declared map
    colouralg mul CONFIG X.json Y.json  # multiply two serialized elements
    colouralg graded-info CONFIG        # rank / radical statistics

CONFIG is a JSON file::

    {"ring": {"kind": "Fp", "p": 7},
     "construction": {"kind": "col_split", "lam": "1"},
     "seed": 42, "samples": 500, "mode": "seeded"}

Construction kinds: col_split, zorn, w_split (fields: lam), cay_hermitian,
col_hermitian, w_hermitian (fields: etale, gram, alpha), graded (fields:
l, m, n).  Flags --seed/--samples/--mode/--format override the config.

Exit codes: 0 all checks passed, 1 an identity failed, 2 configuration or
parse error.  All stdout is JSON (or JSON lines); ``--format text`` renders
a human-readable table instead.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial

from . import checks, maps
from .algebras import (
    CayleyAlgebra,
    ColHermAlgebra,
    ColSplitAlgebra,
    WHermAlgebra,
    WSplitAlgebra,
    ZornAlgebra,
)
from .errors import BadDegrees, BadSpec, ColourAlgError, NotSLinear, SuiteNotApplicable
from .etale import make_etale
from .graded import GradedAlgebra, GradedSpec, graded_rank, n1_shortcut_report, radical_analysis
from .rings import make_ring, spec_int, spec_key
from .trivec import HermitianSpace

__all__ = ["main", "build_algebra", "load_object"]

# construction kind -> algebra class, built from (ring, lam) and from a hermitian space
_SPLIT_CLASSES = {"col_split": ColSplitAlgebra, "zorn": ZornAlgebra, "w_split": WSplitAlgebra}
_HERM_CLASSES = {"cay_hermitian": CayleyAlgebra, "col_hermitian": ColHermAlgebra, "w_hermitian": WHermAlgebra}

# build prints rank^2 products and graded-info's radical analysis grows like
# rank^3; at rank 125 they take about 1 s and 8 s
GRADED_RANK_LIMIT = 128

_MAP = "the map description"  # the map file, as errors name it


def load_object(path: str, what: str) -> dict:
    """The JSON object in the file at ``path``; ``what`` names the file in errors."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError:  # an integer of more digits than sys.get_int_max_str_digits() allows
        raise BadSpec(f"{what} holds an integer of more than {sys.get_int_max_str_digits()} digits") from None
    except RecursionError:
        raise BadSpec(f"{what} is nested too deeply") from None
    if not isinstance(data, dict):
        raise BadSpec(f"{what} must be a JSON object")
    return data


def _space_from_config(ring, cons: dict) -> HermitianSpace:
    S = make_etale(ring, spec_key(cons, "etale", "the construction"))
    rows = spec_key(cons, "gram", "the construction")
    square = isinstance(rows, list) and len(rows) == 3
    if not (square and all(isinstance(r, list) and len(r) == 3 for r in rows)):
        raise BadSpec("the gram matrix must be a 3x3 list of etale pairs")
    gram = [[S.from_json(e) for e in row] for row in rows]
    alpha = S.from_json(spec_key(cons, "alpha", "the construction"))
    return HermitianSpace(S, gram, alpha)


def build_algebra(config: dict):
    """Construct the algebra handle described by a config dict."""
    ring = make_ring(spec_key(config, "ring", "the config"))
    cons = spec_key(config, "construction", "the config")
    if not isinstance(cons, dict):
        raise BadSpec(f"the construction must be an object, got {cons!r}")
    kind = spec_key(cons, "kind", "the construction")
    if not isinstance(kind, str):
        raise BadSpec(f"the construction kind must be a string, got {kind!r}")
    if kind in _SPLIT_CLASSES:
        return _SPLIT_CLASSES[kind](ring, ring.parse(str(cons.get("lam", "1"))))
    if kind in _HERM_CLASSES:
        return _HERM_CLASSES[kind](_space_from_config(ring, cons))
    if kind == "graded":
        spec = GradedSpec(*(spec_int(cons, k) for k in ("l", "m", "n")))
        # the rank exceeds every degree, as C(l+n, n) > max(l, n): refuse large ones before any binomial
        if max(spec.l, spec.m, spec.n) >= GRADED_RANK_LIMIT:
            raise BadDegrees(f"graded degrees must be below the rank limit {GRADED_RANK_LIMIT}")
        rank = graded_rank(spec)
        if rank > GRADED_RANK_LIMIT:
            raise BadDegrees(f"graded rank {rank} exceeds the limit {GRADED_RANK_LIMIT}")
        return GradedAlgebra(spec, ring)
    raise SuiteNotApplicable(f"unknown construction kind {kind!r}")


def _sampler(config: dict, args) -> checks.Sampler:
    seed = args.seed if args.seed is not None else spec_int(config, "seed", 0)
    count = args.samples if args.samples is not None else spec_int(config, "samples", 500)
    mode = args.mode if args.mode is not None else config.get("mode", "seeded")
    return checks.Sampler(seed=seed, mode=mode, count=count)


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _fail(exc: Exception) -> int:
    err = {"error": type(exc).__name__, "message": str(exc)}
    sys.stderr.write(json.dumps(err, sort_keys=True) + "\n")
    return 2


# ------------------------------------------------------------- commands


def cmd_build(config: dict, args) -> int:
    A = build_algebra(config)
    ring = A.ring
    basis = A.basis()
    labels = A.basis_labels()
    rows = []
    for i, x in enumerate(basis):
        for j, y in enumerate(basis):
            p = A.mul(x, y)
            rows.append(
                {
                    "left": labels[i],
                    "right": labels[j],
                    "product": [ring.format(c) for c in A.coords(p)],
                }
            )
    _emit(
        {
            "family": A.family,
            "ring": ring.to_spec(),
            "rank": A.rank,
            "unital": A.unital,
            "basis": labels,
            "structure_constants": rows,
        }
    )
    return 0


def cmd_check(config: dict, args) -> int:
    A = build_algebra(config)
    sampler = _sampler(config, args)
    reports = checks.run_suite(A, args.suite, sampler)
    ok = True
    for r in reports:
        ok = ok and r.passed
        if args.format == "text":
            state = "PASS" if r.passed else "FAIL"
            sys.stdout.write(f"{state:4}  {r.identity:28} samples={r.samples} ({r.elapsed_ms} ms)\n")
        else:
            sys.stdout.write(checks.report_json_line(r) + "\n")
    return 0 if ok else 1


def _matrix(data, rows: int, cols: int, parse) -> list:
    """A rows x cols JSON matrix of map data, each entry parsed."""
    if not (
        isinstance(data, list)
        and len(data) == rows
        and all(isinstance(row, list) and len(row) == cols for row in data)
    ):
        raise NotSLinear(f"map data must be a {rows} x {cols} matrix, got {data!r}")
    return [[parse(e) for e in row] for row in data]


def _lift(target, A, mdesc, sampler):
    """The lift of the isometry ``matrix`` into A's space or, given ``gram_prime`` or
    ``alpha_prime``, into the space with those replaced."""
    space, S = A.space, A.S
    phi = _matrix(spec_key(mdesc, "matrix", _MAP), 3, 3, S.from_json)
    target_space = space
    if "gram_prime" in mdesc or "alpha_prime" in mdesc:
        gram = _matrix(mdesc["gram_prime"], 3, 3, S.from_json) if "gram_prime" in mdesc else space.gram
        alpha = S.from_json(mdesc["alpha_prime"]) if "alpha_prime" in mdesc else space.alpha
        target_space = HermitianSpace(S, gram, alpha)
    return maps.is_homomorphism(maps.lift_isometry(space, target_space, phi, target), sampler)


# map kind -> (the construction kinds it applies to, as checks.APPLICABLE gates suites,
#              its check from the config's algebra A, the map description m and the sampler s)
MAP_KINDS = {
    "dual": ({"col_split"}, lambda A, m, s: maps.is_homomorphism(maps.dual_iso(A), s)),
    "cube-root": (
        _SPLIT_CLASSES,
        lambda A, m, s: maps.is_homomorphism(maps.cube_root_auto(A, A.ring.parse(str(spec_key(m, "mu", _MAP)))), s),
    ),
    "diagonal": (
        _SPLIT_CLASSES,
        lambda A, m, s: maps.is_homomorphism(
            maps.diagonal_iso(
                A,
                _matrix(spec_key(m, "matrix", _MAP), 3, 3, A.ring.parse),
                A.ring.parse(str(spec_key(m, "lam_prime", _MAP))),
            ),
            s,
        ),
    ),
    "custom": (
        checks.APPLICABLE,
        lambda A, m, s: maps.is_homomorphism(
            maps.custom_map(A, A, _matrix(spec_key(m, "table", _MAP), A.rank, A.rank, A.ring.parse)), s
        ),
    ),
    "derivation": (
        _HERM_CLASSES,
        lambda A, m, s: maps.is_derivation(_matrix(spec_key(m, "matrix", _MAP), 3, 3, A.S.from_json), A, s),
    ),
    "G-phi": ({"col_hermitian"}, partial(_lift, "colour")),
    "H-phi": ({"cay_hermitian"}, partial(_lift, "cayley")),
}


def cmd_map_check(config: dict, args) -> int:
    A = build_algebra(config)
    sampler = _sampler(config, args)
    mdesc = load_object(args.mapfile, _MAP)
    kind = spec_key(mdesc, "kind", _MAP)
    if not isinstance(kind, str) or kind not in MAP_KINDS:
        raise SuiteNotApplicable(f"unknown map kind {kind!r}")
    families, check = MAP_KINDS[kind]
    if A.family not in families:
        raise SuiteNotApplicable(f"{kind} maps do not apply to {A.family}")
    report = check(A, mdesc, sampler)
    if args.format == "text":
        state = "PASS" if report.passed else "FAIL"
        sys.stdout.write(f"{state}  {report.identity} samples={report.samples}\n")
    else:
        sys.stdout.write(checks.report_json_line(report) + "\n")
    return 0 if report.passed else 1


def cmd_mul(config: dict, args) -> int:
    A = build_algebra(config)
    x, y = (A.element_from_json(load_object(path, "an element file")) for path in (args.x, args.y))
    p = A.mul(x, y)
    out = {"product": A.element_to_json(p), "norm": A.ring.format(A.norm(p))}
    if A.unital:
        out["trace"] = A.ring.format(A.trace(p))
    _emit(out)
    return 0


def cmd_graded_info(config: dict, args) -> int:
    A = build_algebra(config)
    if not isinstance(A, GradedAlgebra):
        raise SuiteNotApplicable("graded-info needs a graded construction")
    spec = A.spec
    out = {
        "rank": A.rank,
        "slot_ranks": {
            "l": len(A.basis_l),
            "m": len(A.basis_m),
            "lm": len(A.basis_lm),
        },
        "n1_shortcut": n1_shortcut_report(spec),
        "checks": [],
    }
    enumerated = 1 + len(A.basis_l) + len(A.basis_m) + len(A.basis_lm)
    out["checks"].append({"name": "rank-matches-enumeration", "pass": enumerated == graded_rank(spec)})
    if A.ring.is_field:
        _, dim, nilp, findings = radical_analysis(A)
        out["radical_dim"] = dim
        out["nilpotency"] = nilp
        out["checks"] += [{"name": name, "pass": ok} for name, ok in findings.items()]
    else:
        out["radical_dim"] = None
        out["nilpotency"] = None
        out["note"] = "radical analysis requires a field base"
    _emit(out)
    return 0 if all(c["pass"] for c in out["checks"]) else 1


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors end as every other bad input does: ``_fail``'s JSON record on
    stderr and exit 2 (``--help`` still prints and exits 0)."""

    def error(self, message):
        sys.exit(_fail(argparse.ArgumentError(None, message)))


def main(argv=None) -> int:
    parser = _Parser(prog="colouralg", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, about):
        sp = sub.add_parser(name, help=about)
        sp.set_defaults(run=run)
        sp.add_argument("config", help="path to the JSON config file")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--samples", type=int, default=None)
        sp.add_argument("--mode", choices=["seeded", "exhaustive"], default=None)
        sp.add_argument("--format", choices=["json", "text"], default="json")
        return sp

    command("build", cmd_build, "print family metadata and structure constants")
    command("check", cmd_check, "run an identity suite").add_argument("--suite", default="all-applicable")
    command("map-check", cmd_map_check, "verify a declared map").add_argument(
        "mapfile", help="path to the JSON map description"
    )
    p_mul = command("mul", cmd_mul, "multiply two serialized elements")
    p_mul.add_argument("x", help="path to the left factor (JSON)")
    p_mul.add_argument("y", help="path to the right factor (JSON)")
    command("graded-info", cmd_graded_info, "graded construction statistics")

    args = parser.parse_args(argv)
    try:
        return args.run(load_object(args.config, "the config"), args)
    except (ColourAlgError, KeyError, ValueError, OSError, json.JSONDecodeError) as exc:
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())
