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

from . import checks, maps
from .algebras import (
    CayleyAlgebra,
    ColHermAlgebra,
    ColSplitAlgebra,
    WHermAlgebra,
    WSplitAlgebra,
    ZornAlgebra,
)
from .errors import BadDegrees, BadSpec, ColourAlgError, SuiteNotApplicable
from .etale import make_etale
from .graded import GradedAlgebra, GradedSpec, graded_rank, n1_shortcut_report, radical_analysis
from .rings import make_ring, spec_int
from .trivec import HermitianSpace

__all__ = ["main", "build_algebra", "load_config"]

_HERM_KINDS = {"cay_hermitian", "col_hermitian", "w_hermitian"}

# build prints rank^2 products and graded-info's radical analysis grows like
# rank^3; at rank 125 they take about 1 s and 8 s
GRADED_RANK_LIMIT = 128


def load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise BadSpec("the config must be a JSON object")
    return config


def _space_from_config(ring, cons: dict) -> HermitianSpace:
    S = make_etale(ring, cons["etale"])
    rows = cons["gram"]
    square = isinstance(rows, list) and len(rows) == 3
    if not (square and all(isinstance(r, list) and len(r) == 3 for r in rows)):
        raise BadSpec("the gram matrix must be a 3x3 list of etale pairs")
    gram = [[S.from_json(e) for e in row] for row in rows]
    alpha = S.from_json(cons["alpha"])
    return HermitianSpace(S, gram, alpha)


def build_algebra(config: dict):
    """Construct the algebra handle described by a config dict."""
    ring = make_ring(config["ring"])
    cons = config["construction"]
    if not isinstance(cons, dict):
        raise BadSpec(f"the construction must be an object, got {cons!r}")
    kind = cons["kind"]
    if not isinstance(kind, str):
        raise BadSpec(f"the construction kind must be a string, got {kind!r}")
    if kind in ("col_split", "zorn", "w_split"):
        lam = ring.parse(str(cons.get("lam", "1")))
        cls = {"col_split": ColSplitAlgebra, "zorn": ZornAlgebra, "w_split": WSplitAlgebra}[kind]
        return cls(ring, lam)
    if kind in _HERM_KINDS:
        space = _space_from_config(ring, cons)
        cls = {
            "cay_hermitian": CayleyAlgebra,
            "col_hermitian": ColHermAlgebra,
            "w_hermitian": WHermAlgebra,
        }[kind]
        return cls(space)
    if kind == "graded":
        spec = GradedSpec(*(spec_int(cons, k) for k in ("l", "m", "n")))
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


def cmd_map_check(config: dict, args) -> int:
    A = build_algebra(config)
    sampler = _sampler(config, args)
    with open(args.mapfile, "r", encoding="utf-8") as fh:
        mdesc = json.load(fh)
    kind = mdesc["kind"]
    if kind == "derivation":
        if not hasattr(A, "space"):
            raise SuiteNotApplicable("derivation maps need a hermitian construction")
        d = [[A.S.from_json(e) for e in row] for row in mdesc["matrix"]]
        report = maps.is_derivation(d, A, sampler)
    else:
        if kind == "diagonal":
            phi = [[A.ring.parse(e) for e in row] for row in mdesc["matrix"]]
            lam_prime = A.ring.parse(str(mdesc["lam_prime"]))
            m = maps.diagonal_iso(A, phi, lam_prime)
        elif kind == "dual":
            m = maps.dual_iso(A)
        elif kind == "cube-root":
            m = maps.cube_root_auto(A, A.ring.parse(str(mdesc["mu"])))
        elif kind == "custom":
            table = [[A.ring.parse(e) for e in row] for row in mdesc["table"]]
            m = maps.custom_map(A, A, table)
        elif kind in ("G-phi", "H-phi"):
            if not hasattr(A, "space"):
                raise SuiteNotApplicable(f"{kind} maps need a hermitian construction")
            space = A.space
            phi = [[A.S.from_json(e) for e in row] for row in mdesc["matrix"]]
            target_space = space
            if "gram_prime" in mdesc or "alpha_prime" in mdesc:
                S = space.S
                gram = (
                    [[S.from_json(e) for e in row] for row in mdesc["gram_prime"]]
                    if "gram_prime" in mdesc
                    else space.gram
                )
                alpha = S.from_json(mdesc["alpha_prime"]) if "alpha_prime" in mdesc else space.alpha
                target_space = HermitianSpace(S, gram, alpha)
            target = "colour" if kind == "G-phi" else "cayley"
            m = maps.lift_isometry(space, target_space, phi, target)
        else:
            raise SuiteNotApplicable(f"unknown map kind {kind!r}")
        report = maps.is_homomorphism(m, sampler)
    if args.format == "text":
        state = "PASS" if report.passed else "FAIL"
        sys.stdout.write(f"{state}  {report.identity} samples={report.samples}\n")
    else:
        sys.stdout.write(checks.report_json_line(report) + "\n")
    return 0 if report.passed else 1


def cmd_mul(config: dict, args) -> int:
    A = build_algebra(config)
    with open(args.x, "r", encoding="utf-8") as fh:
        x = A.element_from_json(json.load(fh))
    with open(args.y, "r", encoding="utf-8") as fh:
        y = A.element_from_json(json.load(fh))
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
    out["checks"].append({"name": "rank-matches-enumeration", "pass": enumerated == A.rank})
    if A.ring.is_field:
        _, dim, nilp = radical_analysis(A)
        out["radical_dim"] = dim
        out["nilpotency"] = nilp
        out["checks"] += [
            {"name": "radical-is-ideal", "pass": True},
            {"name": "radical-cube-zero", "pass": True},
        ]
    else:
        out["radical_dim"] = None
        out["nilpotency"] = None
        out["note"] = "radical analysis requires a field base"
    _emit(out)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="colouralg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("config", help="path to the JSON config file")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--samples", type=int, default=None)
        sp.add_argument("--mode", choices=["seeded", "exhaustive"], default=None)
        sp.add_argument("--format", choices=["json", "text"], default="json")

    common(sub.add_parser("build", help="print family metadata and structure constants"))
    p_check = sub.add_parser("check", help="run an identity suite")
    common(p_check)
    p_check.add_argument("--suite", default="all-applicable")
    p_map = sub.add_parser("map-check", help="verify a declared map")
    common(p_map)
    p_map.add_argument("mapfile", help="path to the JSON map description")
    p_mul = sub.add_parser("mul", help="multiply two serialized elements")
    common(p_mul)
    p_mul.add_argument("x", help="path to the left factor (JSON)")
    p_mul.add_argument("y", help="path to the right factor (JSON)")
    common(sub.add_parser("graded-info", help="graded construction statistics"))

    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        if args.command == "build":
            return cmd_build(config, args)
        if args.command == "check":
            return cmd_check(config, args)
        if args.command == "map-check":
            return cmd_map_check(config, args)
        if args.command == "mul":
            return cmd_mul(config, args)
        if args.command == "graded-info":
            return cmd_graded_info(config, args)
        raise SuiteNotApplicable(f"unknown command {args.command!r}")
    except (ColourAlgError, KeyError, ValueError, OSError, json.JSONDecodeError) as exc:
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())
