"""Command-line front end.

Exit codes: 0 on success, 1 when a verification command finds a violated
property, 2 for bad input or usage, 3 for an internal error (an
ArithmeticError or AssertionError: an exact computation that could not
finish, or a broken internal invariant).  All structured output goes through
the same deterministic JSON writer the library uses, so identical
invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .cones import co_volume
from .errors import CoconvexError
from .forms import (
    af_form,
    co_af_form,
    co_volume_polynomial,
    mixed_volume,
    volume_polynomial,
)
from .harness import (
    ALL_SUITES,
    ExperimentConfig,
    SplitMix64,
    config_from_json,
    gen_coconvex_body,
    gen_coconvex_family,
    gen_cone,
    gen_convex_body,
    gen_convex_family,
    run_suite,
)
from .jsonio import (
    coconvex_family_from_json,
    coconvex_family_to_json,
    coconvex_from_json,
    coconvex_to_json,
    cone_to_json,
    convex_family_from_json,
    convex_family_to_json,
    dump_json,
    form_from_json,
    polyhedron_from_json,
    polyhedron_to_json,
    polynomial_to_json,
    rational_to_json,
    read_json_file,
    signature_to_json,
)
from .lift import (
    lift,
    lifted_volume_polynomial,
    verify_identity_Q,
    verify_identity_V,
    verify_signature_argument,
)
from .polynomial import signature
from .polytope import volume


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _family_from_file(path):
    obj = read_json_file(path)
    if "cone" in obj:
        return coconvex_family_from_json(obj), True
    return convex_family_from_json(obj), False


def _cmd_gen(args) -> int:
    rng = SplitMix64(args.seed).derive(f"gen:{args.kind}")
    d, n, bound = args.dim, args.n, args.bound
    if args.kind == "body":
        payload = polyhedron_to_json(gen_convex_body(rng, d, bound))
    elif args.kind == "cone":
        payload = cone_to_json(gen_cone(rng, d, bound))
    elif args.kind == "coconvex-body":
        cone = gen_cone(rng, d, bound)
        payload = coconvex_to_json(gen_coconvex_body(rng, cone, bound))
    elif args.kind == "convex-family":
        payload = convex_family_to_json(gen_convex_family(rng, d, n, bound))
    else:
        payload = coconvex_family_to_json(gen_coconvex_family(rng, d, n, bound))
    _emit(dump_json(payload), args.out)
    return 0


def _cmd_volume(args) -> int:
    obj = read_json_file(args.file)
    if "cone" in obj:
        val = co_volume(coconvex_from_json(obj))
    else:
        val = volume(polyhedron_from_json(obj))
    _emit(dump_json({"volume": rational_to_json(val)}), args.out)
    return 0


def _cmd_mixedvol(args) -> int:
    bodies = [polyhedron_from_json(read_json_file(p)) for p in args.files]
    val = mixed_volume(bodies)
    _emit(dump_json({"mixed_volume": rational_to_json(val)}), args.out)
    return 0


def _cmd_volpoly(args) -> int:
    fam, is_coconvex = _family_from_file(args.file)
    poly = co_volume_polynomial(fam) if is_coconvex else volume_polynomial(fam)
    _emit(dump_json(polynomial_to_json(poly)), args.out)
    return 0


def _forms_payload(B, Q):
    from .jsonio import form_to_json

    return {
        "bilinear": form_to_json(B),
        "quadratic": form_to_json(Q),
        "signature": signature_to_json(signature(Q)),
    }


def _cmd_afform(args) -> int:
    fam, is_coconvex = _family_from_file(args.file)
    if is_coconvex:
        raise CoconvexError("afform expects a convex family; use co-afform")
    B, Q = af_form(fam)
    _emit(dump_json(_forms_payload(B, Q)), args.out)
    return 0


def _cmd_co_afform(args) -> int:
    fam, is_coconvex = _family_from_file(args.file)
    if not is_coconvex:
        raise CoconvexError("co-afform expects a coconvex family; use afform")
    B, Q = co_af_form(fam)
    _emit(dump_json(_forms_payload(B, Q)), args.out)
    return 0


def _cmd_signature(args) -> int:
    matrix = form_from_json(read_json_file(args.file))
    _emit(dump_json(signature_to_json(signature(matrix))), args.out)
    return 0


def _cmd_lift_verify(args) -> int:
    fam, is_coconvex = _family_from_file(args.file)
    if not is_coconvex:
        raise CoconvexError("lift-verify expects a coconvex family")
    lf = lift(fam)
    base = co_volume_polynomial(fam)
    poly = lifted_volume_polynomial(lf)
    reports = {
        "V": verify_identity_V(lf, base),
        "Q": verify_identity_Q(lf, poly, base),
        "signature": verify_signature_argument(lf, poly, base),
    }
    ok = all(r["status"] == "ok" for r in reports.values())
    _emit(dump_json({"reports": reports, "status": "ok" if ok else "fail"}), args.out)
    return 0 if ok else 1


def _suite_csv(report) -> str:
    lines = ["suite,pass,fail"]
    for name, r in report.results.items():
        lines.append(f"{name},{r['pass']},{r['fail']}")
    return "\n".join(lines) + "\n"


# `suite` flags that override an ExperimentConfig field: (flag, field).
_SUITE_FLAGS = (
    ("dim", "dim"),
    ("n", "n_generators"),
    ("trials", "n_trials"),
    ("seed", "seed"),
    ("bound", "coordinate_bound"),
)


def _cmd_suite(args) -> int:
    if args.config:
        cfg = config_from_json(read_json_file(args.config))
    else:
        cfg = ExperimentConfig()
    overrides = {}
    for flag, field in _SUITE_FLAGS:
        if getattr(args, flag) is not None:
            overrides[field] = getattr(args, flag)
    if args.suite:
        names = [s.strip() for s in args.suite.split(",") if s.strip()]
        overrides["suite"] = tuple(ALL_SUITES) if names == ["all"] else tuple(names)
    cfg = dataclasses.replace(cfg, **overrides)
    report = run_suite(cfg)
    if args.format == "csv":
        _emit(_suite_csv(report), args.out)
    else:
        _emit(dump_json(report.to_json()), args.out)
    return 0 if report.all_passed() else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coconvex",
        description="Exact volumes, quadratic forms, and verified inequalities "
        "for convex and coconvex polytopal bodies.",
    )
    from . import __version__

    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", help="write output to this file instead of stdout")

    p = sub.add_parser("gen", help="generate a seeded random object as JSON")
    p.add_argument(
        "kind",
        choices=["body", "cone", "coconvex-body", "convex-family", "coconvex-family"],
    )
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--n", type=int, default=2, help="number of family generators")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bound", type=int, default=4, help="coordinate bound")
    add_out(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("volume", help="volume of a polytope or coconvex body")
    p.add_argument("file")
    add_out(p)
    p.set_defaults(func=_cmd_volume)

    p = sub.add_parser("mixedvol", help="mixed volume of d polytopes")
    p.add_argument("files", nargs="+")
    add_out(p)
    p.set_defaults(func=_cmd_mixedvol)

    p = sub.add_parser("volpoly", help="volume polynomial of a family")
    p.add_argument("file")
    add_out(p)
    p.set_defaults(func=_cmd_volpoly)

    p = sub.add_parser("afform", help="quadratic forms of a convex family")
    p.add_argument("file")
    add_out(p)
    p.set_defaults(func=_cmd_afform)

    p = sub.add_parser("co-afform", help="quadratic forms of a coconvex family")
    p.add_argument("file")
    add_out(p)
    p.set_defaults(func=_cmd_co_afform)

    p = sub.add_parser("signature", help="inertia of a symmetric rational matrix")
    p.add_argument("file")
    add_out(p)
    p.set_defaults(func=_cmd_signature)

    p = sub.add_parser("lift-verify", help="check the lifting identities of a family")
    p.add_argument("file")
    add_out(p)
    p.set_defaults(func=_cmd_lift_verify)

    p = sub.add_parser("suite", help="run seeded property suites")
    p.add_argument("--config", help="JSON file with an experiment config")
    p.add_argument("--dim", type=int)
    p.add_argument("--n", type=int, help="number of family generators")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--bound", type=int)
    p.add_argument("--suite", help="comma-separated suite names, or 'all'")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    add_out(p)
    p.set_defaults(func=_cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # ValueError covers the library's own errors plus JSON and number
        # parsing; anything here is a bad-input problem, not a crash.
        print(f"coconvex: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, AssertionError) as exc:
        # Neither bad input nor a violated property, so neither 2 nor 1.
        print(f"coconvex: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
