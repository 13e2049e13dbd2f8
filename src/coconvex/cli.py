"""Command-line front end.

Exit codes: 0 on success, 1 when a verification command finds a violated
property, 2 for bad input or usage, 3 for an internal error (an
ArithmeticError or AssertionError: an exact computation that could not
finish, or a broken internal invariant).  All structured output goes through
the same deterministic JSON writer the library uses, so identical
invocations produce identical bytes.

`COMMANDS` is the one table of subcommands: it builds the parser, and
`main` dispatches to the row's handler and writes what it returns.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .cones import co_volume
from .errors import CoconvexError
from .forms import (
    CoconvexFamily,
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
    form_to_json,
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
    quadratic_blocks,
    verify_identity_Q,
    verify_identity_V,
    verify_signature_argument,
)
from .polynomial import signature
from .polytope import volume

# Handlers here and in COMMANDS name library functions inside their bodies,
# so the functions are looked up at call time and a test or tracer that
# rebinds a module attribute reaches them.  Each handler takes the parsed
# arguments and returns (output, exit code); output is text, or a JSON
# value that `main` renders with `dump_json`.


def _family(obj, coconvex=None, wrong_kind=""):
    """The family in `obj`, coconvex when it names a cone.  With `coconvex`
    set, an object of the other kind raises `wrong_kind` before loading."""
    if coconvex is not None and ("cone" in obj) != coconvex:
        raise CoconvexError(wrong_kind)
    return coconvex_family_from_json(obj) if "cone" in obj else convex_family_from_json(obj)


# `gen` kinds, in the order `--help` lists them.
_GEN = {
    "body": lambda rng, a: polyhedron_to_json(gen_convex_body(rng, a.dim, a.bound)),
    "cone": lambda rng, a: cone_to_json(gen_cone(rng, a.dim, a.bound)),
    "coconvex-body": lambda rng, a: coconvex_to_json(
        gen_coconvex_body(rng, gen_cone(rng, a.dim, a.bound), a.bound)
    ),
    "convex-family": lambda rng, a: convex_family_to_json(
        gen_convex_family(rng, a.dim, a.n, a.bound)
    ),
    "coconvex-family": lambda rng, a: coconvex_family_to_json(
        gen_coconvex_family(rng, a.dim, a.n, a.bound)
    ),
}


def _gen(args):
    rng = SplitMix64(args.seed).derive(f"gen:{args.kind}")
    return _GEN[args.kind](rng, args), 0


def _volume(args):
    obj = read_json_file(args.file)
    val = co_volume(coconvex_from_json(obj)) if "cone" in obj else volume(polyhedron_from_json(obj))
    return {"volume": rational_to_json(val)}, 0


def _volpoly(args):
    fam = _family(read_json_file(args.file))
    poly = co_volume_polynomial(fam) if isinstance(fam, CoconvexFamily) else volume_polynomial(fam)
    return polynomial_to_json(poly), 0


def _forms(args):
    """`afform` and `co-afform`: the bilinear and quadratic forms of a family."""
    if args.command == "afform":
        B, Q = af_form(_family(read_json_file(args.file), False,
                               "afform expects a convex family; use co-afform"))
    else:
        B, Q = co_af_form(_family(read_json_file(args.file), True,
                                  "co-afform expects a coconvex family; use afform"))
    payload = {"bilinear": form_to_json(B), "quadratic": form_to_json(Q),
               "signature": signature_to_json(signature(Q))}
    return payload, 0


def _lift_verify(args):
    fam = _family(read_json_file(args.file), True, "lift-verify expects a coconvex family")
    lf = lift(fam)
    base = co_volume_polynomial(fam)
    q_lift, q_base = quadratic_blocks(lf, lifted_volume_polynomial(lf), base)
    reports = {
        "V": verify_identity_V(lf, base),
        "Q": verify_identity_Q(lf, q_lift, q_base),
        "signature": verify_signature_argument(lf, q_lift, q_base),
    }
    ok = all(r["status"] == "ok" for r in reports.values())
    return {"reports": reports, "status": "ok" if ok else "fail"}, 0 if ok else 1


# `suite` flags that override an ExperimentConfig field: (flag, field).
_SUITE_FLAGS = (
    ("dim", "dim"),
    ("n", "n_generators"),
    ("trials", "n_trials"),
    ("seed", "seed"),
    ("bound", "coordinate_bound"),
)


def _suite(args):
    cfg = config_from_json(read_json_file(args.config)) if args.config else ExperimentConfig()
    overrides = {
        field: getattr(args, flag)
        for flag, field in _SUITE_FLAGS
        if getattr(args, flag) is not None
    }
    if args.suite:
        names = [s.strip() for s in args.suite.split(",") if s.strip()]
        overrides["suite"] = tuple(ALL_SUITES) if names == ["all"] else tuple(names)
    report = run_suite(dataclasses.replace(cfg, **overrides))
    if args.format == "csv":
        output = "suite,pass,fail\n" + "".join(
            f"{name},{r['pass']},{r['fail']}\n" for name, r in report.results.items()
        )
    else:
        output = report.to_json()
    return output, 0 if report.all_passed() else 1


_FILE = (("file", {}),)

# (name, help, arguments as (flag, add_argument options), handler), in
# `--help` order.  Every subcommand also takes `--out`, after its arguments.
COMMANDS = (
    ("gen", "generate a seeded random object as JSON", (
        ("kind", {"choices": list(_GEN)}),
        ("--dim", {"type": int, "default": 2}),
        ("--n", {"type": int, "default": 2, "help": "number of family generators"}),
        ("--seed", {"type": int, "default": 0}),
        ("--bound", {"type": int, "default": 4, "help": "coordinate bound"}),
    ), _gen),
    ("volume", "volume of a polytope or coconvex body", _FILE, _volume),
    ("mixedvol", "mixed volume of d polytopes", (("files", {"nargs": "+"}),),
     lambda a: ({"mixed_volume": rational_to_json(mixed_volume(
         [polyhedron_from_json(read_json_file(p)) for p in a.files]))}, 0)),
    ("volpoly", "volume polynomial of a family", _FILE, _volpoly),
    ("afform", "quadratic forms of a convex family", _FILE, _forms),
    ("co-afform", "quadratic forms of a coconvex family", _FILE, _forms),
    ("signature", "inertia of a symmetric rational matrix", _FILE,
     lambda a: (signature_to_json(signature(form_from_json(read_json_file(a.file)))), 0)),
    ("lift-verify", "check the lifting identities of a family", _FILE, _lift_verify),
    ("suite", "run seeded property suites", (
        ("--config", {"help": "JSON file with an experiment config"}),
        ("--dim", {"type": int}),
        ("--n", {"type": int, "help": "number of family generators"}),
        ("--trials", {"type": int}),
        ("--seed", {"type": int}),
        ("--bound", {"type": int}),
        ("--suite", {"help": "comma-separated suite names, or 'all'"}),
        ("--format", {"choices": ["json", "csv"], "default": "json"}),
    ), _suite),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coconvex",
        description="Exact volumes, quadratic forms, and verified inequalities "
        "for convex and coconvex polytopal bodies.",
    )
    from . import __version__

    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, arguments, handler in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.add_argument("--out", help="write output to this file instead of stdout")
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        output, code = args.handler(args)
        text = output if isinstance(output, str) else dump_json(output)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return code
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
