"""Seeded generators and the property-suite runner.

Every draw comes from `rational.SplitMix64`, a random stream pinned down by
algorithm, not by library, with named substreams per label.  Identical
configs therefore produce identical reports on any platform, byte for
byte, apart from the wall-time field.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .cones import Cone, CoconvexBody, cone_polyhedron, make_cone, make_coconvex
from .errors import CoconvexError, NotFullDimensional, NotStrictlyConvex
from .forms import (
    CoconvexFamily,
    ConvexFamily,
    af_form,
    co_af_form,
    co_volume_polynomial,
    cs_check,
    generalized_rbm_check,
    make_coconvex_family,
    make_convex_family,
    mink1_check,
    mink2_check,
    reversed_bm_check,
    reversed_cs_check,
    volume_polynomial,
    volume_polynomial_interpolated,
)
from .jsonio import (
    _known_fields,
    coconvex_family_to_json,
    convex_family_to_json,
    form_to_json,
    polyhedron_to_json,
    rational_to_json,
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
from .polytope import (
    Halfspace,
    Polyhedron,
    affine_dimension,
    clip,
    contains,
    convex_hull,
    dd_convert,
    dd_convert_back,
    minkowski_sum,
    translate,
    volume,
)
from .rational import _MASK, Rat, SplitMix64, compare_root_sum


def gen_rational(rng: SplitMix64, bound: int):
    return Rat(rng.int_between(-bound, bound), rng.int_between(1, bound))


def gen_point(rng: SplitMix64, d: int, bound: int):
    return tuple(gen_rational(rng, bound) for _ in range(d))


def gen_vector(rng: SplitMix64, n: int, bound: int = 3):
    """Integer vector, not all zero, entries in [-bound, bound]."""
    while True:
        v = tuple(rng.int_between(-bound, bound) for _ in range(n))
        if any(v):
            return v


def gen_positive_vector(rng: SplitMix64, n: int, bound: int = 3):
    return tuple(rng.int_between(1, bound) for _ in range(n))


_RESAMPLE_BUDGET = 1000


def gen_convex_body(rng: SplitMix64, d: int, bound: int) -> Polyhedron:
    """Full-dimensional polytope: hull of d+1+extra random rational points."""
    for _ in range(_RESAMPLE_BUDGET):
        extra = rng.int_between(1, 3)
        pts = [gen_point(rng, d, bound) for _ in range(d + 1 + extra)]
        P = convex_hull(pts)
        if affine_dimension(P) == d:
            return P
    raise CoconvexError("resample budget exhausted while generating a body")


def gen_cone(rng: SplitMix64, d: int, bound: int) -> Cone:
    """Cone from nonnegative integer rays; the orthant makes it strictly
    convex automatically, resampling covers the full-dimension requirement."""
    for _ in range(_RESAMPLE_BUDGET):
        nrays = rng.int_between(d, d + 2)
        rays = []
        for _ in range(nrays):
            r = tuple(rng.int_between(0, bound) for _ in range(d))
            if any(r):
                rays.append(r)
        if not rays:
            continue
        try:
            return make_cone(rays)
        except (NotStrictlyConvex, NotFullDimensional):
            continue
    raise CoconvexError("resample budget exhausted while generating a cone")


def gen_coconvex_body(rng: SplitMix64, cone: Cone, bound: int) -> CoconvexBody:
    """Complement built by cutting the cone with deep supporting halfspaces.

    Each cut functional is a positive combination of the dual cone's extreme
    rays, so it is strictly positive on the cone; cutting at a positive
    level leaves the recession cone intact and the carved region bounded.
    """
    for _ in range(_RESAMPLE_BUDGET):
        K = cone_polyhedron(cone)
        for _ in range(rng.int_between(1, 3)):
            xi = [0] * cone.dim
            for ray in cone.duals:
                w = rng.int_between(1, bound)
                for j in range(cone.dim):
                    xi[j] += w * ray[j]
            level = rng.int_between(1, bound)
            K = clip(K, Halfspace.make(tuple(-x for x in xi), -level))
        try:
            return make_coconvex(cone, K)
        except CoconvexError:
            continue
    raise CoconvexError("resample budget exhausted while generating a coconvex body")


def gen_convex_family(rng: SplitMix64, d: int, n: int, bound: int) -> ConvexFamily:
    gens = [gen_convex_body(rng, d, bound) for _ in range(n)]
    marked = [gen_positive_vector(rng, n) for _ in range(d - 2)]
    return make_convex_family(gens, marked)


def gen_coconvex_family(rng: SplitMix64, d: int, n: int, bound: int) -> CoconvexFamily:
    cone = gen_cone(rng, d, bound)
    gens = [gen_coconvex_body(rng, cone, bound) for _ in range(n)]
    marked = [gen_positive_vector(rng, n) for _ in range(d - 2)]
    return make_coconvex_family(gens, marked)


def _as_json(value):
    """A drawn case value as JSON: vectors become lists, rationals strings."""
    if isinstance(value, (tuple, list)):
        return [_as_json(x) for x in value]
    return rational_to_json(value) if isinstance(value, Rat) else value


def _counterexample(check, **fields):
    return {"check": check, **{key: _as_json(value) for key, value in fields.items()}}


def _vectors(rng, n, kinds):
    """One draw per letter of kinds: "p" a positive vector, "v" any nonzero one."""
    return tuple(gen_positive_vector(rng, n) if k == "p" else gen_vector(rng, n) for k in kinds)


def _repeat(times, kinds):
    """Case generator: `times` fresh draws of the vectors named by kinds."""

    def cases(rng, cfg):
        for _ in range(times):
            yield _vectors(rng, cfg.n_generators, kinds)

    return cases


_RBM_STEPS = (Rat(0), Rat(1, 4), Rat(1, 2), Rat(3, 4), Rat(1))


def _rbm_cases(rng, cfg):
    for u, v in _repeat(2, "pp")(rng, cfg):
        for t in _RBM_STEPS:
            yield u, v, t


def _grbm_cases(rng, cfg):
    # derivative orders 1 and d - 2: one order below d = 4, two from there
    for k in sorted({1, cfg.dim - 2} & set(range(1, cfg.dim))):
        for vectors in _repeat(2, "p" * (k + 2))(rng, cfg):
            yield vectors[:k], vectors[k], vectors[k + 1]


def _trial_kernel(rng, cfg):
    d, bound = cfg.dim, cfg.coordinate_bound
    K1 = gen_convex_body(rng, d, bound)
    K2 = gen_convex_body(rng, d, bound)
    fam = make_convex_family([K1, K2])
    if volume_polynomial(fam) != volume_polynomial_interpolated(fam):
        bodies = [polyhedron_to_json(K1), polyhedron_to_json(K2)]
        return _counterexample("cayley_vs_interpolation", bodies=bodies)
    shift = gen_point(rng, d, bound)
    v1 = volume(K1)
    if volume(translate(K1, shift)) != v1:
        return _counterexample("translation_invariance", body=polyhedron_to_json(K1))
    lam = Rat(rng.int_between(1, 3), rng.int_between(1, 3))
    if volume(K1.scale(lam)) != lam**d * v1:
        return _counterexample("scale_homogeneity", body=polyhedron_to_json(K1))
    K12 = minkowski_sum(K1, K2)
    if K12 != minkowski_sum(K2, K1):
        return _counterexample("minkowski_commutativity")
    v2, v12 = volume(K2), volume(K12)
    if compare_root_sum([(Rat(1), v12), (Rat(-1), v1), (Rat(-1), v2)], d) < 0:
        bodies = [polyhedron_to_json(K1), polyhedron_to_json(K2)]
        return _counterexample("brunn_minkowski", bodies=bodies)
    if dd_convert_back(dd_convert(K1), d) != K1:
        return _counterexample("facet_roundtrip", body=polyhedron_to_json(K1))
    ones = (1,) * d
    values = [sum(v) for v in K1.vertices]
    cut = Halfspace.make(ones, (min(values) + max(values)) / 2)
    piece = clip(K1, cut)
    if not contains(K1, piece) or any(not cut.holds(v) for v in piece.vertices):
        return _counterexample("clip_containment", body=polyhedron_to_json(K1))
    return None


def _trial_af(rng, cfg):
    fam = gen_convex_family(rng, cfg.dim, cfg.n_generators, cfg.coordinate_bound)
    B, Q = af_form(fam)
    for u1, u2 in _repeat(10, "vp")(rng, cfg):
        if not reversed_cs_check(B, u1, u2):
            return _counterexample(
                "classical_af",
                family=convex_family_to_json(fam),
                form=form_to_json(B),
                u1=u1,
                u2=u2,
            )
    sig = signature(Q)
    if sig.pos != 1:
        return _counterexample(
            "one_positive_square", family=convex_family_to_json(fam), signature=sig.astuple()
        )
    return None


def _trial_co_af(rng, cfg):
    fam = gen_coconvex_family(rng, cfg.dim, cfg.n_generators, cfg.coordinate_bound)
    B, Q = co_af_form(fam)
    sig = signature(Q)
    if sig.neg != 0:
        return _counterexample(
            "nonnegative_form",
            family=coconvex_family_to_json(fam),
            form=form_to_json(Q),
            signature=sig.astuple(),
        )
    for u1, u2 in _repeat(10, "vv")(rng, cfg):
        if not cs_check(B, u1, u2):
            return _counterexample(
                "coconvex_cauchy_schwartz",
                family=coconvex_family_to_json(fam),
                form=form_to_json(B),
                u1=u1,
                u2=u2,
            )
    return None


def _polynomial_trial(check, cases, holds, fields):
    """Suite that tests holds(P, case) on the co-volume polynomial P of a
    random coconvex family, for each case drawn after the family."""

    def run(rng, cfg):
        fam = gen_coconvex_family(rng, cfg.dim, cfg.n_generators, cfg.coordinate_bound)
        P = co_volume_polynomial(fam)
        for case in cases(rng, cfg):
            if not holds(P, case):
                family = coconvex_family_to_json(fam)
                return _counterexample(check, family=family, **dict(zip(fields, case)))
        return None

    return run


def _lift_trial(which, verify):
    """Suite that runs one lift verifier, verify(lift, base polynomial)."""

    def run(rng, cfg):
        fam = gen_coconvex_family(rng, cfg.dim, cfg.n_generators, cfg.coordinate_bound)
        lf = lift(fam)
        report = verify(lf, co_volume_polynomial(fam))
        if report["status"] != "ok":
            family = coconvex_family_to_json(fam)
            return _counterexample(f"lift_identity_{which}", family=family, report=report)
        return None

    return run


def _blocks(lf, P):
    return quadratic_blocks(lf, lifted_volume_polynomial(lf), P)


# Every suite, in report order.  A trial takes its own substream and the
# config and returns None when every check holds, else a counterexample.
# Checkers are named inside lambdas, so they are looked up when a trial
# runs and a wrapper or test double bound to the module name takes effect.
SUITES = {
    "kernel": _trial_kernel,
    "af": _trial_af,
    "co_af": _trial_co_af,
    "rbm": _polynomial_trial(
        "reversed_brunn_minkowski",
        _rbm_cases,
        lambda P, case: reversed_bm_check(P, *case),
        ("u", "v", "t"),
    ),
    "grbm": _polynomial_trial(
        "generalized_reversed_bm",
        _grbm_cases,
        lambda P, case: generalized_rbm_check(P, *case),
        ("directions", "u", "v"),
    ),
    "mink1": _polynomial_trial(
        "first_reversed_minkowski",
        _repeat(3, "pp"),
        lambda P, case: mink1_check(P, *case),
        ("u", "v"),
    ),
    "mink2": _polynomial_trial(
        "second_reversed_minkowski",
        _repeat(3, "pv"),
        lambda P, case: mink2_check(P, *case),
        ("u", "v"),
    ),
    "lift_V": _lift_trial("V", lambda lf, P: verify_identity_V(lf, P)),
    "lift_Q": _lift_trial("Q", lambda lf, P: verify_identity_Q(lf, *_blocks(lf, P))),
    "lift_sig": _lift_trial("sig", lambda lf, P: verify_signature_argument(lf, *_blocks(lf, P))),
}

ALL_SUITES = tuple(SUITES)


@dataclass(frozen=True)
class ExperimentConfig:
    dim: int = 2
    n_generators: int = 2
    n_trials: int = 10
    seed: int = 0
    coordinate_bound: int = 4
    suite: tuple = ALL_SUITES

    def __post_init__(self):
        if self.dim not in (2, 3, 4):
            raise CoconvexError("dimension must be 2, 3, or 4")
        if not 1 <= self.n_generators <= 4:
            raise CoconvexError("generator count must be between 1 and 4")
        if self.n_trials < 1:
            raise CoconvexError("need at least one trial")
        if not 0 <= self.seed <= _MASK:
            raise CoconvexError("seed must fit in 64 unsigned bits")
        if self.coordinate_bound < 1:
            raise CoconvexError("coordinate bound must be positive")
        wanted = set(self.suite)
        unknown = wanted - set(ALL_SUITES)
        if unknown:
            raise CoconvexError(f"unknown suite names: {sorted(unknown)}")
        if not wanted:
            raise CoconvexError("select at least one suite")
        object.__setattr__(
            self, "suite", tuple(s for s in ALL_SUITES if s in wanted)
        )


def config_to_json(cfg: ExperimentConfig) -> dict:
    return {
        "dim": cfg.dim,
        "n_generators": cfg.n_generators,
        "n_trials": cfg.n_trials,
        "seed": cfg.seed,
        "coordinate_bound": cfg.coordinate_bound,
        "suite": list(cfg.suite),
    }


def config_from_json(obj: dict) -> ExperimentConfig:
    """Config from its JSON form; values are type-checked, never coerced,
    and unknown fields are rejected."""
    if not isinstance(obj, dict):
        raise CoconvexError("experiment config must be a JSON object")
    int_fields = ("dim", "n_generators", "n_trials", "seed", "coordinate_bound")
    _known_fields(obj, int_fields + ("suite",), "config")
    kwargs = {}
    for key in int_fields:
        if key in obj:
            value = obj[key]
            if isinstance(value, bool) or not isinstance(value, int):
                raise CoconvexError(f"config field {key!r} must be an integer")
            kwargs[key] = value
    if "suite" in obj:
        names = obj["suite"]
        if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
            raise CoconvexError("config field 'suite' must be a list of suite names")
        kwargs["suite"] = tuple(names)
    return ExperimentConfig(**kwargs)


@dataclass(frozen=True)
class TrialReport:
    config: ExperimentConfig
    results: dict
    counterexamples: tuple
    wall_time: float
    version: str

    def all_passed(self) -> bool:
        return all(r["fail"] == 0 for r in self.results.values())

    def to_json(self) -> dict:
        return {
            "config": config_to_json(self.config),
            "version": self.version,
            "results": self.results,
            "counterexamples": list(self.counterexamples),
            "wall_time": self.wall_time,
        }


def run_suite(cfg: ExperimentConfig) -> TrialReport:
    """Run the selected suites over seeded trials.

    Every trial draws from a substream derived from the root seed, the
    suite name, and the trial index, so adding or removing suites never
    shifts another suite's instances.
    """
    from . import __version__

    start = time.monotonic()
    root = SplitMix64(cfg.seed)
    results = {}
    counterexamples = []
    for name in cfg.suite:
        trial = SUITES[name]
        passed = failed = 0
        for index in range(cfg.n_trials):
            rng = root.derive(f"{name}:{index}")
            ce = trial(rng, cfg)
            if ce is None:
                passed += 1
            else:
                failed += 1
                counterexamples.append({"suite": name, "trial": index, **ce})
        results[name] = {"pass": passed, "fail": failed}
    return TrialReport(
        config=cfg,
        results=results,
        counterexamples=tuple(counterexamples),
        wall_time=round(time.monotonic() - start, 6),
        version=__version__,
    )
