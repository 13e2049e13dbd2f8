import pytest

from coconvex.cones import co_volume, cone_polyhedron, make_coconvex
from coconvex.errors import CoconvexError
from coconvex.harness import (
    ALL_SUITES,
    ExperimentConfig,
    SplitMix64,
    config_from_json,
    config_to_json,
    gen_coconvex_body,
    gen_coconvex_family,
    gen_cone,
    gen_convex_body,
    gen_convex_family,
    gen_positive_vector,
    gen_rational,
    gen_vector,
    run_suite,
)
from coconvex.jsonio import dump_json
from coconvex.polytope import affine_dimension, contains, volume


def test_splitmix_reference_stream():
    # first outputs of the all-zero seed, as published for this generator
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_splitmix_bounded_draws():
    rng = SplitMix64(42)
    draws = [rng.int_between(3, 7) for _ in range(200)]
    assert set(draws) <= set(range(3, 8))
    assert len(set(draws)) == 5  # every value shows up over 200 draws
    with pytest.raises(CoconvexError):
        rng.below(0)


def test_derive_is_stateless_and_labelled():
    root = SplitMix64(99)
    a = root.derive("suite:0").next_u64()
    root.next_u64()
    assert root.derive("suite:0").next_u64() == a
    assert root.derive("suite:1").next_u64() != a
    assert SplitMix64(99).derive("suite:0").next_u64() == a


def test_gen_rational_stays_in_bounds():
    rng = SplitMix64(5)
    for _ in range(100):
        x = gen_rational(rng, 4)
        assert -4 <= x <= 4


def test_gen_vector_postconditions():
    rng = SplitMix64(5)
    for _ in range(50):
        v = gen_vector(rng, 3)
        assert any(v) and all(-3 <= x <= 3 for x in v)
        p = gen_positive_vector(rng, 3)
        assert all(1 <= x <= 3 for x in p)


def test_gen_convex_body_is_full_dimensional():
    rng = SplitMix64(1)
    for d in (2, 3):
        for _ in range(5):
            K = gen_convex_body(rng, d, 4)
            assert K.is_bounded and affine_dimension(K) == d
            assert volume(K) > 0


def test_gen_convex_body_is_reproducible():
    a = gen_convex_body(SplitMix64(1), 2, 4)
    b = gen_convex_body(SplitMix64(1), 2, 4)
    assert a == b


def test_gen_cone_postconditions():
    rng = SplitMix64(2)
    for d in (2, 3):
        for _ in range(5):
            cone = gen_cone(rng, d, 4)
            assert cone.dim == d
            assert all(sum(x * r for x, r in zip(cone.xi, ray)) > 0 for ray in cone.rays)


def test_gen_coconvex_body_revalidates():
    rng = SplitMix64(3)
    cone = gen_cone(rng, 2, 4)
    body = gen_coconvex_body(rng, cone, 4)
    # validity is exactly make_coconvex acceptance
    assert make_coconvex(body.cone, body.complement) == body
    assert co_volume(body) > 0
    assert contains(cone_polyhedron(cone), body.complement)


def test_gen_families():
    rng = SplitMix64(4)
    fam = gen_convex_family(rng, 3, 2, 3)
    assert fam.dim == 3 and len(fam.generators) == 2
    assert len(fam.marked) == 1 and all(x > 0 for x in fam.marked[0])
    cfam = gen_coconvex_family(rng, 2, 3, 3)
    assert len(cfam.generators) == 3
    assert all(g.cone == cfam.cone for g in cfam.generators)


def test_config_validation():
    cfg = ExperimentConfig()
    assert cfg.suite == ALL_SUITES
    with pytest.raises(CoconvexError):
        ExperimentConfig(dim=5)
    with pytest.raises(CoconvexError):
        ExperimentConfig(n_generators=0)
    with pytest.raises(CoconvexError):
        ExperimentConfig(n_trials=0)
    with pytest.raises(CoconvexError):
        ExperimentConfig(seed=-1)
    with pytest.raises(CoconvexError):
        ExperimentConfig(coordinate_bound=0)
    with pytest.raises(CoconvexError):
        ExperimentConfig(suite=("bogus",))
    with pytest.raises(CoconvexError):
        ExperimentConfig(suite=())


def test_config_suite_is_canonicalized():
    cfg = ExperimentConfig(suite=("af", "kernel", "af"))
    assert cfg.suite == ("kernel", "af")


def test_config_json_round_trip():
    cfg = ExperimentConfig(dim=3, n_generators=3, n_trials=2, seed=11, suite=("rbm", "kernel"))
    assert config_from_json(config_to_json(cfg)) == cfg
    assert config_from_json({}) == ExperimentConfig()


@pytest.mark.parametrize(
    "obj",
    [
        {"dim": 2.9},
        {"n_trials": True},
        {"seed": "5"},
        {"coordinate_bound": None},
        {"suite": "af"},
        {"suite": ["af", 3]},
        {"suite": {"af": 1}},
        ["dim", 2],
    ],
    ids=[
        "float",
        "bool",
        "string_int",
        "null",
        "string_suite",
        "non_string_name",
        "object_suite",
        "not_object",
    ],
)
def test_config_from_json_rejects_coercible_values(obj):
    # rejected for its type, not later for an odd value it was coerced to
    with pytest.raises(CoconvexError, match="must be"):
        config_from_json(obj)


def test_config_from_json_rejects_unknown_keys():
    # misspelled fields used to be dropped, running the defaults instead
    with pytest.raises(CoconvexError, match="unknown config field.*'dims'.*'n_trial'"):
        config_from_json({"dims": 3, "n_trial": 1, "suite": ["kernel"]})


def test_run_suite_shape_and_determinism():
    cfg = ExperimentConfig(n_trials=2, seed=7, suite=("kernel", "af", "co_af"))
    rep1 = run_suite(cfg)
    rep2 = run_suite(cfg)
    assert rep1.version
    assert list(rep1.results) == ["kernel", "af", "co_af"]
    assert all(r["pass"] == 2 and r["fail"] == 0 for r in rep1.results.values())
    assert rep1.all_passed()
    a, b = rep1.to_json(), rep2.to_json()
    a.pop("wall_time"), b.pop("wall_time")
    assert dump_json(a) == dump_json(b)


def test_suite_selection_does_not_shift_streams():
    # the af suite must see identical instances whether or not others run
    alone = run_suite(ExperimentConfig(n_trials=2, seed=13, suite=("af",)))
    together = run_suite(ExperimentConfig(n_trials=2, seed=13))
    assert alone.results["af"] == together.results["af"]


def test_corrupt_form_hook_produces_counterexample():
    cfg = ExperimentConfig(n_trials=1, seed=7, suite=("co_af",))
    report = run_suite(cfg, corrupt_form=True)
    assert report.results["co_af"]["fail"] == 1
    assert not report.all_passed()
    (ce,) = report.counterexamples
    assert ce["suite"] == "co_af"
    assert ce["check"] in ("nonnegative_form", "coconvex_cauchy_schwartz")
    # enough data to replay: the family, the form, and the failing signature
    assert "family" in ce and "form" in ce
    # and it must be valid JSON all the way down
    dump_json(ce)


def test_every_suite_passes_once_per_dimension():
    for dim in (2, 3):
        cfg = ExperimentConfig(dim=dim, n_trials=1, seed=21)
        report = run_suite(cfg)
        assert report.all_passed(), report.results
