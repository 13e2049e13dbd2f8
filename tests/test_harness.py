import hashlib

import pytest

from coconvex import harness
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
from coconvex.polynomial import Signature
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


def test_corrupt_form_hook_produces_counterexample(monkeypatch):
    real = harness.co_af_form

    def corrupted(fam):
        # negate the first diagonal entry of both forms
        forms = []
        for matrix in real(fam):
            rows = [list(r) for r in matrix]
            rows[0][0] = -rows[0][0]
            forms.append(tuple(tuple(r) for r in rows))
        return tuple(forms)

    monkeypatch.setattr(harness, "co_af_form", corrupted)
    cfg = ExperimentConfig(n_trials=1, seed=7, suite=("co_af",))
    report = run_suite(cfg)
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
    for dim in (2, 3, 4):
        cfg = ExperimentConfig(dim=dim, n_trials=1, seed=21)
        report = run_suite(cfg)
        assert report.all_passed(), report.results


def _digest(obj) -> str:
    return hashlib.sha256(dump_json(obj).encode("utf-8")).hexdigest()


def report_digest(cfg: ExperimentConfig) -> str:
    """sha256 of a run's JSON report without its wall time."""
    out = run_suite(cfg).to_json()
    out.pop("wall_time")
    return _digest(out)


# Whole-report digests over every suite; a change to the suite layer that
# shifts no draw and renames no field leaves them alone.
REPORT_DIGESTS = [
    (2, 1, 2,
        "7226a89a8b9ff93c5781363f4d070ca185a364d3881c1c77d338d3770da4cf2c",
    ),
    (2, 7, 2,
        "3b2002918d91538748930b9631841ee563ac40c222706863efb3c02c4de32efe",
    ),
    (3, 7, 1,
        "633c63b1691a8bd0259d553fb8f7bb3395e4afc39defb2eb5fa1975cd5c337f8",
    ),
    (4, 7, 1,
        "bb7e77ac6f0e41e6e5e52db8bd2354e30466a6f099efef1f64fb03ced2c4b674",
    ),
]


@pytest.mark.parametrize(
    "dim, seed, trials, digest",
    REPORT_DIGESTS,
    ids=[f"d{row[0]}-seed{row[1]}-trials{row[2]}" for row in REPORT_DIGESTS],
)
def test_suite_report_digests_are_pinned(dim, seed, trials, digest):
    assert report_digest(ExperimentConfig(dim=dim, seed=seed, n_trials=trials)) == digest


def _fail_on_call(real, at, spoil):
    """Wrap a checker so that its call number `at` returns spoil(result)."""
    calls = [0]

    def wrapper(*args):
        result = real(*args)
        calls[0] += 1
        return spoil(result) if calls[0] == at else result

    return wrapper


def _refuse(_result):
    return False


def _no_square_positive(sig):
    return Signature(pos=0, neg=sig.pos + sig.neg + sig.zero, zero=0)


def _failed_report(report):
    return {**report, "status": "fail"}


# (suite, dim, checker in harness, failing call, how it fails, digest of
# the counterexample records).  Each checker fails on its last call of the
# trial, so the record pins every draw the trial makes before it.
FORCED_FAILURES = [
    ("af", 2, "reversed_cs_check", 10, _refuse,
        "0e8b2fd4d2f8bb6e17fef5c573691bcac5d5bed2b9f23e21bdfafe8c0f9a13d9",
    ),
    ("af", 2, "signature", 1, _no_square_positive,
        "e8dd7baea8df2f5251d7846ebac2f28cd4618d5e80b49f22324a6ef56c5df7ba",
    ),
    ("co_af", 2, "signature", 1, _no_square_positive,
        "3cddcf0e59013a47293148e3d52276beba9cf36c6deca1dc2924798915f1ea73",
    ),
    ("co_af", 2, "cs_check", 10, _refuse,
        "4d9a23bd22477bf9587fcb488e8b256deef6c640efeb2c879c262064beec1d5a",
    ),
    ("rbm", 2, "reversed_bm_check", 10, _refuse,
        "8bfd1aa68b34ea15602b6353f94bd5f96dd875d8803e12664e5fc1b0d9230c7d",
    ),
    ("grbm", 2, "generalized_rbm_check", 2, _refuse,
        "12ce1fa01fec9cdde1b05ba6ca3298609131fc207cc91e86ca37e5ebf020e2fe",
    ),
    ("grbm", 4, "generalized_rbm_check", 4, _refuse,
        "9e4079afc3c1d24f4ab083981319c53ddb02c31c7e2c8bc5690c2a9013c468e8",
    ),
    ("mink1", 2, "mink1_check", 3, _refuse,
        "f1aa0a4ae9c0bea4564c765505fd7360e685d7e25512bfbba633be80ccdde783",
    ),
    ("mink2", 2, "mink2_check", 3, _refuse,
        "41a1cffd2043198b9f614fda8238bd42b839d5d3af372bd9a48c0992520cede2",
    ),
    ("lift_V", 2, "verify_identity_V", 1, _failed_report,
        "35e996ba1cfa30c90c25fba38ccb88ea5239ab17a5b569129833fcd82f753dc9",
    ),
    ("lift_Q", 2, "verify_identity_Q", 1, _failed_report,
        "33d2d21af7319f51f9c2ed48d974bcb8fb043ba6b805002ed0fa1f19328a7ae6",
    ),
    ("lift_sig", 2, "verify_signature_argument", 1, _failed_report,
        "88a9d03782e1a908431bc8e49070266d462bc21d904f0bb4b12c2757ee8fa22a",
    ),
]


def forced_failure_records(monkeypatch, suite, dim, checker, at, spoil):
    real = getattr(harness, checker)
    monkeypatch.setattr(harness, checker, _fail_on_call(real, at, spoil))
    report = run_suite(ExperimentConfig(dim=dim, n_trials=1, seed=7, suite=(suite,)))
    assert report.results == {suite: {"pass": 0, "fail": 1}}
    return list(report.counterexamples)


@pytest.mark.parametrize(
    "suite, dim, checker, at, spoil, digest",
    FORCED_FAILURES,
    ids=[f"{row[0]}-d{row[1]}-{row[2]}" for row in FORCED_FAILURES],
)
def test_forced_failure_counterexamples_are_pinned(
    monkeypatch, suite, dim, checker, at, spoil, digest
):
    records = forced_failure_records(monkeypatch, suite, dim, checker, at, spoil)
    assert records[0]["suite"] == suite and records[0]["trial"] == 0
    assert _digest(records) == digest
