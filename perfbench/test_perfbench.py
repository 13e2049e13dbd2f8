"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import run_request  # noqa: E402


@pytest.fixture
def workdir(request):
    path = run.OUT / f"test-{request.node.name}"
    shutil.rmtree(path, ignore_errors=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs_and_digests(name, workdir):
    first = run.serve(name, 5, workdir / "a", indices=[0, 1])
    second = run.serve(name, 5, workdir / "b", indices=[0, 1])
    assert first["input_digest"] == second["input_digest"]
    assert [r[3] for r in first["records"]] == [r[3] for r in second["records"]]
    assert all(r[2] for r in first["records"] + second["records"])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_different_seed_different_inputs(name):
    assert workloads.make_input(name, 5, 0) != workloads.make_input(name, 6, 0)
    assert workloads.make_input(name, 5, 0) != workloads.make_input(name, 5, 1)


def test_malformed_input_is_one_failed_request(workdir):
    # A convex family sent to lift-verify: bad input, exit code 2.
    workdir.mkdir(parents=True)
    (workdir / "in-00001.json").write_text(workloads.make_input("convex_af", 5, 0))
    result = run.serve("coconvex_lift", 5, workdir, indices=[0, 1, 2])
    assert [r[0] for r in result["records"]] == [0, 1, 2]
    assert [r[2] for r in result["records"]] == [True, False, True]


def test_internal_error_is_a_failed_request(monkeypatch):
    from coconvex import cli

    def broken(argv):
        raise ArithmeticError("precision cap")

    monkeypatch.setattr(cli, "main", broken)
    rc, out = run_request(cli, "convex_af", ["afform", "x.json"])
    assert rc != 0 and out == ""


def _bindings():
    return {(name, attr): id(value)
            for name, module in list(sys.modules.items())
            if module is not None and (name == "coconvex" or name.startswith("coconvex."))
            for attr, value in vars(module).items()}


def test_no_patched_attribute_survives_tracing():
    import coconvex
    from coconvex import cli, polytope  # noqa: F401  (install imports every target module)
    from coconvex.cones import make_cone

    before = _bindings()
    original_volume = polytope.volume
    t = tracer.Tracer().install()
    try:
        assert coconvex.volume is not original_volume
        assert polytope.volume is coconvex.volume
        assert coconvex.polytope.cone_extreme_rays.__wrapped__ is not None
        assert coconvex.rational.compare_root_sum.__wrapped__ is not None
        cone = make_cone([(1, 0), (1, 1)])
        coconvex.volume(coconvex.clip(coconvex.cone_polyhedron(cone),
                                      coconvex.Halfspace.make((1, 0), 1)))
    finally:
        assert t.uninstall()
    assert _bindings() == before
    stats = t.report()["stats"]
    assert stats["polytope.volume"][0] == 1
    assert stats["dd.cone_extreme_rays"][0] > 0
    calls, total, self_s = stats["polytope.clip"]
    assert calls == 1 and 0 <= self_s <= total
    assert t.counters["dd.cone_extreme_rays.rows_in"] > 0
    assert all(span is not None for span in t.spans)


def test_tail_latency_keeps_ten_slower_requests():
    assert run.tail_latency(range(200), 90) == (90, 179)
    # 60 requests cannot support p90; the highest rung with ten slower is p80.
    assert run.tail_latency(range(60), 90) == (80, 47)


def test_untraced_run_prints_result_line(capsys):
    assert run.main(["--workload", "convex_af", "--seed", "5", "--seconds", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
