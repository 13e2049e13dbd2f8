import json
import subprocess
import sys

import pytest

from coconvex import cli
from coconvex.cli import main
from coconvex.jsonio import dump_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "coconvex" in capsys.readouterr().out


def test_gen_and_volume_pipeline(tmp_path, capsys):
    body = tmp_path / "body.json"
    code, out, _ = run_cli(capsys, "gen", "body", "--dim", "2", "--seed", "3", "--out", str(body))
    assert code == 0 and out == ""
    code, out, _ = run_cli(capsys, "volume", str(body))
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"volume"}


def test_gen_is_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "gen", "coconvex-body", "--seed", "9")
    code2, out2, _ = run_cli(capsys, "gen", "coconvex-body", "--seed", "9")
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1 != run_cli(capsys, "gen", "coconvex-body", "--seed", "10")[1]


def test_mixedvol(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(capsys, "gen", "body", "--seed", "1", "--out", str(a))
    run_cli(capsys, "gen", "body", "--seed", "2", "--out", str(b))
    code, out, _ = run_cli(capsys, "mixedvol", str(a), str(b))
    assert code == 0
    assert "mixed_volume" in json.loads(out)


def test_volpoly_afform_signature(tmp_path, capsys):
    fam = tmp_path / "fam.json"
    run_cli(capsys, "gen", "convex-family", "--seed", "5", "--out", str(fam))
    code, out, _ = run_cli(capsys, "volpoly", str(fam))
    assert code == 0
    poly = json.loads(out)
    assert poly["degree"] == 2 and poly["nvars"] == 2
    code, out, _ = run_cli(capsys, "afform", str(fam))
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"bilinear", "quadratic", "signature"}
    form = tmp_path / "form.json"
    form.write_text(dump_json(payload["quadratic"]), encoding="utf-8")
    code, out, _ = run_cli(capsys, "signature", str(form))
    assert code == 0
    assert json.loads(out) == payload["signature"]


def test_co_afform_and_lift_verify(tmp_path, capsys):
    fam = tmp_path / "cfam.json"
    run_cli(capsys, "gen", "coconvex-family", "--seed", "6", "--out", str(fam))
    code, out, _ = run_cli(capsys, "co-afform", str(fam))
    assert code == 0
    assert json.loads(out)["signature"]["neg"] == 0
    code, out, _ = run_cli(capsys, "lift-verify", str(fam))
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "ok"
    assert set(payload["reports"]) == {"V", "Q", "signature"}


def test_afform_rejects_wrong_family_kind(tmp_path, capsys):
    fam = tmp_path / "cfam.json"
    run_cli(capsys, "gen", "coconvex-family", "--seed", "6", "--out", str(fam))
    code, _, err = run_cli(capsys, "afform", str(fam))
    assert code == 2
    assert "co-afform" in err


def test_suite_json_and_csv(capsys):
    code, out, _ = run_cli(
        capsys, "suite", "--trials", "1", "--seed", "7", "--suite", "kernel,af"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["results"] == {
        "kernel": {"pass": 1, "fail": 0},
        "af": {"pass": 1, "fail": 0},
    }
    assert payload["config"]["seed"] == 7
    code, out, _ = run_cli(
        capsys, "suite", "--trials", "1", "--seed", "7", "--suite", "kernel", "--format", "csv"
    )
    assert code == 0
    assert out == "suite,pass,fail\nkernel,1,0\n"


def test_suite_config_file_with_overrides(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"dim": 3, "n_trials": 1, "suite": ["mink1"]}')
    code, out, _ = run_cli(capsys, "suite", "--config", str(cfg), "--seed", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["dim"] == 3
    assert payload["config"]["seed"] == 4
    assert list(payload["results"]) == ["mink1"]


def test_suite_all_keyword(capsys):
    code, out, _ = run_cli(capsys, "suite", "--trials", "1", "--seed", "2", "--suite", "all")
    assert code == 0
    assert len(json.loads(out)["results"]) == 10


def test_suite_caches_stay_bounded(capsys):
    # A long suite run fills the volume cache, the library's one cache, up
    # to its bound and no further.
    from coconvex import polytope

    code, _, _ = run_cli(capsys, "suite", "--suite", "all", "--dim", "2", "--trials", "5")
    assert code == 0
    info = polytope.volume.cache_info()
    assert info.maxsize == polytope.CACHE_MAXSIZE
    assert info.currsize == polytope.CACHE_MAXSIZE


def test_error_exit_codes(tmp_path, capsys):
    code, _, err = run_cli(capsys, "volume", str(tmp_path / "missing.json"))
    assert code == 2 and "coconvex:" in err
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    code, _, err = run_cli(capsys, "volume", str(bad))
    assert code == 2
    wrong = tmp_path / "wrong.json"
    wrong.write_text('{"dim": 2, "vertices": [], "rays": [[1, 0]]}')
    code, _, err = run_cli(capsys, "volume", str(wrong))
    assert code == 2
    code, _, err = run_cli(capsys, "suite", "--dim", "7")
    assert code == 2
    # config values are never coerced: float, bool, string number, bare string
    cfg = tmp_path / "cfg.json"
    for text in ('{"dim": 2.9, "n_trials": true, "seed": "5"}', '{"suite": "af"}'):
        cfg.write_text(text)
        code, out, err = run_cli(capsys, "suite", "--config", str(cfg))
        assert code == 2 and out == "" and "coconvex:" in err
    # nor are unknown fields ignored
    cfg.write_text('{"dims": 3, "n_trial": 1, "suite": ["kernel"]}')
    code, out, err = run_cli(capsys, "suite", "--config", str(cfg))
    assert code == 2 and out == "" and "'dims'" in err


_SQUARE = [["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]]
_QUADRANT = {"rays": [[1, 0], [0, 1]]}


@pytest.mark.parametrize(
    "command, payload",
    [
        ("volume", {"dim": 2, "vertices": [[0.1, 0], [1, 0], [0, 1]]}),
        ("volume", {"dim": 2, "vertices": [[True, 0], [1, 0], [0, 1]]}),
        ("volume", {"dim": 2.9, "vertices": _SQUARE}),
        ("volume", {"dim": True, "vertices": [[0], [1]]}),
        ("volume", {"dim": 2, "vertices": [["0"], ["1"]]}),
        ("volume", {"dim": 0, "vertices": []}),
        ("volume", {"dim": 2, "vertices": "0 0, 1 0, 0 1"}),
        ("volume", {"dim": 2, "vertices": [5, 6, 7]}),
        ("volume", {"dim": 2, "vertices": _SQUARE, "rays": 5}),
        ("volume", [2, _SQUARE]),
        ("volume", 7),
        ("volume", {"cone": {"rays": 3}, "complement": {"dim": 2, "vertices": _SQUARE}}),
        ("volpoly", {"generators": {"dim": 2, "vertices": _SQUARE}}),
        ("volpoly", {"generators": [{"dim": 2, "vertices": _SQUARE}], "marked": 1}),
        ("volpoly", {"cone": _QUADRANT, "generators": 4}),
        ("signature", {"n": 2, "rows": "1001"}),
        ("signature", {"n": 2, "rows": [["1", "0"], 7]}),
        ("signature", {"n": 2.0, "rows": [["1", "0"], ["0", "1"]]}),
        ("signature", {"n": 2, "rows": [["1", 0.5], [0.5, "1"]]}),
    ],
    ids=[
        "float_coordinate",
        "bool_coordinate",
        "float_dim",
        "bool_dim",
        "short_vertex",
        "zero_dim",
        "string_vertices",
        "scalar_vertices",
        "scalar_rays",
        "list_document",
        "number_document",
        "scalar_cone_rays",
        "object_generators",
        "scalar_marked",
        "scalar_coconvex_generators",
        "string_rows",
        "scalar_row",
        "float_size",
        "float_entry",
    ],
)
def test_malformed_json_exits_2(tmp_path, capsys, command, payload):
    # floats, bools, wrong lengths and non-list containers are refused on load,
    # never coerced and never left to end in a traceback
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 2 and out == ""
    assert err.startswith("coconvex: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "exc",
    [
        ArithmeticError("root comparison did not separate from zero"),
        AssertionError("chosen rows and lineality basis are dependent"),
    ],
    ids=["ArithmeticError", "AssertionError"],
)
def test_internal_error_exit_code(tmp_path, capsys, monkeypatch, exc):
    body = tmp_path / "body.json"
    assert run_cli(capsys, "gen", "body", "--out", str(body))[0] == 0

    def broken(_):
        raise exc

    monkeypatch.setattr(cli, "volume", broken)
    code, out, err = run_cli(capsys, "volume", str(body))
    assert code == 3 and out == ""
    assert err == f"coconvex: internal error: {type(exc).__name__}: {exc}\n"


def test_violated_property_exits_1(tmp_path, capsys, monkeypatch):
    # lift-verify exits 1 when its payload's status is "fail", suite when a
    # trial fails; either way the full report still reaches stdout
    from coconvex import harness

    fam = tmp_path / "cfam.json"
    assert run_cli(capsys, "gen", "coconvex-family", "--seed", "6", "--out", str(fam))[0] == 0
    real = cli.verify_identity_V
    monkeypatch.setattr(cli, "verify_identity_V", lambda *a: {**real(*a), "status": "fail"})
    code, out, err = run_cli(capsys, "lift-verify", str(fam))
    assert code == 1 and err == ""
    payload = json.loads(out)
    assert payload["status"] == "fail" and payload["reports"]["V"]["status"] == "fail"
    monkeypatch.setattr(harness, "reversed_cs_check", lambda *a: False)
    code, out, err = run_cli(
        capsys, "suite", "--trials", "1", "--suite", "af", "--format", "csv"
    )
    assert code == 1 and out == "suite,pass,fail\naf,0,1\n" and err == ""


def test_out_writes_identical_bytes(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys, "suite", "--trials", "1", "--seed", "3", "--suite", "af", "--out", str(out_file)
    )
    assert code == 0
    _, stdout, _ = run_cli(capsys, "suite", "--trials", "1", "--seed", "3", "--suite", "af")
    on_disk = json.loads(out_file.read_text())
    via_stdout = json.loads(stdout)
    on_disk.pop("wall_time"), via_stdout.pop("wall_time")
    assert on_disk == via_stdout


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "coconvex.cli", "gen", "cone", "--seed", "8"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "rays" in json.loads(proc.stdout)
