"""The CLI's observable behaviour, pinned by sha256 digests.

Each case runs `coconvex.cli.main` on one argument list inside a directory
of seeded inputs and digests (exit code, stdout, stderr), plus the bytes of
the `--out` file when the call names one.  The cases cover every subcommand
on `gen` inputs of each kind at d = 2 and 3, every wrong-kind file, bad
input, `suite` JSON and CSV, usage errors and every `--help` text.  Paths
are relative and the terminal width is fixed, so the bytes do not depend on
where or how the tests run.  A change to the CLI layer that is meant to
leave its output alone leaves these digests alone.
"""

import hashlib
import json
import re
import sys

import pytest

from coconvex.cli import main

# Seeded inputs, written once per module by `gen --out`; the `gen` cases
# below pin their bytes.
_KINDS = ("body", "cone", "coconvex-body", "convex-family", "coconvex-family")
_INPUTS = [
    (f"{kind}-{d}.json", ["gen", kind, "--dim", str(d), "--seed", str(seed)])
    for d, seed in ((2, 3), (3, 5))
    for kind in _KINDS
] + [
    ("body-2b.json", ["gen", "body", "--dim", "2", "--seed", "4"]),
    ("body-3b.json", ["gen", "body", "--dim", "3", "--seed", "6"]),
    ("body-3c.json", ["gen", "body", "--dim", "3", "--seed", "7"]),
]
_TEXT_INPUTS = {
    "malformed.json": "not json",
    "float.json": '{"dim": 2, "vertices": [[0.1, 0], [1, 0], [0, 1]]}',
    "form-2.json": '{"n": 2, "rows": [["2", "-1/2"], ["-1/2", "3"]]}',
    "form-3.json": '{"n": 3, "rows": [["0", "1", "0"], ["1", "0", "0"], ["0", "0", "-4/3"]]}',
    "config.json": '{"dim": 2, "n_trials": 1, "suite": ["kernel", "mink1"]}',
    # a convex family whose "marked" is misspelled, and one whose "dim"
    # differs from its generators'
    "marekd.json": '{"dim": 3, "generators": [{"dim": 3, "vertices": '
    '[[0, 0, 0], [2, 0, 0], [0, 1, 0], [0, 0, 1]]}, {"dim": 3, "vertices": '
    '[[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 3]]}], "marekd": [["1", "3"]]}',
    "wrong-dim.json": '{"dim": 7, "generators": [{"dim": 3, "vertices": '
    '[[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]}]}',
}

# (argv, sha256 of [exit code, stdout, stderr(, --out file)]).
CASES = [
    # every file subcommand on every input of its kind
    ("gen body --dim 2 --seed 3",
        "7cc6f2fe56399c40b1c33c6f2338db62ed65e434a80922d4c19b0706160fe84a"),
    ("gen cone --dim 2 --seed 3",
        "c97661c3963785fc09f54d087b5d9074e26db8dde95ddabed35a78aaff50d58c"),
    ("gen coconvex-body --dim 2 --seed 3",
        "965ffbb481777b78b9ce9540e894616490fa2739d90819e917f71118cc2d24fa"),
    ("gen convex-family --dim 2 --seed 3",
        "84c0b46413337c2770294b19388b5b0de94907f19dc45b9a646fa41642ee6ecd"),
    ("gen coconvex-family --dim 2 --seed 3",
        "35713797703e4d98734f0fa6afc2718f945fe0615cbc887d19151ea835cabe76"),
    ("gen body --dim 3 --seed 5",
        "608daca320eb63cd963d7dcc438e3eaf14d50cbc361d00204da70bf4245d09c6"),
    ("gen cone --dim 3 --seed 5",
        "7552140c4f9dc9bd08d04027a439ddc9d534a02cc6a4af198746f96b566d2fb7"),
    ("gen coconvex-body --dim 3 --seed 5",
        "8ab36dd69a6e6659c1db02af4ab22758c19dda5c970620878e9f48b0873111a4"),
    ("gen convex-family --dim 3 --seed 5 --n 3 --bound 2",
        "a75510930b6a0c9f635c7a4787ffcf74b8ecb833971a796efc7d2a1813875873"),
    ("gen coconvex-family --dim 3 --seed 5 --n 1",
        "5a24c78014cfff8a6496f5e13fcc34a7d58058a09c5e2fe4abf13bf016359574"),
    ("volume body-2.json",
        "b19960217d07acb51b2bb67e0cf42925e19aea994d8bf200479b1fe4aaed54d9"),
    ("volume body-3.json",
        "de24c7ba220d641f4bda29bdfc28ad81b3f90acb1e2c33f06a0e3fcc9c8dec99"),
    ("volume coconvex-body-2.json",
        "96879ebdf8b7fb5e3213c9379639e6a67049298e0f1a32e9f3ac59d486c04ee4"),
    ("volume coconvex-body-3.json",
        "d527cd08814eb996c5494ed20226257cb0a7f9d3f4f2820575ea4bdfd12ba64b"),
    ("mixedvol body-2.json body-2b.json",
        "ce5b3f5e14468991dedfdfd04e8d2c4e078e4dd336d18826e171402ace919e09"),
    ("mixedvol body-3.json body-3b.json body-3c.json",
        "1285dea9b580bc0d329e0daa437616ee7a18cf2641bd1e4c5151955857345d76"),
    ("volpoly convex-family-2.json",
        "128932378c9bca32419c1016a4839d271f88cffd9aaa5e1789b9b01d814c6193"),
    ("volpoly convex-family-3.json",
        "5331c3bfc357ded677741b15d1a60ed880c55889d762e073810ab0bfe21f0e12"),
    ("volpoly coconvex-family-2.json",
        "f67ebb4101c68f145f94a655543c5ec539bb86583ce8074cd52c76c73bffc63b"),
    ("volpoly coconvex-family-3.json",
        "15c2c0a3279985924254f4a05c1f8cbb85296518277facec627949eab01a4a75"),
    ("afform convex-family-2.json",
        "73c9118b533e582bd4ddfe3ef72f7be8a3c0809bc7eb4f38555809faa45004ea"),
    ("afform convex-family-3.json",
        "4817126335d3b860fc4bde3acb1684fdb3b2bf04ee3c0a0dda6af6be1746ebf1"),
    ("co-afform coconvex-family-2.json",
        "d7efb001a65b75d13d021bed3f70bc1ee835f9390881e05e0619fffd47aa2c9b"),
    ("co-afform coconvex-family-3.json",
        "f19ebd6dfc4054f853857782d45eb92015c503c44c77cc4c8e6f24b00bc99dd0"),
    ("signature form-2.json",
        "88040a40885a75639494074057a515763706a9c2bf0a25ea6811d00e478be3d0"),
    ("signature form-3.json",
        "10e906cda6ed44accdf4b7cd496eb61796884a522da1374792f36d0d353ddff5"),
    ("lift-verify coconvex-family-2.json",
        "e30a252e3c4f5537ec6e0ef1b839fb89775e47f5065b1fd462709162cd93350c"),
    ("lift-verify coconvex-family-3.json",
        "e30a252e3c4f5537ec6e0ef1b839fb89775e47f5065b1fd462709162cd93350c"),
    # --out writes the bytes stdout would carry, and nothing to stdout
    ("gen coconvex-family --dim 2 --seed 3 --out written.json",
        "883fcc93cdc0fc39f6bc41e367b5083aa854d4b9a2433cc6bd3e0c1c894ccbf3"),
    ("volume body-3.json --out written.json",
        "b6d4a2329fba6f010a3a72c2b1d5ddf47507de18c4182f53a7a8e9925851516d"),
    ("co-afform coconvex-family-2.json --out written.json",
        "fafa5bddef1d88faba1761a71eef8614c54ea01a860fdc4efeabfd06984ea61b"),
    ("lift-verify coconvex-family-2.json --out written.json",
        "143e2e02341b1954ca38bbe2d6491dd8276af8e2334ff4c3126d22f01c8d874e"),
    # wrong-kind files
    ("afform coconvex-family-2.json",
        "07c3713420bae0246d4cc605d24c43e37737fed15f541f9565c79ad040ba2e61"),
    ("co-afform convex-family-2.json",
        "9586595b9e763e6bb0c4162af653dd9040082a8831058d434cf8f1358cc0d1cd"),
    ("lift-verify convex-family-2.json",
        "db68e6e8a3d17da8327ddc8c4dca36c7e1565b379cbaf83ebc5cd3c45631e6be"),
    ("co-afform body-2.json",
        "9586595b9e763e6bb0c4162af653dd9040082a8831058d434cf8f1358cc0d1cd"),
    ("afform cone-2.json",
        "8390b35bdbb8413182b8b71e74ace34a33598606f19cd7ce536a8d449e9c8026"),
    ("volpoly body-2.json",
        "8390b35bdbb8413182b8b71e74ace34a33598606f19cd7ce536a8d449e9c8026"),
    ("volume convex-family-2.json",
        "8b1246de8b2eac7529b0405dfd3554132f274d8a46ebf6e7d410d3a9658874e4"),
    ("volume coconvex-family-2.json",
        "4d95f4201d76a22ddee005db98645cec466fe7d825ced703cb77c6806b2ae7dd"),
    ("mixedvol body-2.json coconvex-body-2.json",
        "0cc11d815ebca43a2bcab6b25ce10a8f644b10db134733b373d69a2f1cf7cb1f"),
    ("signature body-2.json",
        "db8c23a387602dcbaba11d7ef4f0a37f9492dfc09409a146acd2290e66ff46c9"),
    # bad input and unwritable output
    ("volume missing.json",
        "7d983143bbf90eb697b0e61e21d41b7c24431de06115c9f0b4eb40fd85bcb230"),
    ("volume malformed.json",
        "b2d375dc0a259db75bde66d1a3847d82cb263cafc5945885a687264ec38682ce"),
    ("volume float.json",
        "e70abfb1aa6f893e3ebe7eb8951a95a6d512cb037d9c82da9ebb5a9683b85022"),
    ("afform malformed.json",
        "b2d375dc0a259db75bde66d1a3847d82cb263cafc5945885a687264ec38682ce"),
    ("lift-verify float.json",
        "db68e6e8a3d17da8327ddc8c4dca36c7e1565b379cbaf83ebc5cd3c45631e6be"),
    ("afform marekd.json",
        "a505a32bc2983ea28b6fd62a43d67349f6ab52f97b4f948e1f387a064c3c424c"),
    ("afform wrong-dim.json",
        "b6fb0da1808459151a8926bfcadc4ee8b14b07aa1a75ef332d1d26010c068d8a"),
    ("volume body-2.json --out missing-dir/out.json",
        "8c7eec8b5c56a5d0704b9c58dd0b6ed190f408988771ecc093ee42593fea6f4a"),
    ("gen body --out missing-dir/out.json",
        "8c7eec8b5c56a5d0704b9c58dd0b6ed190f408988771ecc093ee42593fea6f4a"),
    ("suite --dim 7",
        "c01bddac4c7a750090325900a73d44835ccaf106a2a5f82e0b02e3ab66e01acf"),
    # suites, wall time zeroed
    ("suite --suite all --dim 2 --trials 1 --seed 3",
        "ea8d3d33c5d56a70c9e1f37b800e7619e0039add60fc28a919799d4c48a0cb7c"),
    ("suite --suite all --dim 2 --trials 1 --seed 3 --format csv",
        "1b3a35d40e61c3b687fa100567a3dbaf51f6ac5f32438a16c10027f1ec71f5fb"),
    ("suite --config config.json --seed 9",
        "7ffdb1d62383a61638e782a57868cfdb764f64b47f06f1ad029a654f5326f483"),
    ("suite --config config.json --format csv --out written.json",
        "65c2343694e2c1ae6b32479ae49ef4731ed4aba4d7d159e1f544773280e209f8"),
    # usage errors and help
    ("",
        "38ecb863418a1f4647fb6a01c8bf0b4349b61d39f698c2c959e2479fa5b5e6a2"),
    ("volume",
        "002b3a6fd9fc0d22c2b4386264979283139409711fcb3d9fa6318691ffe42a51"),
    ("--help",
        "f9af228c3d8f0ae36604fa95f398394ab8ed79cfd23776a2ea3c216bf059b01b"),
    ("gen --help",
        "9e255caa4264480c7c52f430c47a295ea2a4b6a349ae0bb8e3fd92879b62e72b"),
    ("volume --help",
        "527a61219b499acfc17bf7d2d8dcec7c0a373aa6e689fbf7c2b7e37088661731"),
    ("mixedvol --help",
        "e8867760a8037b0fecc785d1fe64fb1fd4c423f43920b8b21e64d78ea67d70f2"),
    ("volpoly --help",
        "16e1ba65c5d61bd509cdb323a57116d2d8b8586acda2f806fee579c207123488"),
    ("afform --help",
        "dfcc21cf33a0b00e03923a83a05a2523b64ff9c79e3e6704eafb7cf2b5edf9ab"),
    ("co-afform --help",
        "9511ff2aec4bc0b6e0d55bfa0e191ec2617792cd74c2572ca1b4999d6d42e5b8"),
    ("signature --help",
        "61b8bf0a282d5c0cdede5f5c937e4e6b247e76fa53a8bc065d53a1d5197f2f85"),
    ("lift-verify --help",
        "4a9e82b2572c4091bdcdf890580b79e69d7266262fdbac808bf211165cadd1e9"),
    ("suite --help",
        "e1ebbaf1027d7c5b7ebb1977084a4662f438124164337e9713b09a40fd071109"),
]

# Python 3.13's argparse keeps the subcommand list on the usage line; every
# other byte matches 3.10-3.12.  (How argparse quotes an invalid choice
# changed within 3.13's patch releases, so no case pins that message.)
if sys.version_info >= (3, 13):
    CASES = [
        (command, {
            "": "c98374ac2699ac45a4538cc2096a188cfb880e2e86c854daf5ea21e439361f4b",
            "--help": "ae7a8ad46f868abaf7462751f127bb4e0f8c5836f0b657d510f3a718ff532b05",
        }.get(command, digest))
        for command, digest in CASES
    ]

_WALL_TIME = re.compile(r'"wall_time": [^,\n]+')


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-inputs")
    for name, argv in _INPUTS:
        assert main(argv + ["--out", str(root / name)]) == 0
    for name, text in _TEXT_INPUTS.items():
        (root / name).write_text(text, encoding="utf-8")
    return root


def observe(capsys, argv):
    """[exit code, stdout, stderr(, --out file)] of one CLI call."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    seen = [code, captured.out, captured.err]
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        try:
            with open(path, encoding="utf-8") as fh:
                seen.append(fh.read())
        except FileNotFoundError:
            seen.append(None)
    return [_WALL_TIME.sub('"wall_time": 0', s) if isinstance(s, str) else s for s in seen]


@pytest.mark.parametrize("command, digest", CASES, ids=[c for c, _ in CASES])
def test_cli_output_is_pinned(inputs, capsys, monkeypatch, command, digest):
    monkeypatch.chdir(inputs)
    monkeypatch.setenv("COLUMNS", "80")
    seen = observe(capsys, command.split())
    (inputs / "written.json").unlink(missing_ok=True)
    got = hashlib.sha256(json.dumps(seen).encode("utf-8")).hexdigest()
    assert got == digest, seen
