"""Command line surface: golden bytes, exit codes, round trips."""

import dataclasses
import json
import pathlib
import re

import pytest

from cli_cases import CASES, INPUT_FILES, run_cli
from tropaint import jsonio, multiplihedra
from tropaint.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_golden_bytes(case, tmp_path):
    name, input_key, argv, stdout_golden, artifact_goldens, seeds = case
    args = [
        a if a != "INPUT" else str(GOLDEN / INPUT_FILES[input_key]) for a in argv
    ]
    expected = (GOLDEN / stdout_golden).read_bytes()
    for seed in seeds:
        out_dir = tmp_path / f"out{seed}" if artifact_goldens else None
        proc = run_cli(args, seed=seed, out_dir=out_dir)
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout == expected
        for artifact, golden in artifact_goldens.items():
            assert (out_dir / artifact).read_bytes() == (GOLDEN / golden).read_bytes()


def test_emitted_configuration_round_trips():
    for key in INPUT_FILES.values():
        text = (GOLDEN / key).read_text(encoding="utf-8")
        config, alpha = jsonio.read_configuration(text)
        assert alpha is not None
        assert jsonio.dumps(jsonio.configuration_json(config, alpha=alpha)) == text
    # the extended configuration emitted upstairs re-parses too
    text = (GOLDEN / "pp_bipyramid_extended.json").read_text(encoding="utf-8")
    config, alpha = jsonio.read_configuration(text)
    assert alpha is None and config.labels[-2:] == ("rho", "beta")
    assert jsonio.dumps(jsonio.configuration_json(config)) == text


def test_usage_errors_exit_1(tmp_path, capsys):
    assert main(["no-such-command"]) == 1
    assert main([]) == 1
    assert main(["subdivide"]) == 1  # missing input and --eta
    assert main(["--help"]) == 0
    capsys.readouterr()
    missing = tmp_path / "absent.json"
    assert main(["subdivide", str(missing), "--eta", "[0,0]"]) == 1
    quad = str(GOLDEN / "quad.json")
    for cap in ("0", "-1"):
        assert main(["secondary", quad, "--max-triangulations", cap]) == 1
        for command in (["subdivide"], ["tropical"], ["paint", "--level", "0"]):
            assert main([*command, quad, "--eta", "[-1,1,0,2,0]", "--max-cells", cap]) == 1
    assert "a cap must be positive" in capsys.readouterr().err


def test_data_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dimension": 2,\n "points": [}\n', encoding="utf-8")
    assert main(["subdivide", str(bad), "--eta", "[0]"]) == 2
    err = capsys.readouterr().err
    assert "line 2 column 13" in err

    quad = GOLDEN / "quad.json"
    assert main(["subdivide", str(quad), "--eta", "[1,2]"]) == 2  # wrong length
    assert main(["subdivide", str(quad), "--eta", "[0.5,0,0,0,0]"]) == 2  # float
    capsys.readouterr()


def test_resource_caps_exit_3(capsys):
    quad = GOLDEN / "quad.json"
    assert main(["secondary", str(quad), "--max-triangulations", "2"]) == 3
    # 4 triangulations pass the cap, but 9 coherent subdivisions do not
    assert main(["secondary", str(quad), "--max-triangulations", "4"]) == 3
    assert "more than 4 subdivisions" in capsys.readouterr().err
    assert main(["subdivide", str(quad), "--eta", "[-1,1,0,2,0]", "--max-cells", "3"]) == 3
    assert main(["verify", "multiplihedron", "-m", "7"]) == 3
    capsys.readouterr()


def test_verification_failures_exit_4(monkeypatch, capsys):
    real = multiplihedra.enumerate_coherent_subdivisions

    def damaged(config):
        lattice = real(config)
        return dataclasses.replace(lattice, covers=lattice.covers - {min(lattice.covers)})

    monkeypatch.setattr(multiplihedra, "enumerate_coherent_subdivisions", damaged)
    assert main(["verify", "multiplihedron", "-m", "2"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "verification failed: face lattices are not isomorphic" in captured.err


def test_svg_rejected_off_plane(capsys):
    bip = GOLDEN / "bipyramid.json"
    code = main(["tropical", str(bip), "--eta", "[1,0,2,0,1]", "--svg"])
    assert code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "command, artifact",
    [(["tropical"], "complex.svg"), (["paint", "--level", "1/2"], "painted.svg")],
    ids=["tropical", "paint"],
)
def test_svg_default_bbox_holds_every_vertex(command, artifact, tmp_path):
    quad = str(GOLDEN / "quad.json")
    args = [command[0], quad, "--eta", "[-1,1,0,2,0]", *command[1:], "--svg"]
    svgs = []
    for seed in ("0", "1"):
        proc = run_cli(args, seed=seed, out_dir=tmp_path / seed)
        assert proc.returncode == 0, proc.stderr.decode()
        svgs.append((tmp_path / seed / artifact).read_text(encoding="utf-8"))
    assert svgs[0] == svgs[1]
    width, height = map(float, re.search(r'viewBox="0 0 (\S+) (\S+)"', svgs[0]).groups())
    dots = [tuple(map(float, xy)) for xy in re.findall(r'cx="(\S+)" cy="(\S+)"', svgs[0])]
    # the quad's dual complex under this lifting has four 0-cells
    assert len(dots) == 4
    assert all(0 < x < width and 0 < y < height for x, y in dots)


def test_verify_needs_its_argument(capsys):
    assert main(["verify", "painting-polytope"]) == 2
    assert main(["verify", "multiplihedron"]) == 2
    capsys.readouterr()


def test_stdout_matches_report_artifact(tmp_path):
    args = ["verify", "multiplihedron", "-m", "2"]
    proc = run_cli(args, seed="0", out_dir=tmp_path)
    assert proc.returncode == 0
    assert (tmp_path / "report.json").read_bytes() == proc.stdout
    json.loads(proc.stdout)
