"""End-to-end exercise of every CLI verb, exit codes, and JSON output."""

import json
import os
import subprocess
import sys

import pytest

from poissonforge import cli, preset


@pytest.fixture
def so3_file(tmp_path):
    path = tmp_path / "so3.json"
    path.write_text(preset("so3").to_json())
    return str(path)


@pytest.fixture
def broken_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({
        "dim": 3,
        "C": [{"i": 1, "j": 2, "k": 1, "value": "1"},
              {"i": 1, "j": 3, "k": 3, "value": "1"}]}))
    return str(path)


@pytest.fixture
def mvf_file(tmp_path):
    path = tmp_path / "pi.json"
    path.write_text(json.dumps({
        "nvars": 3, "weights": [1, 1, 1], "grade": 2,
        "terms": [{"indices": [1, 2], "poly": "x3"},
                  {"indices": [1, 3], "poly": "-x2"},
                  {"indices": [2, 3], "poly": "x1"}]}))
    return str(path)


@pytest.fixture
def jet_file(tmp_path):
    path = tmp_path / "jet.json"
    path.write_text(json.dumps({
        "nvars": 3, "weights": [0, 0, 1], "grade": 2,
        "terms": [{"indices": [1, 2], "poly": "x3"},
                  {"indices": [1, 3], "poly": "x1*x3"}]}))
    return str(path)


class TestCheck:
    def test_valid_structure(self, so3_file, capsys):
        assert cli.main(["check", so3_file]) == 0
        assert "poisson: True" in capsys.readouterr().out

    def test_mvf_input(self, mvf_file, capsys):
        assert cli.main(["check", mvf_file]) == 0

    def test_broken_structure(self, broken_file, capsys):
        assert cli.main(["check", broken_file, "--format", "json"]) == 1
        obj = json.loads(capsys.readouterr().out)
        assert obj["is_poisson"] is False
        assert obj["witness"]["terms"]

    def test_broken_table_is_a_verdict_not_an_input_error(self, broken_file,
                                                          capsys):
        assert cli.main(["check", broken_file]) == 1
        out = capsys.readouterr()
        assert "witness" in out.out
        assert out.err == ""

    def test_missing_file(self, capsys):
        assert cli.main(["check", "/nonexistent/f.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["check", str(bad)]) == 2

    def test_wrong_schema(self, tmp_path, capsys):
        bad = tmp_path / "odd.json"
        bad.write_text(json.dumps({"foo": 1}))
        assert cli.main(["check", str(bad)]) == 2

    def test_json_output_deterministic(self, so3_file, capsys):
        cli.main(["check", so3_file, "--format", "json"])
        first = capsys.readouterr().out
        cli.main(["check", so3_file, "--format", "json"])
        assert capsys.readouterr().out == first


def test_casimirs(so3_file, capsys):
    assert cli.main(["casimirs", so3_file, "--max-degree", "2",
                     "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["max_degree"] == 2
    assert len(obj["casimirs"]) == 2


def test_cohomology(so3_file, capsys):
    assert cli.main(["cohomology", so3_file, "--grade", "2",
                     "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    betti = {row["k"]: row["betti"] for row in obj["rows"]}
    assert betti == {0: 1, 1: 0, 2: 0, 3: 1}


def test_linearize(mvf_file, capsys):
    assert cli.main(["linearize", mvf_file, "--truncate", "3",
                     "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["status"] == "equivalent"
    assert obj["rounds"] == 0


def test_prolong_obstructed(jet_file, capsys):
    rc = cli.main(["prolong", jet_file, "--format", "json"])
    assert rc == 1
    obj = json.loads(capsys.readouterr().out)
    assert obj["status"] == "obstructed"
    assert obj["grade"] == 4
    assert obj["cochain"]["terms"]


def test_realize(mvf_file, capsys):
    assert cli.main(["realize", mvf_file, "--samples", "5", "--steps", "200",
                     "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["poisson_residual_max"] < 1e-4
    assert obj["skipped"] == 0


@pytest.mark.parametrize("bad, named", [
    pytest.param(["--steps", "0"], "steps", id="steps=0"),
    pytest.param(["--steps", "-3"], "steps", id="steps=-3"),
    pytest.param(["--samples", "0"], "n_samples", id="samples=0"),
    pytest.param(["--radius", "nan"], "radius", id="radius=nan"),
    pytest.param(["--radius", "-1"], "radius", id="radius=-1"),
    pytest.param(["--radius", "0"], "radius", id="radius=0"),
])
def test_realize_rejects_bad_input(mvf_file, capsys, bad, named):
    argv = ["realize", mvf_file, "--samples", "2", "--steps", "20", "--format", "json"]
    assert cli.main(argv + bad) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err


def test_su3(capsys):
    assert cli.main(["su3", "--samples", "50", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["killing"] == {"semisimple": True, "compact_type": True}
    assert obj["weyl_circle_max_dev"] < 1e-10
    assert obj["delta_membership"] is True


def test_area(capsys):
    assert cli.main(["area", "--radius", "0.5", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert abs(obj["area"] - obj["expected_area"]) < 1e-6


def test_unknown_verb():
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])


# Records the thread variables at the moment NumPy is first imported, then
# imports the CLI and prints the variables as they are then.
_THREAD_PROBE = """
import json, os, sys
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
seen = {}
class Probe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.update({v: os.environ.get(v) for v in THREAD_VARS})
        return None
sys.meta_path.insert(0, Probe())
import poissonforge.cli
print(json.dumps({"at_numpy_import": seen,
                  "after": {v: os.environ.get(v) for v in THREAD_VARS}}))
"""


def test_thread_cap_env():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["POISSON_FORGE_THREADS"] = "1"
    env["PYTHONPATH"] = src
    out = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    obj = json.loads(out.stdout)
    want = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    assert obj["after"] == want
    # the cap was in place before NumPy was first imported
    assert obj["at_numpy_import"] == want
