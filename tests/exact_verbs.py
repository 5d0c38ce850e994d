"""The exact verbs on the standard library alone: no verb may load NumPy.

``INPUTS`` are the JSON files the runs read and ``RUNS`` the CLI argv lists,
grouped by verb, each with its expected exit code: a success and an input
error per verb, and for ``prolong`` the obstructed README jet, which takes
the witness path of the exact solver.  ``test_package`` runs each group in
a fresh interpreter.  Run as a script, with ``src`` on ``PYTHONPATH``, this
file makes every run in one interpreter, in a temporary directory, then the
cohomology table of the 3-dimensional Heisenberg algebra at grade 1, whose
ranks are not all pinned by the complex's exactness and so take the lift,
and asserts the exit codes, the Betti numbers ``[1, 4, 5, 2]`` and that
NumPy was never imported:

    PYTHONPATH=src python tests/exact_verbs.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile

INPUTS = {
    "so3": {"dim": 3, "C": [{"i": 1, "j": 2, "k": 3, "value": "1"},
                            {"i": 2, "j": 3, "k": 1, "value": "1"},
                            {"i": 1, "j": 3, "k": 2, "value": "-1"}]},
    "jet": {"nvars": 3, "weights": [0, 0, 1], "grade": 2,
            "terms": [{"indices": [1, 2], "poly": "x3"}, {"indices": [1, 3], "poly": "x1*x3"}]},
    "vf": {"nvars": 3, "grade": 1, "terms": [{"indices": [1], "poly": "x2"}]},
    "heis": {"dim": 3, "C": [{"i": 1, "j": 2, "k": 3, "value": "1"}]},
}

RUNS = {
    "check": [(["check", "so3.json"], 0), (["check", "vf.json"], 2)],
    "casimirs": [(["casimirs", "so3.json", "--max-degree", "2"], 0),
                 (["casimirs", "so3.json", "--max-degree", "-1"], 2)],
    "cohomology": [(["cohomology", "so3.json", "--grade", "2"], 0),
                   (["cohomology", "so3.json", "--grade", "-1"], 2)],
    "linearize": [(["linearize", "so3.json", "--truncate", "4"], 0),
                  (["linearize", "so3.json", "--base-degree-cap", "-1"], 2)],
    "prolong": [(["prolong", "jet.json", "--weights", "0,0,1"], 1), (["prolong", "so3.json"], 0),
                (["prolong", "jet.json", "--grade", "-1"], 2)],
}


def write_inputs(directory: str) -> None:
    for name, obj in INPUTS.items():
        with open(os.path.join(directory, f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(obj, fh)


def main() -> None:
    from poissonforge import cli

    cwd, runs, out = os.getcwd(), [run for group in RUNS.values() for run in group], io.StringIO()
    with tempfile.TemporaryDirectory() as directory:
        write_inputs(directory)
        os.chdir(directory)
        try:
            codes = [cli.main(argv) for argv, _ in runs]
            with contextlib.redirect_stdout(out):
                code = cli.main(["cohomology", "heis.json", "--grade", "1", "--format", "json"])
        finally:
            os.chdir(cwd)
    assert codes == [expected for _, expected in runs], codes
    betti = [row["betti"] for row in json.loads(out.getvalue())["rows"]]
    assert (code, betti) == (0, [1, 4, 5, 2]), (code, betti)
    assert "numpy" not in sys.modules
    print("exact verbs: exit codes, Heisenberg Betti numbers and NumPy-free start-up as expected")


if __name__ == "__main__":
    main()
