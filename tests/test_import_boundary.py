"""Import boundary: scipy is loaded only when the knn estimator first runs.

Each check runs in a fresh interpreter, because other test modules import
scipy into the pytest process itself.
"""
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np

import hoci

SRC = str(Path(hoci.__file__).resolve().parent.parent)

# argv: input CSV, output directory, "scipy-first" or "lazy"
SCRIPT = textwrap.dedent(
    """
    import sys

    def scipy_modules():  # the first few, enough to name the culprit
        return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")[:3]

    path, out, mode = sys.argv[1:]
    if mode == "scipy-first":
        import scipy.spatial, scipy.special
    import hoci, hoci.cli
    from hoci.cli import main

    if mode == "lazy":
        assert scipy_modules() == [], scipy_modules()
        assert main(["estimate", "--input", path, "--estimator", "gaussian",
                     "--order", "4", "--out", out + "/gauss.json"]) == 0
        assert main(["discrete", "--n", "4", "--out", out + "/discrete.json"]) == 0
        assert scipy_modules() == [], scipy_modules()
    assert main(["estimate", "--input", path, "--estimator", "knn", "--k", "3",
                 "--order", "3", "--out", out + "/knn-" + mode + ".json"]) == 0
    assert "scipy.spatial" in sys.modules and "scipy.special" in sys.modules
    """
)


def run_script(csv_path, out_dir, mode):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", SCRIPT, str(csv_path), str(out_dir), mode],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def test_only_knn_loads_scipy_and_its_report_is_unchanged(tmp_path):
    rng = np.random.default_rng(5)
    shared = rng.standard_normal(600)
    data = shared + rng.standard_normal((4, 600))
    lines = ["a,b,c,d"] + [",".join(repr(float(v)) for v in col) for col in data.T]
    csv_path = tmp_path / "in.csv"
    csv_path.write_text("\n".join(lines) + "\n")

    lazy = run_script(csv_path, tmp_path, "lazy")
    assert lazy.returncode == 0, lazy.stderr
    first = run_script(csv_path, tmp_path, "scipy-first")
    assert first.returncode == 0, first.stderr
    assert (tmp_path / "knn-lazy.json").read_bytes() == (tmp_path / "knn-scipy-first.json").read_bytes()
