import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DEMOS = (
    "01_mesh_and_norms.py",
    "02_forward_solver.py",
    "03_subderivative.py",
    "04_noise_free_iteration.py",
    "05_noisy_reconstruction.py",
    "06_assumption_checks.py",
)


def _env():
    """The environment with the package's source first on PYTHONPATH, by absolute path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env=_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_readme_quick_start_runs_as_written(tmp_path):
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("## Library quick start"):]
    block = section[section.index("```python\n") + len("```python\n"):section.index("```\n", 1)]
    result = subprocess.run(
        [sys.executable, "-c", block], env=_env(), cwd=tmp_path, capture_output=True, text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split()[-1] == "discrepancy"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["run.csv", "run.json"]


def test_console_checks_pass_through_python_m(tmp_path):
    # the script CI runs against the installed console script; its inline
    # `python` must be this interpreter, which imports the package from src
    env = _env()
    env["PATH"] = os.pathsep.join([str(Path(sys.executable).parent), env.get("PATH", "")])
    command = [sys.executable, "-m", "bouligand_landweber"]
    result = subprocess.run(
        ["bash", str(ROOT / "ci" / "console_checks.sh"), *command],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
