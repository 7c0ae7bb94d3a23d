"""The demos run to completion against the current package."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo",
    ["01_symbolize_events.py", "02_mine_tuple_features.py", "03_classify_benchmark.py"],
)
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout and not proc.stderr


@pytest.mark.skipif(shutil.which("bash") is None, reason="the CLI tour is a bash script")
def test_cli_tour_runs(tmp_path):
    """synth -> convert -> mine -> explain -> eval through files, with a ``stemts`` on PATH."""
    bash = shutil.which("bash")
    shim = tmp_path / "bin" / "stemts"
    shim.parent.mkdir()
    shim.write_text(f'#!{bash}\nexec "{sys.executable}" -m stemts.cli "$@"\n')
    shim.chmod(0o755)
    python_path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    path = os.pathsep.join([str(shim.parent), os.environ.get("PATH", "")])
    proc = subprocess.run(
        [bash, str(ROOT / "demos" / "04_cli_tour.sh")],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=python_path, PATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "error" not in proc.stderr and "report.json" in proc.stdout
