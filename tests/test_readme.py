"""The README's Python examples run as written."""
import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_python_blocks_run(tmp_path):
    # each block in a fresh interpreter with src/ first on the path, so a
    # doc that names a removed function fails here
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.S | re.M)
    assert blocks
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    for block in blocks:
        proc = subprocess.run(
            [sys.executable, "-c", block], capture_output=True, text=True,
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": path}, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
