"""One tiny traced pass of every benchmark workload.

The tracer rebinds library functions by name, so a deleted or renamed
function that the benchmark reads fails here.  Runs ``bench/worker.py``
as the benchmark does, in a fresh interpreter with ``src`` on the path.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "workload", ["verify_battery", "cli_queries", "large_tables", "rewrite"])
def test_tiny_traced_pass(workload):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "worker.py"), "--workload",
         workload, "--seed", "0", "--tiny", "--trace"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert record["ops"] and all(op[0] == "ok" for op in record["ops"]), \
        record["errors"]
    assert "layers" in record
