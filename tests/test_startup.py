"""Start-up cost: what a fresh interpreter loads to run the CLI.

scipy.special takes about 0.35 s to import and only drop-the-loser
designs use it, and the thread pool is only needed with threads > 1. Each
case runs in a fresh interpreter, because this test session has both
loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from multiseq.cli import THREADS_ENV

SRC = Path(__file__).resolve().parent.parent / "src"
LAZY = ("scipy", "concurrent.futures")

# imports the package, then runs cli.main on the arguments, if any; the
# last line of stdout gives the exit code and the lazy modules loaded
SCRIPT = """
import contextlib, json, sys
import multiseq, multiseq.cli
lazy = {lazy!r}
imported = [name for name in lazy if name in sys.modules]
code = None
if len(sys.argv) > 1:
    with contextlib.redirect_stdout(sys.stderr):
        code = multiseq.cli.main(sys.argv[1:])
after = [name for name in lazy if name in sys.modules]
print(json.dumps({{"imported": imported, "code": code, "after": after}}))
""".format(lazy=LAZY)

CONFIG = """K = 2
m = 1
J = {J}
delta0 = 0.2
delta1 = 0.4
rho = 0.3
seed = 7
nsims = 2000
nmax = 120
"""


def fresh_run(*argv) -> dict:
    env = {k: v for k, v in os.environ.items() if k != THREADS_ENV}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run([sys.executable, "-c", SCRIPT, *argv], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def design(tmp_path, kind: str, text: str) -> list:
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return ["design", kind, "--config", str(path), "--out", str(tmp_path / "out"),
            "--threads", "1"]


def test_import_loads_neither_scipy_nor_the_thread_pool():
    assert fresh_run()["imported"] == []


@pytest.mark.parametrize("kind, stages", [("gs", 3), ("composite", 3), ("single-stage", 1)])
def test_group_sequential_designs_load_neither(tmp_path, kind, stages):
    run = fresh_run(*design(tmp_path, kind, CONFIG.format(J=stages)))
    assert run["code"] == 0
    assert run["after"] == []


def test_dtl_config_error_exits_before_loading_scipy(tmp_path):
    run = fresh_run(*design(tmp_path, "dtl", CONFIG.format(J=2)))  # no k_max
    assert run["code"] == 2
    assert "scipy" not in run["after"]


def test_dtl_design_loads_scipy(tmp_path):
    run = fresh_run(*design(tmp_path, "dtl", CONFIG.format(J=2) + "k_max = 1\n"))
    assert run["code"] == 0
    assert "scipy" in run["after"]
