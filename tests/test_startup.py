"""Start-up cost: what a fresh interpreter loads to run the CLI.

numpy is the only runtime dependency: no command loads scipy (importing
scipy.special would cost about 0.3 s and 24 MB per process), and a run
with every scipy import made to fail writes the golden outputs. The
thread pool is only needed with threads > 1. The sample-size search takes
Phi^-1 from the package's own ndtri, so no search loads ``statistics``
(with ``decimal`` and ``fractions``). Each case runs in a fresh
interpreter, because this test session has loaded them already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from multiseq.cli import THREADS_ENV
from test_cli import COMMANDS, write
from test_golden import GOLDEN, output_hashes

SRC = Path(__file__).resolve().parent.parent / "src"
LAZY = ("scipy", "concurrent.futures", "statistics", "decimal", "fractions")

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


# prepended to SCRIPT: every later import of scipy or its submodules raises ImportError
NO_SCIPY = "import sys\nsys.modules['scipy'] = None\n"


def fresh_run(*argv, block_scipy: bool = False) -> dict:
    env = {k: v for k, v in os.environ.items() if k != THREADS_ENV}
    env["PYTHONPATH"] = str(SRC)
    script = NO_SCIPY + SCRIPT if block_scipy else SCRIPT
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
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


def command_args(tmp_path, name: str) -> list:
    """``test_cli.COMMANDS[name]`` on one thread, writing to tmp_path / "out"."""
    command, text, _ = COMMANDS[name]
    return command + ["--config", str(write(tmp_path, text)), "--threads", "1",
                      "--out", str(tmp_path / "out")]


def test_dtl_runs_load_no_scipy(tmp_path):
    run = fresh_run(*design(tmp_path, "dtl", CONFIG.format(J=2) + "k_max = 1\n"))
    assert run["code"] == 0
    assert "scipy" not in run["after"]
    run = fresh_run(*command_args(tmp_path, "grid-dtl-single-stage"))  # kind_a = dtl
    assert run["code"] == 0
    assert "scipy" not in run["after"]


@pytest.mark.parametrize("name", ["design-dtl", "design-dtl-k4-m2", "grid-dtl-single-stage"])
def test_numpy_alone_writes_the_golden_outputs(tmp_path, name):
    run = fresh_run(*command_args(tmp_path, name), block_scipy=True)
    assert run["code"] == 0
    assert output_hashes(tmp_path / "out") == GOLDEN[name]


def test_probing_searches_load_no_statistics(tmp_path):
    # a drop-the-loser search, and a gs search that gallops (1 < m < K)
    dtl = fresh_run(*design(tmp_path, "dtl", CONFIG.format(J=2) + "k_max = 1\n"))
    gallop = fresh_run(*design(tmp_path, "gs",
                               CONFIG.format(J=3).replace("K = 2\nm = 1", "K = 3\nm = 2")))
    for run in (dtl, gallop):
        assert run["code"] == 0
        assert not {"statistics", "decimal", "fractions"} & set(run["after"])
