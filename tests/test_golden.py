"""Golden outputs: the sha256 of every deterministic file each command writes.

A refactor must leave the CLI's outputs byte-identical for fixed
configurations. These hashes pin ``summary.txt`` and every CSV of the ten
command shapes in ``test_cli.COMMANDS`` (``config_echo.txt`` echoes the
output path, so it is left out). They were recorded on a 2-vCPU Intel Xeon
(KVM) box with Python 3.11.7, numpy 2.4.6 and OpenBLAS 0.3.31. They do not
depend on the scipy version, since the program does not use scipy: its
normal CDF is 0.5 erfc from the platform libm, and its inverse is a port
of scipy's Cephes code, which ``test_normal.py`` ties to scipy bit for
bit. They pin the draw of ``simulate_null_block``: SFC64 streams per
chunk and per-stage increments through the K x K Cholesky factor.
Another numpy, BLAS or platform libm may round differently and move
them. A change that alters numbers on purpose records new hashes and
says why.
"""

import hashlib

import pytest

from test_cli import COMMANDS, run_cli, write

GOLDEN = {
    "design-gs": {
        "boundaries.csv": "df9f740f50463924df95c6adde5e5d39792019402e6de75fa8e25b6eeedb3823",
        "summary.txt": "c70fbdfe35ae8f4dafc261bee0f15e6211178ae077db4110f832ee90e9a51eea",
    },
    "design-dtl": {
        "cp_lookup.csv": "b018c13b682bb58bcd2f815f6d047b0f4759bb3ed43efe2d5a664a8e0f1d3f0a",
        "summary.txt": "a59c04ad11cceb68862b3ab77c142c975f5aadb3f9133283baa5c04996bde4bc",
    },
    "design-gs-k3-m2": {
        "boundaries.csv": "b4223c14192896e183e068402b70040267053b3e10f16ad9f74429b0c44a986d",
        "summary.txt": "ae9a0218d6b31a3b749b79bf05b40810a10670798a93a91e1ade5752fc9d0ae8",
    },
    "design-dtl-k4-m2": {
        "cp_lookup.csv": "0cdc382eb1cb0c8e1a5a05b48019c982e99f2151a33d115812733db715919afb",
        "summary.txt": "88ff1d23d9dd1a7ff5d0badb759e52ebb7bcd182f406fbd40ff6f8624e94d6ac",
    },
    "grid-gs-composite": {
        "grid.csv": "5ff9568bf20f5fdb32ad7c9199106627efd203aab86317e2758ae094ce3616a1",
        "summary.txt": "053d3f76790c5d22b24aa377c7a6c64fc3e26cb0238c381089e92042674acb48",
    },
    "grid-dtl-single-stage": {
        "grid.csv": "10398ec1e53e4b82b9154479b13fb7869b1f1155b28395a0cced7bb72e9e6e32",
        "summary.txt": "27b5f540499a1b65f6449ca446f97d9f156a203ebe383f753933c8d07ffcdcd3",
    },
    "sweep-three-rho": {
        "summary.txt": "f30e67465c75e73e5e4140dca378ccbdfaada17a362961a04f5a5d81bc868486",
        "sweep.csv": "b89c36303965284f6d81aa630950a02d4bc58f56d5755d3b61f846ff9e24c8f7",
    },
    "sensitivity-2x2": {
        "sensitivity.csv": "a18454cc9e495ae1ac4c5967a79ff7499e8d5d473c0e98eaf38c74aa5527ba2d",
        "summary.txt": "497ff3224c470839adb39845eee9fd3b472fbe7f9037c6435b298c94132f13b2",
    },
    "design-composite-k10": {
        "boundaries.csv": "b7343c9a69d9c731119dd3db8075ae4ffffb433cc9b5b2829d59440794423f4b",
        "summary.txt": "0dce917b1a7a175b4b18d8d74ff355b3faf234fc59c364f2448cf6d0d6a81fdf",
    },
    "design-gs-k10-m5-j5": {
        "boundaries.csv": "ef5cc863c5f3c3c84734225d75e467fda6e11cbc199817a4647a3700235e5e3e",
        "summary.txt": "90fb50bbcc6fdfee2e39767792a155926e0b7cd4ef1569530bc5d549a0214683",
    },
}


def output_hashes(out) -> dict:
    """File name -> sha256 of every file in out but config_echo.txt."""
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in out.iterdir() if path.name != "config_echo.txt"}


def test_every_command_shape_is_pinned():
    assert set(GOLDEN) == set(COMMANDS)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", list(COMMANDS))
def test_outputs_match_golden_hashes(tmp_path, name, threads):
    command, text, _ = COMMANDS[name]
    out = tmp_path / "out"
    assert run_cli(command + ["--config", str(write(tmp_path, text)),
                              "--threads", str(threads), "--out", str(out)]) == 0
    assert output_hashes(out) == GOLDEN[name]
