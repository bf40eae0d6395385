"""Golden outputs: the sha256 of every deterministic file each command writes.

A refactor must leave the CLI's outputs byte-identical for fixed
configurations. These hashes pin ``summary.txt`` and every CSV of the ten
command shapes in ``test_cli.COMMANDS`` (``config_echo.txt`` echoes the
output path, so it is left out). They were recorded on a 2-vCPU Intel Xeon
(KVM) box with Python 3.11.7, numpy 2.4.6 and OpenBLAS 0.3.31. They do not
depend on the scipy version, since the program does not use scipy (its
normal CDF and inverse are ports of scipy's Cephes code, which
``test_normal.py`` ties to scipy bit for bit). Another numpy, BLAS or
platform libm may round differently and move them. A change that alters
numbers on purpose records new hashes and says why.
"""

import hashlib

import pytest

from test_cli import COMMANDS, run_cli, write

GOLDEN = {
    "design-gs": {
        "boundaries.csv": "91285802d8b5fd706a03461999111dc51c4c15016c196dab906af04f095cd6bf",
        "summary.txt": "3ac8ce953ca26d050607df809deb94a803b457e927e7e941a146997ee3d5fbc4",
    },
    "design-dtl": {
        "cp_lookup.csv": "0c40d5546682c4fadebfbd87aa9833c0f4b8a64ccb55487da1a145ed6f492cf3",
        "summary.txt": "f5110a75d4f846c2c60f67ab3d47a8b6f07a3256dfa00de44ab395fbfc066419",
    },
    "design-gs-k3-m2": {
        "boundaries.csv": "a5135c6a6f67809dba162521ff4c428db2e4df3248fd63e011e228d30c7e775b",
        "summary.txt": "73a0b4ff61aff5919f824e72f47a1d042ab07d2e5fc71a8779a014c8da6d665d",
    },
    "design-dtl-k4-m2": {
        "cp_lookup.csv": "ef7b3d20f7ceb8a57ea5a5a9c9e7b03bafd482c8a935efe54dead89e154b9500",
        "summary.txt": "c10683cfa1844b8bf3a485c255608bd477c761440aaeaf00fa45cf9d9ae8442d",
    },
    "grid-gs-composite": {
        "grid.csv": "a5df55e4480b6562f85700d4202a472e3cdde8faf9c8ea9c9ebf5f58d548b7f1",
        "summary.txt": "15f53f285c471598218bb67cd199c0f47dc6866f8e9ca0ef555c77c0888d1398",
    },
    "grid-dtl-single-stage": {
        "grid.csv": "152298f967f26a77056715746cd26dc63e6b4b0cf75e1d083f66aefc180a6419",
        "summary.txt": "6da0d4d12c665091e89989388c9220ccc44d82da657e2237c37ac7b106f2a975",
    },
    "sweep-three-rho": {
        "summary.txt": "f30e67465c75e73e5e4140dca378ccbdfaada17a362961a04f5a5d81bc868486",
        "sweep.csv": "bd978ddc68e3ec8fc9dbd8b8638fcf27a2f6c6e9929f4bd2942328593acc9513",
    },
    "sensitivity-2x2": {
        "sensitivity.csv": "d4b471e871c1875541aec4f8ef45a87ac84a3a4fb890b4ba04f59593a84e61ee",
        "summary.txt": "497ff3224c470839adb39845eee9fd3b472fbe7f9037c6435b298c94132f13b2",
    },
    "design-composite-k10": {
        "boundaries.csv": "af9daa2f9cd46ca25f0f95a71560308a4ac3570a285a3a73851afc8f98b0ca03",
        "summary.txt": "924f2118c35f2ac0a5ce7985af95e5cc137a7fd41c98142c36dfb60e472fb4df",
    },
    "design-gs-k10-m5-j5": {
        "boundaries.csv": "6840662756ed00fcb53d84cc640c23d494dbfbb87f79b1118a6208cebd7bddb2",
        "summary.txt": "cd469a2d3c074fdc004e3dc0862fdc8c610e93758d44e47d5b10748b3dff877e",
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
