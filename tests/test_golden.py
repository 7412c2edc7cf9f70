"""Golden outputs: the CLI must write the same bytes for the built-in demos.

The digests were taken from the files the CLI wrote before its scenario
parsing and report assembly were restructured; any change to a report, CSV
or SVG byte shows up here.
"""

from __future__ import annotations

import hashlib

import pytest

from ehsched.cli import main

GOLDEN = {
    ("demo", "broadcast"): (
        "366fab11b019a87bc89d8d1a9c2345785f245a5c32f6b5d774b618eacc54730f",
        "7e63da2f95eee7b68ab9f51ac7f2bcbcdf2befa79823c56a3ea278500ff1a895",
        "b1937c47bf279c993f22c91d466111a0f5303fb5edf581583c0499c6ba643fbc",
    ),
    ("demo", "dying-battery"): (
        "8e919a438ea32d24caf551c107893d5d6ef813be6951e2429c24ff9008115873",
        "818b51d8ffc30fa7e9b15815c7f1c4017462c40d22972618fdf22aed9788c531",
        "cdf67734ea8dde6ba6563c841b3dc45c3a6ed133a25e023029fcefaf22a6b88b",
    ),
    ("demo", "leakage-counterexample"): (
        "7126d3f75c62e6c17f263d5f453d8475c4490582f8c9e79c85e15961517c2d49",
        "48be58016fba3d24886cffe3d8d511d000ee9c927b343db8de174d0f3b928cc7",
        "fa6ef8d879a4a939367f1c254a7c7ee1aaa0e0a556f194a885117b1b3cb6e5be",
    ),
    ("demo", "solar"): (
        "9236940b59ff461bf4e3108bc2cbbdc5e82cd6f645084e961d656372bfb8710b",
        "6e371816a733639835fb5af1042ed2213c4cf1f9ae85b7d7ea3b217fbfd864f3",
        "a68812367dc6598e4f4d8ba05e6d179f8b812d8ebc6466980758fddc050734f7",
    ),
    ("verify", "broadcast"): (
        "c59aec087b6126a8804f364637bb3f24c21bade771699715e0a1d381beddd5fb",
        "7e63da2f95eee7b68ab9f51ac7f2bcbcdf2befa79823c56a3ea278500ff1a895",
        "b1937c47bf279c993f22c91d466111a0f5303fb5edf581583c0499c6ba643fbc",
    ),
    ("verify", "dying-battery"): (
        "57c56bfa7874fb6f5fbda452f9b48578c04cfdf396087b76c3d14d4e9bbc87f6",
        "818b51d8ffc30fa7e9b15815c7f1c4017462c40d22972618fdf22aed9788c531",
        "cdf67734ea8dde6ba6563c841b3dc45c3a6ed133a25e023029fcefaf22a6b88b",
    ),
    ("verify", "leakage-counterexample"): (
        "a8f335e0c2afbc33803d26e8214a0ca118b6d19e488bba56ada22a2648cd4f22",
        "48be58016fba3d24886cffe3d8d511d000ee9c927b343db8de174d0f3b928cc7",
        "fa6ef8d879a4a939367f1c254a7c7ee1aaa0e0a556f194a885117b1b3cb6e5be",
    ),
}


@pytest.mark.parametrize("command,name", sorted(GOLDEN))
def test_golden_outputs(tmp_path, command, name):
    grid = ["--grid", "400x400"] if command == "verify" else []
    assert main([command, name, *grid, "--out", str(tmp_path)]) == 0
    digests = tuple(
        hashlib.sha256((tmp_path / f"{name}.{suffix}").read_bytes()).hexdigest()
        for suffix in ("report.json", "schedule.csv", "plot.svg")
    )
    assert digests == GOLDEN[command, name]
