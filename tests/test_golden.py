"""Golden outputs: the CLI must write the same bytes for the built-in demos
and for a few scenario files.

The digests were taken from the files the CLI wrote before its scenario
parsing and report assembly were restructured, and (for the leakage
scenario files) before the leakage replay was rewritten, and (for the two
300-packet trains) before the JSON report writer was replaced; any change to
a report, CSV or SVG byte shows up here.  The three ``verify`` reports were
taken again when ``verify`` moved from the grid DP and random rivals to the
dual bound for point-to-point and broadcast: only their ``verification``
blocks changed.  The three ``solve solar`` files were taken again when the
solar harvest curve moved from the trapezoid rule to its exact integral.  The
``verify leakage-counterexample`` report was taken again when the leakage
check moved from the two-grid DP to the carry DP, and again when it moved
from the carry DP to the drain-rate dual bound: both times only its
``verification`` block changed.  The four ``solve`` keys of the demos were
``("demo", name)`` until the ``demo`` command went: ``solve name`` writes
the same bytes, and their digests did not change.  The ``solve solar`` files
at 4096 and 8192 pieces were taken before the solar curve's scalar loop
became NumPy arrays.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from ehsched.cli import main


def _train(n: int, trend: float = 0.0) -> tuple[list[dict], float]:
    """``n`` packets from a fixed formula: gaps 0.3-2.0 and energies
    0.3-3.0 that cycle with coprime periods, energies drifting up by
    ``trend``; returns the packets and a deadline one unit after the last."""
    t, packets = 0.0, []
    for i in range(n):
        e = (0.3 + 2.7 * (i * 53 % 29) / 28) * (1.0 + trend * i / n)
        packets.append({"t": t, "e": e})
        t += 0.3 + 1.7 * (i * 37 % 17) / 16
    return packets, packets[-1]["t"] + 1.0


_CAPPED, _CAPPED_DEADLINE = _train(300)
_LEAKY, _LEAKY_DEADLINE = _train(300, trend=0.5)

#: scenario files the test writes before solving them; the unbounded one
#: reaches the replay's drain-after-the-last-arrival tail, the bounded one
#: its idle stretches with an empty battery; the two 300-packet trains give
#: reports of thousands of numbers, most of them repeated across curves
SCENARIOS = {
    "capped-train": {
        "mode": "p2p",
        "deadline": _CAPPED_DEADLINE,
        "harvest": {"packets": _CAPPED},
        "battery": {"constant": 3.5},
    },
    "leakage-train": {
        "mode": "leakage",
        "deadline": _LEAKY_DEADLINE,
        "harvest": {"packets": _LEAKY},
        "epsilon": 0.95,
    },
    "leakage-unbounded": {
        "mode": "leakage",
        "deadline": "unbounded",
        "harvest": {"packets": [{"t": 0, "e": 3}, {"t": 2, "e": 1}, {"t": 4, "e": 6}]},
        "epsilon": 0.7,
    },
    "leakage-idle": {
        "mode": "leakage",
        "deadline": 20.0,
        "harvest": {"packets": [{"t": 0, "e": 1}, {"t": 5, "e": 1}, {"t": 10, "e": 2}]},
        "epsilon": 0.9,
    },
}

GOLDEN = {
    ("solve", "broadcast"): (
        "366fab11b019a87bc89d8d1a9c2345785f245a5c32f6b5d774b618eacc54730f",
        "7e63da2f95eee7b68ab9f51ac7f2bcbcdf2befa79823c56a3ea278500ff1a895",
        "b1937c47bf279c993f22c91d466111a0f5303fb5edf581583c0499c6ba643fbc",
    ),
    ("solve", "dying-battery"): (
        "8e919a438ea32d24caf551c107893d5d6ef813be6951e2429c24ff9008115873",
        "818b51d8ffc30fa7e9b15815c7f1c4017462c40d22972618fdf22aed9788c531",
        "cdf67734ea8dde6ba6563c841b3dc45c3a6ed133a25e023029fcefaf22a6b88b",
    ),
    ("solve", "leakage-counterexample"): (
        "7126d3f75c62e6c17f263d5f453d8475c4490582f8c9e79c85e15961517c2d49",
        "48be58016fba3d24886cffe3d8d511d000ee9c927b343db8de174d0f3b928cc7",
        "fa6ef8d879a4a939367f1c254a7c7ee1aaa0e0a556f194a885117b1b3cb6e5be",
    ),
    ("solve", "solar"): (
        "3f7de4e53302235ef3d06d6886496b96f8195e335544056846b3d3112d9d787e",
        "14d64afe9902a542d360ada2cf34ad9d51f155aa244fec0b978bf1335869f0d4",
        "516fb075ac226d2c286302db990baa50a4d7e8a3820264176149d69e25aef351",
    ),
    ("solve", "capped-train"): (
        "dd91c91886f1043175f8ec6a70c4d6c85af84918d36a1e3e2bcd7aef918e9c76",
        "cf87997b5299aa4fa7796f30d9c3f54b2ca2f2316d185adc829387ee3ee318c8",
        "011d7feb8c0860791bad6e5929dd7ed66903feeae9e9d1407f37debb6647a54d",
    ),
    ("solve", "leakage-idle"): (
        "563bb351269da5a65669c8fcca1da8741c41b8523a3f295a414860af24a51a78",
        "5d5778b5fa1dbcbf421b978b8821cf94f31b5c5843a7d9d952940d69bfe4f870",
        "1e6caf8d511ba13b521e3a352bf79f051efa0f167e9da8d6f5fbc2274ff9bce4",
    ),
    ("solve", "leakage-train"): (
        "8a1db03a10ee83067ed8a58145c5e65414ca3c6f2554a7a86122702ebe2fa1df",
        "6855642040c0f15a5c70b0682992e289d19a937c0ed03154235cc5456930000c",
        "d85df5d8bca06dd707763e53bef6848be0daaf762b953af79668aa6af14033a3",
    ),
    ("solve", "leakage-unbounded"): (
        "75804b7b69bb50c29196f677fb67428461b7c2d370325db93bca6fccced9a40a",
        "6bae90e07098e27a0fed197dc6900e0e7b0a5a6d60370f1eb45d85fe827e2db6",
        "33232c44e13b28557db6398403a6435777bb01061ffb6ca0bd58d56b6da71540",
    ),
    ("verify", "broadcast"): (
        "23ce0b5afbcf88801a52e6a4920c8af1e9619f8dba924592a4885093277839e5",
        "7e63da2f95eee7b68ab9f51ac7f2bcbcdf2befa79823c56a3ea278500ff1a895",
        "b1937c47bf279c993f22c91d466111a0f5303fb5edf581583c0499c6ba643fbc",
    ),
    ("verify", "dying-battery"): (
        "efb43f1f1ba9f787070489be5566e8475cb559b35c4c4d2d155ada4c5aa07785",
        "818b51d8ffc30fa7e9b15815c7f1c4017462c40d22972618fdf22aed9788c531",
        "cdf67734ea8dde6ba6563c841b3dc45c3a6ed133a25e023029fcefaf22a6b88b",
    ),
    ("verify", "leakage-counterexample"): (
        "6eb35ee284db233925c5029eab123b45f32d060320a4ae32b85320be302e878b",
        "48be58016fba3d24886cffe3d8d511d000ee9c927b343db8de174d0f3b928cc7",
        "fa6ef8d879a4a939367f1c254a7c7ee1aaa0e0a556f194a885117b1b3cb6e5be",
    ),
}


@pytest.mark.parametrize("command,name", sorted(GOLDEN))
def test_golden_outputs(tmp_path, command, name):
    scenario = name
    if name in SCENARIOS:
        scenario = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(SCENARIOS[name]))
    assert main([command, scenario, "--out", str(tmp_path)]) == 0
    assert _digests(tmp_path, name) == GOLDEN[command, name]


def _digests(out, name: str) -> tuple[str, ...]:
    """sha256 of the report, CSV and SVG the CLI wrote for ``name``."""
    return tuple(
        hashlib.sha256((out / f"{name}.{suffix}").read_bytes()).hexdigest()
        for suffix in ("report.json", "schedule.csv", "plot.svg")
    )


#: ``solve solar --resolution N``: the report, CSV and SVG digests
SOLAR_RESOLUTIONS = {
    4096: (
        "6753156b5bb73493e66453f387d4535ded72e55b68cd605e43e850c4bcb15c95",
        "68ef9c4d7a3a22620b7cadc7057a26b187c9f56f9164ea60bc99fd6c21b9bc80",
        "434fa73b98e509d07fc7dc0a6aff4576f34b66e0f476390ae667bb7268c5d318",
    ),
    8192: (
        "a03f980d06238bb09426d5428336b69a2c5062ff7a4214d014204a13ba54858c",
        "09933afe059cb67a4443a9f5ad7cb7031e168708419fa7ab6f57ff201a5bf850",
        "66bef7e0fbd2c3edff7595f50666f72a16f455299544ef2bae21c3cb1c5b4b66",
    ),
}


@pytest.mark.parametrize("resolution", sorted(SOLAR_RESOLUTIONS))
def test_golden_solar_resolutions(tmp_path, resolution):
    argv = ["solve", "solar", "--resolution", str(resolution), "--out", str(tmp_path)]
    assert main(argv) == 0
    assert _digests(tmp_path, "solar") == SOLAR_RESOLUTIONS[resolution]
