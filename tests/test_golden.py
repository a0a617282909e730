"""The output contract of the shipped configs: every CSV and manifest they
write matches, byte for byte, the files kept under ``tests/golden/``."""
from pathlib import Path

import pytest

from flatlimit.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

RUNS = [
    ("simpson_sweep", ["sweep"]),
    ("normal_sweep", ["sweep"]),
    ("gauss_legendre", ["gauss"]),
    ("optimal_legendre", ["optimal", "--seed", "0"]),
]


@pytest.mark.parametrize("name,argv", RUNS, ids=[name for name, _ in RUNS])
def test_config_output_matches_golden(name, argv, tmp_path, capsys):
    out = tmp_path / name
    config = str(ROOT / "configs" / f"{name}.yaml")
    assert main([argv[0], "--config", config, "--out", str(out), *argv[1:]]) == 0
    expected = sorted(p.name for p in (GOLDEN / name).iterdir())
    assert sorted(p.name for p in out.iterdir()) == expected
    for file_name in expected:
        assert (out / file_name).read_bytes() == (GOLDEN / name / file_name).read_bytes(), file_name
