"""The output contract of the shipped configs: every CSV and manifest they
write matches, byte for byte, the files kept under ``tests/golden/``."""
from pathlib import Path

import pytest
import yaml

from flatlimit.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

RUNS = [
    ("simpson_sweep", ["sweep"]),
    ("normal_sweep", ["sweep"]),
    ("gauss_legendre", ["gauss"]),
    ("optimal_legendre", ["optimal", "--seed", "0"]),
]


def assert_output_matches_golden(name, argv, tmp_path):
    out = tmp_path / name
    config = str(ROOT / "configs" / f"{name}.yaml")
    assert main([argv[0], "--config", config, "--out", str(out), *argv[1:]]) == 0
    expected = sorted(p.name for p in (GOLDEN / name).iterdir())
    assert sorted(p.name for p in out.iterdir()) == expected
    for file_name in expected:
        assert (out / file_name).read_bytes() == (GOLDEN / name / file_name).read_bytes(), file_name


@pytest.mark.parametrize("name,argv", RUNS, ids=[name for name, _ in RUNS])
def test_config_output_matches_golden(name, argv, tmp_path, capsys):
    assert_output_matches_golden(name, argv, tmp_path)


@pytest.mark.parametrize("name,argv", [RUNS[0], RUNS[3]], ids=[RUNS[0][0], RUNS[3][0]])
def test_pure_python_yaml_output_matches_golden(name, argv, tmp_path, capsys, monkeypatch):
    """Without libyaml the configs are read and the manifests written by
    PyYAML's pure-Python loader and dumper, to the same bytes."""
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    monkeypatch.delattr(yaml, "CSafeDumper", raising=False)
    assert_output_matches_golden(name, argv, tmp_path)
