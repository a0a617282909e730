"""The output contract of the shipped configs: every CSV and manifest they
write matches, byte for byte, the files kept under ``tests/golden/``.  Two
sweeps on ten nodes, whose rows solve at up to 692 + 10 bits, are pinned
the same way from configs held here."""
import json
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


# Chebyshev points of the first kind, cos((2k + 1) pi / 20), mirrored so
# the set is exactly symmetric in binary
_HALF = [0.15643446504023092, 0.4539904997395468, 0.7071067811865476, 0.8910065241883679, 0.9876883405951378]
CHEBYSHEV_10 = [-x for x in reversed(_HALF)] + _HALF
TEN_NODE_SWEEPS = {
    f"chebyshev10_{name}_sweep": {
        "kernel": {"family": "gaussian"},
        "functional": functional,
        "points": CHEBYSHEV_10,
        "degree": 9,
        "ell_grid": {"min": 1.0, "max": 10000.0, "count": 13},
        "precision": "auto",
    }
    for name, functional in [
        ("box", {"kind": "lebesgue_box", "lower": -1.0, "upper": 1.0}),
        ("normal", {"kind": "gaussian_measure"}),
    ]
}


def assert_output_matches_golden(name, argv, tmp_path, config=None):
    out = tmp_path / name
    if config is None:
        config = ROOT / "configs" / f"{name}.yaml"
    assert main([argv[0], "--config", str(config), "--out", str(out), *argv[1:]]) == 0
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


@pytest.mark.parametrize("name", sorted(TEN_NODE_SWEEPS))
def test_ten_node_sweep_matches_golden(name, tmp_path, capsys):
    """The rows at up to 692 bits: the configs are written as JSON (which
    is YAML), so their hash in the manifest is fixed."""
    config = tmp_path / f"{name}.yaml"
    config.write_text(json.dumps(TEN_NODE_SWEEPS[name]))
    assert_output_matches_golden(name, ["sweep"], tmp_path, config)
