"""The output contract of the shipped configs: every CSV and manifest they
write matches, byte for byte, the files kept under ``tests/golden/``.  Four
sweeps on six and ten Chebyshev nodes, whose rows solve at up to 692 + 10
bits, are pinned the same way from configs held here."""
import json
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
    ("optimal_gauss4_box", ["optimal"]),
    ("optimal_gauss4_normal", ["optimal"]),
]


def chebyshev_sweeps(half: list, degree: int) -> dict:
    """Sweeps of the Gaussian kernel on Chebyshev points of the first kind,
    the positive ``half`` mirrored so the set is exactly symmetric in
    binary, over 13 log-spaced length scales in [1, 1e4], on [-1, 1] and
    under N(0, 1)."""
    points = [-x for x in reversed(half)] + half
    return {
        f"chebyshev{len(points)}_{name}_sweep": {
            "kernel": {"family": "gaussian"},
            "functional": functional,
            "points": points,
            "degree": degree,
            "ell_grid": {"min": 1.0, "max": 10000.0, "count": 13},
            "precision": "auto",
        }
        for name, functional in [
            ("box", {"kind": "lebesgue_box", "lower": -1.0, "upper": 1.0}),
            ("normal", {"kind": "gaussian_measure"}),
        ]
    }


# cos((2k + 1) pi / 20) and cos((2k + 1) pi / 12)
TEN_NODE_SWEEPS = chebyshev_sweeps(
    [0.15643446504023092, 0.4539904997395468, 0.7071067811865476, 0.8910065241883679, 0.9876883405951378], 9)
SIX_NODE_SWEEPS = chebyshev_sweeps([0.25881904510252074, 0.7071067811865476, 0.9659258262890683], 5)


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


def assert_sweep_matches_golden(config_dict, name, tmp_path):
    """The configs are written as JSON (which is YAML), so their hash in
    the manifest is fixed."""
    config = tmp_path / f"{name}.yaml"
    config.write_text(json.dumps(config_dict))
    assert_output_matches_golden(name, ["sweep"], tmp_path, config)


@pytest.mark.parametrize("name", sorted(TEN_NODE_SWEEPS))
def test_ten_node_sweep_matches_golden(name, tmp_path, capsys):
    """The rows at up to 692 bits."""
    assert_sweep_matches_golden(TEN_NODE_SWEEPS[name], name, tmp_path)


@pytest.mark.parametrize("name", sorted(SIX_NODE_SWEEPS))
def test_six_node_sweep_matches_golden(name, tmp_path, capsys):
    """The six-node sweeps of the benchmark, at up to 480 bits."""
    assert_sweep_matches_golden(SIX_NODE_SWEEPS[name], name, tmp_path)
