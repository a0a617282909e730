"""The library's YAML reader and writer against PyYAML, their oracle.

The reader must give what the CLI read through PyYAML's safe loader, with
the resolver that reads a plain exponent such as 1e-3 as a float, in both
PyYAML's libyaml and pure-Python classes; the writer must give the bytes
of ``yaml.dump(manifest, sort_keys=False)`` with either dumper."""
import json
import math
import random
import re
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st
from test_bench_configs import workloads

from flatlimit import ConfigError, yamlio
from flatlimit.cli import main
from flatlimit.experiments import config_digest

ROOT = Path(__file__).resolve().parent.parent
SHIPPED_CONFIGS = sorted((ROOT / "configs").glob("*.yaml"))
GOLDEN_MANIFESTS = sorted((ROOT / "tests" / "golden").glob("*/manifest.yaml"))
LOADER_BASES = [yaml.CSafeLoader, yaml.SafeLoader]
DUMPERS = [yaml.CSafeDumper, yaml.SafeDumper]


def exponent_loader(base: type) -> type:
    """``base`` with the resolver the CLI added to PyYAML's safe loader: a
    plain 1e400 or 1e-3 is a float, as in YAML 1.2."""
    loader = type("Loader", (base,), {})
    loader.add_implicit_resolver(
        "tag:yaml.org,2002:float", re.compile(r"^[-+]?[0-9][0-9_]*[eE][-+]?[0-9]+$"), list("-+0123456789"))
    return loader


LOADERS = [exponent_loader(base) for base in LOADER_BASES]


def identical(a, b) -> bool:
    """Equal values of equal types all the way down, key order included;
    a NaN equals a NaN."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return list(a) == list(b) and all(identical(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(identical(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and math.isnan(a):
        return math.isnan(b)
    return a == b


def assert_reads_as_pyyaml(text: str) -> None:
    ours = yamlio.load(text)
    for loader in LOADERS:
        theirs = yaml.load(text, Loader=loader)
        assert identical(ours, theirs), (loader.__bases__, text, ours, theirs)
    if isinstance(ours, dict):
        assert digest(ours) == digest(theirs)


def digest(raw: dict) -> str:
    """The config digest, which json.dumps cannot sort keys such as '0'
    and 0E0 (the float 0.0) for."""
    try:
        return config_digest(raw)
    except TypeError as e:
        return str(e)


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=[p.stem for p in SHIPPED_CONFIGS])
def test_reader_reads_the_shipped_configs_as_pyyaml(path):
    assert_reads_as_pyyaml(path.read_text())


@pytest.mark.parametrize("workload", ["sweep_box", "sweep_normal", "optimize_box"])
def test_reader_reads_the_benchmark_configs_as_pyyaml(workload, monkeypatch):
    """The one-line JSON configs perfbench writes, a flow mapping with
    double-quoted keys."""
    for seed in range(3):
        for _, config in workloads(monkeypatch)[workload](random.Random(seed)):
            assert_reads_as_pyyaml(json.dumps(config))


BMP_TEXT = st.characters(max_codepoint=0xFFFF, blacklist_categories=("Cs",))
# a key PyYAML writes as a simple key: one line, 1 to 127 characters
KEYS = st.text(st.characters(max_codepoint=0xFFFF, blacklist_categories=("Cs", "Cc", "Zl", "Zp")),
               min_size=1, max_size=20)
CONFIG_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(BMP_TEXT, max_size=40)
CONFIGS = st.dictionaries(KEYS, st.recursive(
    CONFIG_SCALARS, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(KEYS, inner, max_size=4),
    max_leaves=20), max_size=6)


@settings(max_examples=300, deadline=None)
@given(CONFIGS)
def test_reader_reads_config_shaped_values_as_pyyaml(config):
    """Nested mappings and lists of str, int, float, bool and None, as
    ``yaml.safe_dump`` writes them in block and in flow style and as
    ``json.dumps`` writes them (NaN and Infinity included, which YAML
    reads as strings)."""
    assert_reads_as_pyyaml(yaml.safe_dump(config, default_flow_style=False))
    assert_reads_as_pyyaml(yaml.safe_dump(config, default_flow_style=True))
    assert_reads_as_pyyaml(json.dumps(config))


@pytest.mark.parametrize("text", [
    "a: 0x1F\nb: -017\nc: 1_000\nd: +0b101\ne: 1:30\nf: 1:30.5\ng: 0\nh: 08\n",
    "a: yes\nb: Off\nc: ~\nd: NULL\ne:\nf: y\n",
    "a: .inf\nb: -.Inf\nc: .NaN\nd: 1e400\ne: 1e2\nf: '1e2'\ng: \"1e2\"\nh: 1.5e5\ni: 1.5e+5\nj: 1_0.5\n",
    "a: 1\na: 2\nb: 3\n~: a null key\n1: an int key\n'1': a str key\n",
    "~: the first key null\n",
    "# a comment\nkernel:   # another\n  family: gaussian\npoints: [-1.0, 0.0, 1.0]  # the nodes\n",
    "points:\n- - 0.0\n  - 1.0\n- - 0.5\n  - 0.5\nlist:\n  - a: 1\n    b: [x, {c: d}]\n  -\n  - 'it''s'\n",
    "text: a plain scalar\n  folded over\n\n  three lines\nquoted: 'one\n  two'\ndq: \"x\\\n  y\\u00e9\\x41\"\n",
    '{"a":1, "b": [1, 2,], c: , "d": {}}',
])
def test_reader_resolves_scalars_as_pyyaml(text):
    assert_reads_as_pyyaml(text)


@pytest.mark.parametrize("path", GOLDEN_MANIFESTS, ids=[p.parent.name for p in GOLDEN_MANIFESTS])
def test_writer_writes_the_golden_manifests(path):
    """Reading a golden manifest and writing it again gives its bytes,
    which both of PyYAML's dumpers give too."""
    golden = path.read_text()
    manifest = yaml.safe_load(golden)
    assert yamlio.dump(manifest) == golden
    for dumper in DUMPERS:
        assert yaml.dump(manifest, Dumper=dumper, sort_keys=False) == golden


ASCII_TEXT = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E), max_size=120)
ASCII_KEYS = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E), min_size=1, max_size=30)


def manifests(text, keys):
    scalars = st.none() | st.booleans() | st.integers() | st.floats() | text
    values = st.recursive(
        scalars, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(keys, inner, max_size=4),
        max_leaves=25)
    return st.dictionaries(keys, values, max_size=6)


@settings(max_examples=300, deadline=None)
@given(manifests(ASCII_TEXT, ASCII_KEYS))
def test_writer_matches_pyyaml_on_printable_ascii(manifest):
    """Every string the library writes is printable ASCII: error messages,
    labels and the search names.  Long ones fold at column 80."""
    ours = yamlio.dump(manifest)
    for dumper in DUMPERS:
        assert ours == yaml.dump(manifest, Dumper=dumper, sort_keys=False)


@settings(max_examples=300, deadline=None)
@given(manifests(st.text(max_size=40), KEYS))
def test_writer_output_reads_back_for_any_string(manifest):
    """Outside printable ASCII a string is written double-quoted with
    escapes, which PyYAML reads back to the same value."""
    assert identical(yaml.safe_load(yamlio.dump(manifest)), manifest)


def test_writer_rejects_what_it_cannot_write():
    with pytest.raises(TypeError):
        yamlio.dump({"a": object()})
    with pytest.raises(ValueError):
        yamlio.dump({"": 1})


REJECTED = {
    "anchor_and_alias": ("kernel: &k {family: gaussian}\nother: *k\n", 1, 9),
    "python_object_tag": ("kernel: !!python/object:os.system {}\n", 1, 9),
    "block_scalar": ("precision: |\n  auto\n", 1, 12),
    "second_document": ("precision: auto\n---\nprecision: auto\n", 2, 1),
    "tab_indentation": ("kernel:\n\tfamily: gaussian\n", 2, 1),
    "unclosed_flow": ("kernel: [unclosed", 1, 9),
    "complex_key": ("? kernel\n: x\n", 1, 1),
    "timestamp": ("seed: 2001-12-14\n", 1, 7),
    "merge_key": ("<<: {a: 1}\n", 1, 1),
    "bad_indentation": ("kernel:\n    family: gaussian\n  length_scale: 1.0\n", 3, 3),
    "no_hex_digits": ("seed: 0x_\n", 1, 7),
}


@pytest.mark.parametrize("text,line,column", REJECTED.values(), ids=list(REJECTED))
def test_a_rejected_construct_is_a_config_error_at_its_line_and_column(text, line, column, tmp_path, capsys):
    with pytest.raises(ConfigError, match=f"at line {line}, column {column}$"):
        yamlio.load(text)
    path = tmp_path / "c.yaml"
    path.write_text(text)
    assert main(["sweep", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config file is not valid YAML: ")
    assert f"at line {line}, column {column}" in err


# pieces of YAML, so that arbitrary text often comes close to a config
PIECES = ["- ", ": ", "\n", "  ", ",", "[", "]", "{", "}", "'", '"', "#", "\\", "\t", "---", "...", "? ", "&a",
          "*a", "!", "|", "~", "null", "yes", "0x", "1", "1e5", ".inf", "2001-12-14", "<<", "=", "a", "\\u00e9"]


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(PIECES) | st.characters(), max_size=30).map("".join))
def test_any_text_parses_or_is_a_config_error(text):
    try:
        yamlio.load(text)
    except ConfigError:
        pass
