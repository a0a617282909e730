"""The library's YAML reader and writer against PyYAML, their oracle.

Whatever the reader accepts it must read as PyYAML's safe loader does, with
the resolver that reads a plain exponent such as 1e-3 as a float, in both
PyYAML's libyaml and pure-Python classes; what the two YAML versions read
apart it refuses at its line and column.  The writer must give the bytes of
``yaml.dump(manifest, sort_keys=False)`` with either dumper."""
import json
import math
import random
import re
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st
from test_bench_configs import workloads
from test_cli import BAD_CONFIGS

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


def assert_reads_as_pyyaml(text: str, refused_too: bool = False) -> None:
    """``text`` reads as PyYAML reads it; with ``refused_too`` it may also
    be a :class:`ConfigError`."""
    try:
        ours = yamlio.load(text)
    except ConfigError:
        if refused_too:
            return
        raise
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


@pytest.mark.parametrize("name", BAD_CONFIGS, ids=list(BAD_CONFIGS))
def test_reader_reads_the_cli_test_configs_as_pyyaml(name):
    """The configs tests/test_cli.py writes with ``yaml.safe_dump`` to check
    the value rules, so that none of them exits 2 at the reader instead."""
    assert_reads_as_pyyaml(yaml.safe_dump(BAD_CONFIGS[name][1]))


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
    """Nested mappings and lists of str, int, float, bool and None read as
    PyYAML reads them as ``json.dumps`` writes them (NaN and Infinity
    included, which YAML reads as strings).  As ``yaml.safe_dump`` writes
    them in block and in flow style they read so or are refused: a long
    string is folded over lines, and some characters written as \\N or \\x
    escapes."""
    assert_reads_as_pyyaml(yaml.safe_dump(config, default_flow_style=False), refused_too=True)
    assert_reads_as_pyyaml(yaml.safe_dump(config, default_flow_style=True), refused_too=True)
    assert_reads_as_pyyaml(json.dumps(config))


@pytest.mark.parametrize("text", [
    "a: 0\nb: -17\nc: +5\nd: 1000\ne: -0\nf: 123456789012345678901234567890\n",
    "c: ~\nd: NULL\ne:\nf: y\ng: True\nh: FALSE\ni: null\nj: n\n",
    "a: .inf\nb: -.Inf\nc: .NaN\nd: 1e400\ne: 1e2\nf: '1e2'\ng: \"1e2\"\ni: 1.5e+5\nj: +.INF\nk: 01.5\n"
    "l: .5\nm: 1.\nn: -0.0\no: 1E-3\np: 1.e+3\n",
    "a: '0x1F'\nb: \"yes\"\nc: '1_000'\nd: 0x\ne: 1.5.3\nf: a_b\ng: x:y\nh: NaN\ni: -Infinity\n",
    "'1': a str key\n'~': a quoted null key\n\"true\": a quoted bool key\n",
    "# a comment\nkernel:   # another\n  family: gaussian\npoints: [-1.0, 0.0, 1.0]  # the nodes\n",
    "points:\n- - 0.0\n  - 1.0\n- - 0.5\n  - 0.5\nlist:\n  - a: 1\n    b: [x, {c: d}]\n  -\n  - 'it''s'\n",
    "text: a plain scalar on one line\nquoted: 'one, two: ''three'''\n"
    "dq: \"x \\\" \\\\ \\/ \\b\\f\\n\\r\\t y\\u00e9\"\n",
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


def refusal(text: str, line: int, column: int, tmp_path, capsys) -> str:
    """The message of the config error that ``text`` is at ``line`` and
    ``column``, from :func:`yamlio.load` and through the CLI."""
    with pytest.raises(ConfigError, match=f"at line {line}, column {column}$"):
        yamlio.load(text)
    path = tmp_path / "c.yaml"
    path.write_text(text)
    assert main(["sweep", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config file: ")
    assert err.rstrip().endswith(f"at line {line}, column {column}")
    return err


@pytest.mark.parametrize("text,line,column", REJECTED.values(), ids=list(REJECTED))
def test_a_rejected_construct_is_a_config_error_at_its_line_and_column(text, line, column, tmp_path, capsys):
    refusal(text, line, column, tmp_path, capsys)


# what YAML 1.1 (PyYAML) and YAML 1.2 read apart, or what no config writes:
# (text, line, column, a piece of what the message says to write instead)
DECIMAL, FLOAT, DIGITS, ONE_LINE = ("write an int in decimal with no leading zero", "write a float with a digit",
                                    "without '_' or ':'", "write each scalar on one line")
REFUSED = {
    "yes": ("fit_window: yes\n", 1, 13, "write true or false"),
    "Off": ("a: 1\nb: Off\n", 2, 4, "write true or false"),
    "on_in_a_flow": ("[true, on]\n", 1, 8, "write true or false"),
    "hex": ("seed: 0x1F\n", 1, 7, DECIMAL),
    "leading_zero": ("seed: 010\n", 1, 7, DECIMAL),
    "leading_zero_negative": ("a: -017\n", 1, 4, DECIMAL),
    "leading_zero_not_octal": ("a: 08\n", 1, 4, DECIMAL),
    "octal_of_yaml_1_2": ("a: 0o17\n", 1, 4, DECIMAL),
    "binary": ("a: +0b101\n", 1, 4, DECIMAL),
    "underscore_int": ("a: 1_000\n", 1, 4, DIGITS),
    "base_60_int": ("a: 1:30\n", 1, 4, DIGITS),
    "base_60_float": ("a: 1:30.5\n", 1, 4, DIGITS),
    "underscore_float": ("a: 1_0.5\n", 1, 4, DIGITS),
    "unsigned_exponent_after_a_point": ("ell_grid:\n  min: 1.0\n  max: 1.5e4\n", 3, 8, FLOAT),
    "exponent_1_5e5": ("a: 1.5e5\n", 1, 4, FLOAT),
    "signed_point_first": ("a: -.5\n", 1, 4, FLOAT),
    "duplicate_key": ("precision: auto\nprecision: 64\n", 2, 1, "the first is at line 1, column 1"),
    "duplicate_nested_key": ("a:\n  b: 1\n  c: 2\n  b: 3\n", 4, 3, "the first is at line 2, column 3"),
    "duplicate_flow_key": ('{"a": 1, "a": 2}', 1, 10, "the first is at line 1, column 2"),
    # a non-string key next to a misspelt one once hid it behind a TypeError of sorting the keys
    "int_key": ("kernel:\n  family: gaussian\n1: x\nzz: y\n", 3, 1, "not as a string (quote it)"),
    "null_key": ("a: 1\n~: x\n", 2, 1, "not as a string (quote it)"),
    "bool_key": ("true: x\n", 1, 1, "not as a string (quote it)"),
    "float_key": ("1.5: x\n", 1, 1, "not as a string (quote it)"),
    "flow_int_key": ("{a: 1, 2: b}\n", 1, 8, "not as a string (quote it)"),
    "folded_plain": ("text: a plain scalar\n  folded over\n", 1, 7, ONE_LINE),
    "folded_plain_in_a_flow": ("[a plain\n scalar]\n", 1, 2, ONE_LINE),
    "folded_single_quoted": ("quoted: 'one\n  two'\n", 1, 9, ONE_LINE),
    "folded_double_quoted": ('dq: "one\n  two"\n', 1, 5, ONE_LINE),
    "escaped_line_break": ('dq: "x\\\n  y"\n', 1, 5, ONE_LINE),
    "colon_before_a_flow_indicator": ("{a:}\n", 1, 3, "write ': '"),
    **{f"escape_{name}": (f'dq: "ab\\{escape}"\n', 1, 8, "write JSON's")
       for name, escape in [("x", "x41"), ("U", "U0001F600"), ("N", "N"), ("_", "_"), ("L", "L"), ("P", "P"),
                            ("e", "e"), ("a", "a"), ("v", "v"), ("0", "0"), ("space", " "), ("u_short", "u00e")]},
}


@pytest.mark.parametrize("text,line,column,hint", REFUSED.values(), ids=list(REFUSED))
def test_a_refused_form_names_its_line_and_column_and_what_to_write(text, line, column, hint, tmp_path, capsys):
    assert hint in refusal(text, line, column, tmp_path, capsys)


# pieces of YAML, so that arbitrary text often comes close to a config
PIECES = ["- ", ": ", "\n", "  ", ",", "[", "]", "{", "}", "'", '"', "#", "\\", "\t", "---", "...", "? ", "&a",
          "*a", "!", "|", "~", "null", "yes", "0x", "1", "1e5", ".inf", "2001-12-14", "<<", "=", "a", "\\u00e9"]


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(PIECES) | st.characters(), max_size=30).map("".join))
def test_any_text_parses_or_is_a_config_error(text):
    """What parses reads as PyYAML reads it."""
    assert_reads_as_pyyaml(text, refused_too=True)
