"""The YAML the command line reads and writes: configs in, manifests out.

:func:`load` reads block mappings and sequences, flow collections (so
JSON), plain and quoted scalars and comments, to the values PyYAML's safe
loader gives: plain scalars resolve by YAML 1.1 (null, bool with yes/no/
on/off, int with 0x, 0b, octal, _ and base 60, float), and a plain
exponent such as 1e-3 reads as a float, as in YAML 1.2.  A duplicate key
keeps its last value.  Anchors, aliases, tags, block scalars, directives,
document markers, complex and merge keys, timestamps and tabs are a
:class:`ConfigError` naming the line and column.  :func:`dump` writes a
manifest as ``yaml.dump(manifest, sort_keys=False)`` does, byte for byte
while its strings are printable ASCII; another string is double-quoted.
The rules are PyYAML's (MIT license), from its resolver, constructor,
representer and emitter.
"""
import math
import re

from .errors import ConfigError

# PyYAML's implicit resolvers: words, then patterns (which no word matches);
# a config alone reads the YAML 1.2 exponent float, 1e400 or 1e-3
_WORDS = {**dict.fromkeys("yes Yes YES no No NO true True TRUE false False FALSE on On ON off Off OFF".split(),
                         "bool"),
          **dict.fromkeys("~ null Null NULL".split(), "null"), "": "null", "<<": "merge key", "=": "value key"}
_PATTERNS = [(tag, re.compile(pattern)) for tag, pattern in [
    ("float", r"[-+]?(?:[0-9][0-9_]*\.[0-9_]*(?:[eE][-+][0-9]+)?|[0-9][0-9_]*(?::[0-5]?[0-9])+\.[0-9_]*"
              r"|\.(?:inf|Inf|INF))|\.[0-9][0-9_]*(?:[eE][-+][0-9]+)?|\.(?:nan|NaN|NAN)"),
    ("int", r"[-+]?(?:0b[0-1_]+|0[0-7_]+|0|[1-9][0-9_]*|0x[0-9a-fA-F_]+|[1-9][0-9_]*(?::[0-5]?[0-9])+)"),
    ("timestamp", r"[0-9]{4}-(?:[0-9]{2}-[0-9]{2}|[0-9][0-9]?-[0-9][0-9]?(?:[Tt]|[ \t]+)[0-9][0-9]?:[0-9]{2}:[0-9]{2}"
                  r"(?:\.[0-9]*)?(?:[ \t]*(?:Z|[-+][0-9][0-9]?(?::[0-9]{2})?))?)"),
    ("exponent", r"[-+]?[0-9][0-9_]*[eE][-+]?[0-9]+"),
]]
_BOOLS = {"yes": True, "no": False, "true": True, "false": False, "on": True, "off": False}
_ESCAPES = dict(zip("0abtnvfre \"\\/N_LP", "\0\a\b\t\n\v\f\r\x1b \"\\/\x85\xa0\u2028\u2029"))
_UNSUPPORTED = dict(zip("&*!|>%@`", ["anchors", "aliases", "tags", "block scalars", "block scalars",
                                     "directives", "reserved indicators", "reserved indicators"]))
# what a config cannot hold: tab, carriage return and the other C0 and C1
# controls, the Unicode line breaks, surrogates, BOM and non-characters
_BAD_CHAR = re.compile("[\x00-\x09\x0b-\x1f\x7f-\x9f\u2028\u2029\ud800-\udfff\ufeff\ufffe\uffff]")
_WS = " \n\0"
_SPACES, _SKIP = re.compile(" *"), re.compile(r"(?:[ \n]+|#[^\n]*)*")
_MARKER = re.compile(r"(?:---|\.\.\.)(?=[ \n]|\Z)")
# a run of a plain scalar between spaces: ': ' ends it, and in flow context ',[]{}' too
_BLOCK_RUN = re.compile(r"(?:[^ \n:]|:(?=[^ \n]))+")
_FLOW_RUN = re.compile(r"(?:[^ \n:,?\[\]{}]|:(?=[^ \n,\[\]{}]))+")
_GAP = re.compile(r"( *)(\n[ \n]*)?")
_SINGLE, _DOUBLE = re.compile(r"'((?:[^']|'')*)'"), re.compile(r'"((?:[^"\\]|\\.)*)"', re.S)
# a line break with the spaces around it, or an escape: \xXX, \uXXXX, \UXXXXXXXX, \ + break, \c
_FOLD = re.compile(r" *\n([ \n]*)")
_DOUBLE_PART = re.compile(r"\\(?:x([0-9a-fA-F]{2})|u([0-9a-fA-F]{4})|U([0-9a-fA-F]{8})|\n([ \n]*)|(.))|"
                          r" *\n([ \n]*)", re.S)


def _resolve(text: str, exponent: bool) -> str:
    """The tag PyYAML gives the plain scalar ``text``; ``exponent`` adds the
    config's resolver of 1e400 and 1e-3 as floats."""
    if text in _WORDS:
        return _WORDS[text]
    for tag, pattern in _PATTERNS:
        if (exponent or tag != "exponent") and pattern.fullmatch(text):
            return tag
    return "str"


def _construct(tag: str, text: str):
    """The value of a plain scalar, as PyYAML's SafeConstructor builds it;
    ValueError for 0x_ or 0b_, which have no digits."""
    if tag == "null":
        return None
    if tag == "bool":
        return _BOOLS[text.lower()]
    text = text.replace("_", "").lower()
    sign, digits = (-1 if text[0] == "-" else 1), text.lstrip("+-")
    if tag == "int" and digits != "0" and digits[0] == "0":
        return sign * (int(digits[2:], {"b": 2, "x": 16}[digits[1]]) if digits[1] in "bx" else int(digits, 8))
    if digits in (".inf", ".nan"):
        return math.nan if digits == ".nan" else sign * math.inf
    number = int if tag == "int" else float
    if ":" not in digits:
        return sign * number(digits)
    total, scale = number(0), 1
    for part in reversed(digits.split(":")):  # base 60, summed from the last part up
        total += number(part) * scale
        scale *= 60
    return sign * total


class _Reader:
    """A recursive-descent parser over ``s`` from position ``i``; an
    ``indent`` is the column of the enclosing block collection."""

    def __init__(self, text: str) -> None:
        self.s, self.i = text, 0

    def error(self, what: str, at=None) -> ConfigError:
        at = self.i if at is None else at
        line, column = self.s.count("\n", 0, at) + 1, at - self.s.rfind("\n", 0, at)
        return ConfigError(f"config file is not valid YAML: {what} at line {line}, column {column}")

    def peek(self, k: int = 0) -> str:
        return self.s[self.i + k:self.i + k + 1] or "\0"

    def column(self) -> int:
        return self.i - self.s.rfind("\n", 0, self.i) - 1

    def marker(self) -> bool:
        at_line_start = self.i == 0 or self.s[self.i - 1] == "\n"
        return at_line_start and _MARKER.match(self.s, self.i) is not None

    def spaces(self, pattern=_SPACES) -> None:
        self.i = pattern.match(self.s, self.i).end()

    def skip(self) -> None:
        """Past spaces, line breaks and comments."""
        self.spaces(_SKIP)
        if self.marker():
            raise self.error("a document marker; a config is one document")

    def at_entry(self) -> bool:
        return self.peek() == "-" and self.peek(1) in _WS

    def end_of_line(self) -> None:
        self.spaces()
        if self.peek() not in "#\n\0":
            raise self.error("mapping values are not allowed here" if self.peek() == ":" else
                             f"unexpected {self.peek()!r} after a value")

    def block(self, indent: int):
        """The block node here, inside a collection at column ``indent``."""
        column = self.column()
        if self.at_entry():
            return self.collection(column, [], None)
        node, is_key = self.key(indent)
        if is_key:
            return self.collection(column, {}, node)
        self.end_of_line()
        return node

    def key(self, indent: int):
        """The node here, and whether a ': ' after it makes it a key."""
        start = self.i
        node = self.node(indent, flow=False)
        self.spaces()
        if self.peek() != ":" or self.peek(1) not in _WS:
            return node, False
        if isinstance(node, (list, dict)) or "\n" in self.s[start:self.i]:
            raise self.error("a complex key; a key is a scalar on one line", start)
        return node, True

    def collection(self, column: int, result, key):
        """The block sequence (``result`` a list) or mapping (a dict, with
        its first ``key`` read) whose entries start at ``column``.  A
        mapping's value may be a sequence at the mapping's own column."""
        sequence = isinstance(result, list)
        while True:
            self.i += 1  # past the '-' or the ':'
            self.spaces()
            if self.peek() not in "#\n\0":
                value = self.block(column) if sequence else self.node(column, flow=False)
                if not sequence:
                    self.end_of_line()
            else:
                self.skip()
                here = self.column()
                nested = self.i < len(self.s) and (here > column or not sequence and here == column and self.at_entry())
                value = self.block(column) if nested else None
            if sequence:
                result.append(value)
            else:
                result[key] = value
            self.skip()
            if self.i == len(self.s) or self.column() < column:
                return result
            if self.column() > column:
                raise self.error("bad indentation")
            if sequence and not self.at_entry():
                return result  # the end of a sequence under a key: the mapping goes on
            if not sequence:
                at = self.i
                key, is_key = self.key(column)
                if not is_key:
                    raise self.error("expected a key followed by ': '", at)

    def node(self, indent: int, flow: bool):
        """A scalar or a flow collection."""
        ch, at = self.peek(), self.i
        if ch in "[{":
            return self.flow(ch)
        if ch in "'\"":
            return self.quoted(ch == '"')
        if ch in _UNSUPPORTED:
            raise self.error(f"{_UNSUPPORTED[ch]} are not supported")
        if ch in "\0 \n,[]{}#" or (ch in "-?:" and (self.peek(1) in _WS or flow and ch != "-")):
            raise self.error("a complex key" if ch == "?" else
                             "unexpected end of the document" if ch == "\0" else f"unexpected {ch!r}")
        text = self.plain(indent, flow)
        tag = _resolve(text, exponent=True)
        if tag in ("merge key", "value key", "timestamp"):
            raise self.error(f"{text!r} reads as a {tag}, which a config cannot hold", at)
        try:
            return text if tag == "str" else _construct(tag, text)
        except ValueError:
            raise self.error(f"{text!r} is an int with no digits", at) from None

    def flow(self, opening: str):
        """A flow sequence or mapping, JSON's arrays and objects among them."""
        closing, start = "]" if opening == "[" else "}", self.i
        result = [] if opening == "[" else {}
        self.i += 1
        while True:
            self.skip()
            if self.peek() == closing:
                self.i += 1
                return result
            at = self.i
            item = self.node(-1, flow=True)
            self.skip()
            if isinstance(result, list):
                result.append(item)
            elif isinstance(item, (list, dict)) or self.peek() != ":":
                raise self.error("expected a scalar key and a ':'", at)
            else:
                self.i += 1
                self.skip()
                result[item] = None if self.peek() in ",}" else self.node(-1, flow=True)
                self.skip()
            if self.peek() == ",":
                self.i += 1
            elif self.peek() != closing:
                raise self.error("an unclosed flow collection", start) if self.peek() == "\0" else \
                    self.error(f"expected ',' or '{closing}'")

    def plain(self, indent: int, flow: bool) -> str:
        """A plain scalar, folded over lines indented past ``indent`` as
        PyYAML's scan_plain folds it; the position is left after its end."""
        run, chunks, gap, end = _FLOW_RUN if flow else _BLOCK_RUN, [], "", self.i
        while True:
            found = run.match(self.s, self.i)
            if not found:
                break
            chunks += [gap, found.group()]
            end = found.end()
            after = _GAP.match(self.s, end)
            (spaces, breaks), self.i = after.groups(), after.end()
            if not (spaces or breaks) or self.peek() == "#":
                break
            if breaks:
                if self.marker() or (not flow and self.column() <= indent):
                    break
                gap = "\n" * (breaks.count("\n") - 1) or " "
            else:
                gap = spaces
        self.i = end
        return "".join(chunks)

    def quoted(self, double: bool) -> str:
        """A single- or double-quoted scalar, folded and unescaped as
        PyYAML's scan_flow_scalar does it."""
        start = self.i
        found = (_DOUBLE if double else _SINGLE).match(self.s, start)
        if not found:
            raise self.error("an unclosed quoted scalar")
        body, offset = found.group(1), start + 1
        self.i = found.end()
        if "\n" not in body and "\\" not in body and "''" not in body:
            return body
        marker = re.search(r"\n(?:---|\.\.\.)[ \n]", body)
        if marker:
            raise self.error("a document marker inside a quoted scalar", offset + marker.start() + 1)
        if not double:
            return _FOLD.sub(lambda m: "\n" * m.group(1).count("\n") or " ", body).replace("''", "'")

        def part(m):
            hex_digits = m.group(1) or m.group(2) or m.group(3)
            if hex_digits and int(hex_digits, 16) <= 0x10FFFF:
                return chr(int(hex_digits, 16))
            if m.group(4) is not None:  # an escaped line break folds to nothing
                return "\n" * m.group(4).count("\n")
            if m.group(6) is not None:
                return "\n" * m.group(6).count("\n") or " "
            if m.group(5) in _ESCAPES:
                return _ESCAPES[m.group(5)]
            raise self.error(f"an unknown escape {m.group()!r}", offset + m.start())
        return _DOUBLE_PART.sub(part, body)


def load(text: str):
    """The one YAML document in ``text``: a dict, list, str, int, float,
    bool or None; a :class:`ConfigError` outside the subset."""
    bad = _BAD_CHAR.search(text)
    if bad:
        what = "a tab" if bad.group() == "\t" else f"the character {bad.group()!r}"
        raise _Reader(text).error(f"{what}, which a config cannot hold", bad.start())
    reader = _Reader(text)
    reader.skip()
    value = None if reader.i == len(text) else reader.block(-1)
    reader.skip()
    if reader.i < len(text):
        raise reader.error("expected the end of the document")
    return value


_WIDTH = 80  # PyYAML's best_width: a lone space past it folds a scalar
_PRINTABLE_ASCII = re.compile("[\x20-\x7e]*")


def _float(x: float) -> str:
    """SafeRepresenter.represent_float: 1e-05 is written 1.0e-05."""
    if x != x or math.isinf(x):
        return ".nan" if x != x else ".inf" if x > 0 else "-.inf"
    text = repr(x).lower()
    return text.replace("e", ".0e", 1) if "." not in text and "e" in text else text


def _plain_allowed(text: str) -> bool:
    """Whether PyYAML writes the non-empty printable ASCII ``text`` plain in
    block context: analyze_scalar finds no indicator nor an edge space, and
    it does not read back as another type."""
    return not (
        text.startswith(("---", "...", " ")) or text.endswith((" ", ":"))
        or text[0] in "#,[]{}&*!|>'\"%@`" or (text[0] in "?:-" and text[1:2] in ("", " "))
        or ": " in text or " #" in text
    ) and _resolve(text, exponent=False) == "str"


def _scalar(lines: list, value, indent: int, fold: bool) -> None:
    """``value`` at the end of the last of ``lines``: a string plain or
    single-quoted, a lone space past column 80 folding it onto a new line
    indented by ``indent``, as PyYAML's write_plain and write_single_quoted
    do; double-quoted with escapes outside printable ASCII."""
    if value is None or isinstance(value, bool):
        lines[-1] += {None: "null", True: "true", False: "false"}[value]
    elif isinstance(value, (int, float)):
        lines[-1] += _float(value) if isinstance(value, float) else str(value)
    elif value == [] or value == {}:
        lines[-1] += "[]" if isinstance(value, list) else "{}"
    elif not isinstance(value, str):
        raise TypeError(f"cannot write {type(value).__name__} {value!r} to a manifest")
    elif not _PRINTABLE_ASCII.fullmatch(value):
        lines[-1] += '"' + "".join(
            c if " " <= c <= "~" and c not in '"\\' else "\\" + c if c in '"\\' else
            f"\\x{ord(c):02X}" if ord(c) < 0x100 else
            f"\\u{ord(c):04X}" if ord(c) < 0x10000 else f"\\U{ord(c):08X}" for c in value) + '"'
    else:
        quote = "" if value and _plain_allowed(value) else "'"
        lines[-1] += quote
        parts = re.split("( +)", value)
        for n, part in enumerate(parts):
            if part == " " and fold and len(lines[-1]) > _WIDTH and parts[n - 1] and parts[n + 1]:
                lines.append(" " * indent)
            else:
                lines[-1] += part.replace("'", "''") if quote else part
        lines[-1] += quote


def _collection(lines: list, data, indent: int, inline: bool) -> None:
    """The non-empty dict or list ``data`` in block style at ``indent``;
    ``inline``: its first entry follows a '- ' on the last line."""
    mapping = isinstance(data, dict)
    for n, (key, value) in enumerate(data.items() if mapping else ((None, item) for item in data)):
        if n or not inline:
            lines.append(" " * indent)
        if mapping:
            if isinstance(key, str) and not 0 < len(key) < 128:
                raise ValueError(f"a manifest key has 1 to 127 characters, not {key!r}")
            _scalar(lines, key, indent, fold=False)
        lines[-1] += ":" if mapping else "-"
        if isinstance(value, (dict, list)) and value and mapping:
            # a list under a key is not indented, as PyYAML writes it
            _collection(lines, value, indent + 2 * isinstance(value, dict), False)
        elif isinstance(value, (dict, list)) and value:
            lines[-1] += " "
            _collection(lines, value, indent + 2, True)
        else:
            lines[-1] += " "
            _scalar(lines, value, indent + 2, fold=True)


def dump(manifest: dict) -> str:
    """``manifest`` as ``yaml.dump(manifest, sort_keys=False)`` writes it."""
    lines = [""]
    if manifest:
        _collection(lines, manifest, 0, True)
    else:
        lines[-1] = "{}"
    return "\n".join(lines) + "\n"
