"""The YAML the command line reads and writes: configs in, manifests out.

:func:`load` reads a config in the YAML that PyYAML's safe loader (YAML
1.1, with a plain exponent such as 1e-3 read as a float) and the YAML 1.2
core schema read alike: block and flow collections (so JSON), comments,
string keys given once, and one-line scalars, plain (null, ~, true, false,
decimal ints, floats such as 1.5, 1e-3 or 1.5e+4, .inf, .nan, or text),
single-quoted, or double-quoted with JSON's escapes.  Anything else is a
:class:`ConfigError` naming its line and column and what to write instead:
true or false for yes/no/on/off; decimal digits for an int with a leading
zero, 0x, 0b, 0o, _ or :, or a float with _ or :; 1.5e+4 or -0.5 for
1.5e4 or -.5; one line for a scalar folded over lines; a JSON escape for
another; a quoted key for one that is not a string; each key once.  Quote
a scalar meant as text.  Anchors, aliases, tags, block scalars, directives,
document markers, complex and merge keys, timestamps and tabs are refused
too.  :func:`dump` writes a manifest as ``yaml.dump(manifest,
sort_keys=False)`` does, byte for byte while its strings are printable
ASCII; another string is double-quoted.  The rules are PyYAML's (MIT
license), from its resolver, constructor, representer and emitter.
"""
import math
import re

from .errors import ConfigError

# PyYAML's implicit resolvers: words, then patterns (which no word matches);
# the last pattern is the config's own, which reads 1e400 or 1e-3 as a float
_WORDS = {**dict.fromkeys("yes Yes YES no No NO true True TRUE false False FALSE on On ON off Off OFF".split(),
                         "bool"),
          **dict.fromkeys("~ null Null NULL".split(), "null"), "": "null", "<<": "merge key", "=": "value key"}
_PATTERNS = [(tag, re.compile(pattern)) for tag, pattern in [
    ("float", r"[-+]?(?:[0-9][0-9_]*\.[0-9_]*(?:[eE][-+][0-9]+)?|[0-9][0-9_]*(?::[0-5]?[0-9])+\.[0-9_]*"
              r"|\.(?:inf|Inf|INF))|\.[0-9][0-9_]*(?:[eE][-+][0-9]+)?|\.(?:nan|NaN|NAN)"),
    ("int", r"[-+]?(?:0b[0-1_]+|0[0-7_]+|0|[1-9][0-9_]*|0x[0-9a-fA-F_]+|[1-9][0-9_]*(?::[0-5]?[0-9])+)"),
    ("timestamp", r"[0-9]{4}-(?:[0-9]{2}-[0-9]{2}|[0-9][0-9]?-[0-9][0-9]?(?:[Tt]|[ \t]+)[0-9][0-9]?:[0-9]{2}:[0-9]{2}"
                  r"(?:\.[0-9]*)?(?:[ \t]*(?:Z|[-+][0-9][0-9]?(?::[0-9]{2})?))?)"),
    ("float", r"[-+]?[0-9][0-9_]*[eE][-+]?[0-9]+"),
]]
# the YAML 1.2 core schema's numbers; its null and bool words are among the above
_CORE_INT = re.compile(r"[-+]?[0-9]+|0o[0-7]+|0x[0-9a-fA-F]+")
_CORE_FLOAT = re.compile(r"[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?")
_INF_NAN = {sign + inf for sign in ("", "-", "+") for inf in (".inf", ".Inf", ".INF")} | {".nan", ".NaN", ".NAN"}
_ESCAPES = dict(zip('"\\/bfnrt', '"\\/\b\f\n\r\t'))  # JSON's, and \uXXXX
_ESCAPE = re.compile(r"\\(?:u([0-9a-fA-F]{4})|(.))")
_UNSUPPORTED = dict(zip("&*!|>%@`", ["anchors", "aliases", "tags", "block scalars", "block scalars",
                                     "directives", "reserved indicators", "reserved indicators"]))
# what a config cannot hold: tab, carriage return and the other C0 and C1
# controls, the Unicode line breaks, surrogates, BOM and non-characters
_BAD_CHAR = re.compile("[\x00-\x09\x0b-\x1f\x7f-\x9f\u2028\u2029\ud800-\udfff\ufeff\ufffe\uffff]")
_WS = " \n\0"
_SPACES, _SKIP = re.compile(" *"), re.compile(r"(?:[ \n]+|#[^\n]*)*")
_MARKER = re.compile(r"(?:---|\.\.\.)(?=[ \n]|\Z)")
# a plain scalar on one line, runs between spaces: ': ' or ' #' ends it, and in flow context ',?[]{}' too
_BLOCK_PLAIN, _FLOW_PLAIN = (re.compile(f"{run}(?: +(?!#){run})*") for run in (
    r"(?:[^ \n:]|:(?=[^ \n]))+", r"(?:[^ \n:,?\[\]{}]|:(?=[^ \n,?\[\]{}]))+"))
_SINGLE, _DOUBLE = re.compile(r"'((?:[^'\n]|'')*)'"), re.compile(r'"((?:[^"\\\n]|\\[^\n])*)"')


def _resolve(text: str, exponent: bool) -> str:
    """The tag PyYAML gives the plain scalar ``text``; ``exponent`` adds the
    config's resolver of 1e400 and 1e-3 as floats."""
    if text in _WORDS:
        return _WORDS[text]
    return next((tag for tag, pattern in (_PATTERNS if exponent else _PATTERNS[:-1]) if pattern.fullmatch(text)), "str")


def _core(text: str) -> str:
    """The tag the YAML 1.2 core schema gives the plain scalar ``text``."""
    tag = _WORDS.get(text)
    if tag == "null" or tag == "bool" and text.lower() in ("true", "false"):
        return tag
    return "int" if _CORE_INT.fullmatch(text) else "float" if text in _INF_NAN or _CORE_FLOAT.fullmatch(text) else "str"


def _refusal(text: str, tag: str, core: str) -> str:
    """Why ``text``, a ``tag`` to PyYAML and a ``core`` to YAML 1.2, is refused, and what to write."""
    read = "an int not in decimal" if tag == core else f"read as {tag} by YAML 1.1 and as {core} by YAML 1.2"
    hint = ("write true or false, or " if tag == "bool" else
            "write the number in decimal, without '_' or ':', or " if "_" in text or ":" in text else
            "write a float with a digit before its point and a sign in its exponent, as -0.5 or 1.5e+4, or "
            if core == "float" else "write an int in decimal with no leading zero, or " if "int" in (tag, core) else "")
    return f"{text!r}, {read} ({hint}quote it for a string)"


def _construct(tag: str, text: str):
    """The value of a plain scalar that PyYAML and YAML 1.2 both read as ``tag``."""
    if tag == "int":
        return int(text)
    if tag == "float":
        return float(text.replace(".", "") if text[-1] in "fFnN" else text)  # .inf, -.Inf, .NaN as inf, -Inf, NaN
    return None if tag == "null" else text.lower() == "true"


class _Reader:
    """A recursive-descent parser over ``s`` from position ``i``; an
    ``indent`` is the column of the enclosing block collection."""

    def __init__(self, text: str) -> None:
        self.s, self.i = text, 0

    def where(self, at: int) -> str:
        line, column = self.s.count("\n", 0, at) + 1, at - self.s.rfind("\n", 0, at)
        return f"line {line}, column {column}"

    def error(self, what: str, at=None) -> ConfigError:
        return ConfigError(f"config file: {what} at {self.where(self.i if at is None else at)}")

    def peek(self, k: int = 0) -> str:
        return self.s[self.i + k:self.i + k + 1] or "\0"

    def column(self) -> int:
        return self.i - self.s.rfind("\n", 0, self.i) - 1

    def marker(self) -> bool:
        return (self.i == 0 or self.s[self.i - 1] == "\n") and _MARKER.match(self.s, self.i) is not None

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

    def new_key(self, key, at: int, starts: dict) -> None:
        """Add ``key``, read at ``at``, to ``starts``, its mapping's keys and where they are."""
        if not isinstance(key, str):
            raise self.error(f"a key that reads as {key!r}, not as a string (quote it)", at)
        if key in starts:
            raise self.error(f"a second key {key!r} (the first is at {self.where(starts[key])}; give each once)", at)
        starts[key] = at

    def block(self, indent: int):
        """The block node here, inside a collection at column ``indent``."""
        column, at = self.column(), self.i
        if self.at_entry():
            return self.collection(column, [], None, at)
        node, is_key = self.key(indent)
        if is_key:
            return self.collection(column, {}, node, at)
        self.end_of_line()
        return node

    def key(self, indent: int):
        """The node here, and whether a ': ' after it makes it a key."""
        start = self.i
        node = self.node(indent, flow=False)
        self.spaces()
        if self.peek() != ":" or self.peek(1) not in _WS:
            return node, False
        if isinstance(node, (list, dict)):
            raise self.error("a complex key; a key is a scalar on one line", start)
        return node, True

    def collection(self, column: int, result, key, at: int):
        """The block sequence (``result`` a list) or mapping (a dict, with
        its first ``key`` read at ``at``) whose entries start at ``column``.
        A mapping's value may be a sequence at the mapping's own column."""
        sequence, starts = isinstance(result, list), {}
        while True:
            if not sequence:
                self.new_key(key, at, starts)
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
        tag, core = _resolve(text, exponent=True), _core(text)
        digits = text.lstrip("+-")
        if tag != core or tag == "int" and digits != "0" and digits[0] == "0":  # a leading zero, 0x too
            raise self.error(_refusal(text, tag, core), at)
        try:
            return text if tag == "str" else _construct(tag, text)
        except ValueError:  # past Python's limit on the digits of an int
            raise self.error(f"an int of {len(text)} digits, too many to read", at) from None

    def flow(self, opening: str):
        """A flow sequence or mapping, JSON's arrays and objects among them."""
        closing, start = "]" if opening == "[" else "}", self.i
        result, starts = [] if opening == "[" else {}, {}
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
                self.new_key(item, at, starts)
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
        """A plain scalar on one line; the position is left after its end.
        One that YAML would fold into a line below is refused."""
        pattern, start = _FLOW_PLAIN if flow else _BLOCK_PLAIN, self.i
        end = pattern.match(self.s, start).end()
        self.i = _SKIP.match(self.s, end).end()
        if flow and self.peek() == ":" and self.peek(1) in ",?[]{}":  # which libyaml refuses
            raise self.error("a ':' right before one of ',?[]{}' in a flow collection (write ': ')")
        if "\n" in self.s[end:self.i] and pattern.match(self.s, self.i) and not self.marker() \
                and (flow or self.column() > indent):
            raise self.error("a plain scalar that goes on over the next line (write each scalar on one line)", start)
        self.i = end
        return self.s[start:end]

    def quoted(self, double: bool) -> str:
        """A single-quoted scalar, or a double-quoted one with JSON's
        escapes, on one line."""
        start = self.i
        found = (_DOUBLE if double else _SINGLE).match(self.s, start)
        if not found:
            raise self.error("a quoted scalar not closed on its line (write each scalar on one line, a break as \\n)")
        self.i, body = found.end(), found.group(1)
        if not double:
            return body.replace("''", "'")

        def unescape(m):
            if m.group(1) or m.group(2) in _ESCAPES:
                return chr(int(m.group(1), 16)) if m.group(1) else _ESCAPES[m.group(2)]
            raise self.error(f"the escape {m.group()} (write JSON's: \\\" \\\\ \\/ \\b \\f \\n \\r \\t "
                             f"or \\uXXXX)", start + 1 + m.start())
        return _ESCAPE.sub(unescape, body) if "\\" in body else body


def load(text: str):
    """The one YAML document in ``text``: a dict, list, str, int, float,
    bool or None; a :class:`ConfigError` outside the YAML described above."""
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
