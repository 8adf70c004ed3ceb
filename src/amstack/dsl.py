"""Front end for the .amg graph language.

The language declares sensor/operator requirements, wires them into a
dataflow graph, attaches device-mapping advice, and states performance
contracts:

    require Camera { resolution = 320x240; frequency >= 30 Hz }
    require 2DPerception { frequency >= 50 Hz; message_size = 4 KB }
    node perc = 2DPerception(IR, Camera)
    hint 2DPerception on gpu
    contract end_to_end { latency <= 250 ms }

Grammar (EBNF):

    program   := { statement }
    statement := require | bind | map | contract
    require   := "require" IDENT "{" attr { ";" attr } "}"
    attr      := IDENT (">=" | "<=" | "=") (NUMBER [UNIT] | NUMBER "x" NUMBER | IDENT)
    bind      := "node" IDENT "=" IDENT "(" IDENT { "," IDENT } ")"
    map       := ("hint" | "require_map") IDENT "on" DEVCLASS
    contract  := "contract" ("end_to_end" | IDENT) "{" attr { ";" attr } "}"

Comments run from "#" to end of line. Input is UTF-8. Units: Hz, ms, us,
s, B, KB, MB, KBps, MBps, W, J (decimal scaling, KB = 1000 B). Unit and
keyword words are reserved and cannot be used as identifiers. Identifiers
may start with a digit (2DPerception) as long as they contain a letter.

A declared name is a source iff it never appears in operator position of a
bind statement; names in operator position are operators. The split
happens in resolve(), which also checks every reference.

Everything here is a pure function of its input: no global state, safe to
call concurrently on distinct inputs, and deterministic (identical text
yields identical tokens, AST, and diagnostics).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import StackError

DEVICE_CLASSES = ("cpu", "gpu", "dsp", "fpga", "accelerator")

KEYWORDS = {
    "require": "kw_require",
    "node": "kw_node",
    "hint": "kw_hint",
    "require_map": "kw_require_map",
    "contract": "kw_contract",
    "on": "kw_on",
    "end_to_end": "kw_end_to_end",
}

# unit word -> (dimension, factor into the canonical unit of that dimension)
# canonical units: freq Hz, time ms, size B, rate B/s, power W, energy J
UNITS = {
    "Hz": ("freq", 1.0),
    "ms": ("time", 1.0),
    "us": ("time", 1e-3),
    "s": ("time", 1e3),
    "B": ("size", 1.0),
    "KB": ("size", 1e3),
    "MB": ("size", 1e6),
    "KBps": ("rate", 1e3),
    "MBps": ("rate", 1e6),
    "W": ("power", 1.0),
    "J": ("energy", 1.0),
}


# ---------------------------------------------------------------------------
# Tokens and diagnostics


@dataclass(frozen=True)
class Span:
    line: int  # 1-based
    col: int  # 1-based
    length: int


@dataclass(frozen=True)
class Token:
    kind: str  # kw_*, ident, number, resolution, unit, lbrace, ..., error
    text: str
    span: Span
    value: object = None  # float for number, (w, h) for resolution


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    code: str
    message: str
    span: Span | None = None  # None only for diagnostics not tied to text

    def format_human(self) -> str:
        where = f" line {self.span.line}:{self.span.col}" if self.span else ""
        return f"{self.severity}[{self.code}]{where}: {self.message}"

    def to_json_dict(self) -> dict:
        return {
            "severity": self.severity,
            "code": self.code,
            "line": self.span.line if self.span else None,
            "col": self.span.col if self.span else None,
            "len": self.span.length if self.span else None,
            "message": self.message,
        }


def diagnostics_to_json(diags: list[Diagnostic]) -> str:
    return json.dumps([d.to_json_dict() for d in diags], sort_keys=True)


def has_errors(diags: list[Diagnostic]) -> bool:
    return any(d.severity == "error" for d in diags)


PUNCT = {
    "{": "lbrace",
    "}": "rbrace",
    "(": "lparen",
    ")": "rparen",
    ",": "comma",
    ";": "semi",
}


def _is_word_char(c: str) -> bool:
    return c.isalnum() or c == "_"


def tokenize(text: str) -> list[Token]:
    """Lex .amg text. Unknown characters become error tokens, never raises."""
    tokens: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)

    def push(kind, start, length, value=None):
        tokens.append(Token(kind, text[start : start + length], Span(line, col, length), value))

    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c in PUNCT:
            push(PUNCT[c], i, 1)
            i += 1
            col += 1
            continue
        if c in "><=":
            if c == "=":
                push("eq", i, 1)
                i += 1
                col += 1
            elif i + 1 < n and text[i + 1] == "=":
                push("geq" if c == ">" else "leq", i, 2)
                i += 2
                col += 2
            else:
                push("error", i, 1)
                i += 1
                col += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            has_frac = False
            if j < n and text[j] == "." and j + 1 < n and text[j + 1].isdigit():
                has_frac = True
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            # trailing word characters decide what the digits were
            k = j
            while k < n and _is_word_char(text[k]):
                k += 1
            rest = text[j:k]
            num_text = text[i:j]
            if rest == "":
                push("number", i, j - i, float(num_text))
            elif rest in UNITS:
                push("number", i, j - i, float(num_text))
                tokens.append(Token("unit", rest, Span(line, col + (j - i), len(rest)), rest))
            elif (
                not has_frac
                and rest[0] == "x"
                and len(rest) > 1
                and rest[1:].isdigit()
            ):
                push("resolution", i, k - i, (int(num_text), int(rest[1:])))
            elif not has_frac:
                # identifier that happens to start with digits: 2DPerception
                push("ident", i, k - i)
            else:
                push("error", i, k - i)
            col += k - i
            i = k
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and _is_word_char(text[j]):
                j += 1
            word = text[i:j]
            if word in KEYWORDS:
                push(KEYWORDS[word], i, j - i)
            elif word in UNITS:
                push("unit", i, j - i, word)
            else:
                push("ident", i, j - i)
            col += j - i
            i = j
            continue
        push("error", i, 1)
        i += 1
        col += 1
    return tokens


# ---------------------------------------------------------------------------
# AST

# Spans never participate in structural equality: the round-trip property
# compares a program against its reparsed pretty-print, whose spans differ.


@dataclass(frozen=True)
class FreqSpec:
    op: str  # ">=", "<=", "="
    hz: float


@dataclass(frozen=True)
class ExtraAttr:
    key: str
    op: str
    value: object  # float (dimension below), (w, h) tuple, or str identifier
    dimension: str | None = None  # freq/time/size/rate/power/energy or None


@dataclass(frozen=True)
class RequireDecl:
    name: str
    frequency: FreqSpec | None
    resolution: object = None  # (w, h) pair or int beam count
    message_size: int | None = None  # bytes per output sample
    extra: tuple[ExtraAttr, ...] = ()
    span: Span | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Binding:
    result: str
    operator: str
    inputs: tuple[str, ...]
    span: Span | None = field(default=None, compare=False)
    input_spans: tuple[Span, ...] = field(default=(), compare=False)


@dataclass(frozen=True)
class MapStmt:
    operator: str
    device_class: str
    strength: str  # "hint" | "requirement"
    span: Span | None = field(default=None, compare=False)


@dataclass(frozen=True)
class ContractStmt:
    scope: str  # "end_to_end" or an operator name
    latency_bound_ms: float | None = None
    min_frequency_hz: float | None = None
    max_latency_std_ms: float | None = None
    energy_bound_w: float | None = None
    span: Span | None = field(default=None, compare=False)


@dataclass(frozen=True)
class ProgramAST:
    decls: tuple[RequireDecl, ...]
    bindings: tuple[Binding, ...]
    maps: tuple[MapStmt, ...]
    contracts: tuple[ContractStmt, ...]


@dataclass(frozen=True)
class ResolvedProgram:
    sources: tuple[RequireDecl, ...]
    operators: tuple[RequireDecl, ...]
    bindings: tuple[Binding, ...]
    maps: tuple[MapStmt, ...]
    contracts: tuple[ContractStmt, ...]


# ---------------------------------------------------------------------------
# Parser

_STATEMENT_STARTS = {"kw_require", "kw_node", "kw_hint", "kw_require_map", "kw_contract"}

_CONTRACT_KEYS = {
    "latency": ("time", ("<=", "=")),
    "frequency": ("freq", (">=", "=")),
    "latency_std": ("time", ("<=", "=")),
    "energy": ("power", ("<=", "=")),
}


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.diags: list[Diagnostic] = []

    # -- token plumbing ------------------------------------------------

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def advance(self) -> Token | None:
        t = self.peek()
        if t is not None:
            self.pos += 1
        return t

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)

    def _end_span(self) -> Span:
        if self.tokens:
            last = self.tokens[-1].span
            return Span(last.line, last.col + last.length, 1)
        return Span(1, 1, 1)

    def here(self) -> Span:
        t = self.peek()
        return t.span if t else self._end_span()

    def error(self, code: str, message: str, span: Span | None = None):
        self.diags.append(Diagnostic("error", code, message, span or self.here()))

    def expect(self, kind: str, what: str, code: str = "E-SYNTAX") -> Token | None:
        t = self.peek()
        if t is not None and t.kind == kind:
            return self.advance()
        got = f"'{t.text}'" if t else "end of input"
        self.error(code, f"expected {what}, found {got}")
        return None

    def sync_to_statement(self):
        """Error recovery: skip to the next plausible statement start."""
        depth = 0
        while not self.at_end():
            k = self.peek().kind
            if k == "lbrace":
                depth += 1
            elif k == "rbrace":
                if depth > 0:
                    depth -= 1
                    self.advance()
                    continue
                self.advance()
                return
            elif depth == 0 and k in _STATEMENT_STARTS:
                return
            self.advance()

    # -- grammar -------------------------------------------------------

    def parse_program(self) -> ProgramAST:
        decls, bindings, maps, contracts = [], [], [], []
        while not self.at_end():
            t = self.peek()
            if t.kind == "error":
                self.error("E-TOKEN", f"unexpected character {t.text!r}", t.span)
                self.advance()
                continue
            before = len(self.diags)
            if t.kind == "kw_require":
                stmt = self.parse_require()
                ok = len(self.diags) == before
            elif t.kind == "kw_node":
                stmt = self.parse_bind()
                ok = len(self.diags) == before
            elif t.kind in ("kw_hint", "kw_require_map"):
                stmt = self.parse_map()
                ok = len(self.diags) == before
            elif t.kind == "kw_contract":
                stmt = self.parse_contract()
                ok = len(self.diags) == before
            else:
                self.error(
                    "E-SYNTAX",
                    f"expected a statement (require, node, hint, require_map, contract), found '{t.text}'",
                )
                stmt, ok = None, False
            if ok and stmt is not None:
                if isinstance(stmt, RequireDecl):
                    decls.append(stmt)
                elif isinstance(stmt, Binding):
                    bindings.append(stmt)
                elif isinstance(stmt, MapStmt):
                    maps.append(stmt)
                else:
                    contracts.append(stmt)
            else:
                self.sync_to_statement()
        return ProgramAST(tuple(decls), tuple(bindings), tuple(maps), tuple(contracts))

    def parse_attr_block(self, code_brace: str = "E-BRACE") -> list[tuple[str, str, Token, Token | None, Span]]:
        """Parse "{ attr { ; attr } }" into (key, op, value, unit, span) rows."""
        rows = []
        if self.expect("lbrace", "'{'", code_brace) is None:
            return rows
        while True:
            key_tok = self.expect("ident", "an attribute name")
            if key_tok is None:
                return rows
            op_tok = self.peek()
            if op_tok is None or op_tok.kind not in ("geq", "leq", "eq"):
                self.error("E-SYNTAX", "expected '>=', '<=' or '=' after attribute name")
                return rows
            self.advance()
            op = {"geq": ">=", "leq": "<=", "eq": "="}[op_tok.kind]
            val_tok = self.peek()
            if val_tok is None or val_tok.kind not in ("number", "resolution", "ident"):
                self.error("E-SYNTAX", "expected a number, WIDTHxHEIGHT, or identifier as attribute value")
                return rows
            self.advance()
            unit_tok = None
            if val_tok.kind == "number" and self.peek() is not None and self.peek().kind == "unit":
                unit_tok = self.advance()
            rows.append((key_tok.text, op, val_tok, unit_tok, key_tok.span))
            nxt = self.peek()
            if nxt is not None and nxt.kind == "semi":
                self.advance()
                continue
            break
        self.expect("rbrace", "'}'", code_brace)
        return rows

    def parse_require(self) -> RequireDecl | None:
        kw = self.advance()
        name = self.expect("ident", "a declaration name")
        if name is None:
            return None
        rows = self.parse_attr_block()
        freq = None
        resolution = None
        message_size = None
        extra = []
        seen = set()
        for key, op, val, unit, span in rows:
            if key in seen:
                self.error("E-ATTR", f"duplicate attribute '{key}'", span)
                continue
            seen.add(key)
            if key == "frequency":
                hz = self._dimensioned(val, unit, "freq", span)
                if hz is None:
                    continue
                if hz <= 0:
                    self.error("E-ATTR", "frequency must be positive", span)
                    continue
                freq = FreqSpec(op, hz)
            elif key == "resolution":
                if op != "=":
                    self.error("E-ATTR", "resolution takes '='", span)
                    continue
                if val.kind == "resolution":
                    resolution = val.value
                elif val.kind == "number" and unit is None and float(val.value).is_integer():
                    resolution = int(val.value)  # beam count
                else:
                    self.error("E-ATTR", "resolution must be WIDTHxHEIGHT or an integer beam count", span)
            elif key == "message_size":
                size = self._dimensioned(val, unit, "size", span)
                if size is None:
                    continue
                if op != "=":
                    self.error("E-ATTR", "message_size takes '='", span)
                    continue
                if size <= 0:
                    self.error("E-ATTR", "message_size must be positive", span)
                    continue
                message_size = int(round(size))
            else:
                extra.append(self._extra_attr(key, op, val, unit))
        if freq is None:
            # every requirement must state a rate; without one the node has
            # no activation semantics
            if "frequency" not in seen:
                self.error("E-ATTR", f"declaration '{name.text}' has no frequency attribute", name.span)
            return None
        return RequireDecl(name.text, freq, resolution, message_size, tuple(extra), name.span)

    def _dimensioned(self, val: Token, unit: Token | None, want: str, span: Span) -> float | None:
        if val.kind != "number":
            self.error("E-ATTR", f"expected a number with {want} unit", span)
            return None
        if unit is None:
            return float(val.value)  # bare number: canonical unit of `want`
        dim, factor = UNITS[unit.value]
        if dim != want and not (want == "power" and dim == "energy"):
            self.error("E-ATTR", f"unit '{unit.value}' is a {dim} unit, expected {want}", span)
            return None
        return float(val.value) * factor

    def _extra_attr(self, key: str, op: str, val: Token, unit: Token | None) -> ExtraAttr:
        if val.kind == "resolution":
            return ExtraAttr(key, op, val.value, None)
        if val.kind == "ident":
            return ExtraAttr(key, op, val.text, None)
        if unit is None:
            return ExtraAttr(key, op, float(val.value), None)
        dim, factor = UNITS[unit.value]
        return ExtraAttr(key, op, float(val.value) * factor, dim)

    def parse_bind(self) -> Binding | None:
        self.advance()
        result = self.expect("ident", "a result name")
        if result is None:
            return None
        if self.expect("eq", "'='") is None:
            return None
        op = self.expect("ident", "an operator name")
        if op is None:
            return None
        if self.expect("lparen", "'('", "E-PAREN") is None:
            return None
        inputs, spans = [], []
        while True:
            arg = self.expect("ident", "an input name", "E-PAREN")
            if arg is None:
                return None
            inputs.append(arg.text)
            spans.append(arg.span)
            nxt = self.peek()
            if nxt is not None and nxt.kind == "comma":
                self.advance()
                continue
            break
        if self.expect("rparen", "')'", "E-PAREN") is None:
            return None
        return Binding(result.text, op.text, tuple(inputs), result.span, tuple(spans))

    def parse_map(self) -> MapStmt | None:
        kw = self.advance()
        strength = "hint" if kw.kind == "kw_hint" else "requirement"
        op = self.expect("ident", "an operator name")
        if op is None:
            return None
        if self.expect("kw_on", "'on'") is None:
            return None
        cls = self.expect("ident", "a device class")
        if cls is None:
            return None
        if cls.text not in DEVICE_CLASSES:
            self.error("E-DEVCLASS", f"unknown device class '{cls.text}' (one of {', '.join(DEVICE_CLASSES)})", cls.span)
            return None
        return MapStmt(op.text, cls.text, strength, op.span)

    def parse_contract(self) -> ContractStmt | None:
        self.advance()
        t = self.peek()
        if t is not None and t.kind == "kw_end_to_end":
            self.advance()
            scope, span = "end_to_end", t.span
        else:
            st = self.expect("ident", "'end_to_end' or an operator name")
            if st is None:
                return None
            scope, span = st.text, st.span
        rows = self.parse_attr_block()
        fields = {}
        for key, op, val, unit, kspan in rows:
            if key not in _CONTRACT_KEYS:
                self.error("E-ATTR", f"unknown contract attribute '{key}'", kspan)
                continue
            want, ops = _CONTRACT_KEYS[key]
            if op not in ops:
                self.error("E-ATTR", f"contract attribute '{key}' takes {' or '.join(repr(o) for o in ops)}", kspan)
                continue
            value = self._dimensioned(val, unit, want, kspan)
            if value is None:
                continue
            if value <= 0:
                self.error("E-ATTR", f"contract bound '{key}' must be positive", kspan)
                continue
            if key in fields:
                self.error("E-ATTR", f"duplicate contract attribute '{key}'", kspan)
                continue
            fields[key] = value
        if not fields:
            self.error("E-ATTR", "contract must state at least one bound", span)
            return None
        return ContractStmt(
            scope,
            latency_bound_ms=fields.get("latency"),
            min_frequency_hz=fields.get("frequency"),
            max_latency_std_ms=fields.get("latency_std"),
            energy_bound_w=fields.get("energy"),
            span=span,
        )


def parse_lenient(tokens: list[Token]) -> tuple[ProgramAST, list[Diagnostic]]:
    """Parse with statement-level recovery, returning whatever survived."""
    p = _Parser(tokens)
    ast = p.parse_program()
    return ast, p.diags


def parse(tokens: list[Token]) -> tuple[ProgramAST | None, list[Diagnostic]]:
    """Parse a token list. The AST is returned only when error-free."""
    ast, diags = parse_lenient(tokens)
    if has_errors(diags):
        return None, diags
    return ast, diags


def parse_text(text: str) -> tuple[ProgramAST | None, list[Diagnostic]]:
    return parse(tokenize(text))


# ---------------------------------------------------------------------------
# Name resolution


def resolve(ast: ProgramAST) -> tuple[ResolvedProgram | None, list[Diagnostic]]:
    """Bind every identifier; split declarations into sources and operators.

    A declaration is a source iff it never appears in operator position of a
    binding. Binding inputs must name a source or a previously bound result
    (results are second-class: they cannot be re-bound, operators cannot be
    passed as data).
    """
    diags: list[Diagnostic] = []
    decl_by_name: dict[str, RequireDecl] = {}
    for d in ast.decls:
        if d.name in decl_by_name:
            diags.append(Diagnostic("error", "E-DUP", f"'{d.name}' is already declared", d.span))
            continue
        decl_by_name[d.name] = d

    operator_names = {b.operator for b in ast.bindings}
    source_names = {n for n in decl_by_name if n not in operator_names}

    bound_results: dict[str, Binding] = {}
    used_as_input: set[str] = set()
    for b in ast.bindings:
        if b.result in decl_by_name or b.result in bound_results:
            diags.append(Diagnostic("error", "E-DUP", f"'{b.result}' is already declared", b.span))
            continue
        if b.operator not in decl_by_name:
            diags.append(Diagnostic("error", "E-UNDEF", f"unknown operator '{b.operator}'", b.span))
            continue
        for name, span in zip(b.inputs, b.input_spans):
            if name in source_names or name in bound_results:
                used_as_input.add(name)
            elif name in operator_names:
                diags.append(
                    Diagnostic(
                        "error",
                        "E-UNDEF",
                        f"'{name}' is an operator; bind its result to a name and use that",
                        span,
                    )
                )
            else:
                diags.append(Diagnostic("error", "E-UNDEF", f"unknown identifier '{name}'", span))
        bound_results[b.result] = b

    for name, d in decl_by_name.items():
        if name in source_names and name not in used_as_input:
            diags.append(Diagnostic("warning", "E-UNUSED", f"source '{name}' is never consumed", d.span))
        # operators not in operator_names are sources by definition, so the
        # only other unused case is a decl with no bindings at all, which the
        # source branch above already covers

    for m in ast.maps:
        if m.operator not in decl_by_name:
            diags.append(Diagnostic("error", "E-UNDEF", f"unknown operator '{m.operator}' in mapping", m.span))
        elif m.operator in source_names:
            diags.append(
                Diagnostic("warning", "W-MAPSRC", f"mapping annotation on source '{m.operator}' has no effect", m.span)
            )

    for c in ast.contracts:
        if c.scope != "end_to_end" and c.scope not in operator_names:
            diags.append(
                Diagnostic("error", "E-UNDEF", f"contract scope '{c.scope}' is not a bound operator", c.span)
            )

    if has_errors(diags):
        return None, diags

    sources = tuple(d for d in ast.decls if d.name in source_names)
    operators = tuple(d for d in ast.decls if d.name in operator_names)
    return ResolvedProgram(sources, operators, ast.bindings, ast.maps, ast.contracts), diags


def load_program(path: str) -> tuple[ResolvedProgram | None, list[Diagnostic]]:
    """Read, parse, and resolve an .amg file. E-IO on unreadable input."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise StackError("E-IO", f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise StackError("E-IO", f"{path} is not valid UTF-8: {exc}") from exc
    ast, diags = parse_text(text)
    if ast is None:
        return None, diags
    resolved, rdiags = resolve(ast)
    return resolved, diags + rdiags


# ---------------------------------------------------------------------------
# Pretty printer


def _fmt_num(x: float) -> str:
    if float(x).is_integer():
        return str(int(x))
    return repr(float(x))


def _fmt_extra(a: ExtraAttr) -> str:
    if isinstance(a.value, tuple):
        return f"{a.key} {a.op} {a.value[0]}x{a.value[1]}"
    if isinstance(a.value, str):
        return f"{a.key} {a.op} {a.value}"
    unit = {
        "freq": " Hz",
        "time": " ms",
        "size": " B",
        "power": " W",
        "energy": " J",
        None: "",
    }
    if a.dimension == "rate":
        return f"{a.key} {a.op} {_fmt_num(a.value / 1e3)} KBps"
    return f"{a.key} {a.op} {_fmt_num(a.value)}{unit[a.dimension]}"


def _fmt_require(d: RequireDecl) -> str:
    parts = [f"frequency {d.frequency.op} {_fmt_num(d.frequency.hz)} Hz"]
    if d.resolution is not None:
        if isinstance(d.resolution, tuple):
            parts.append(f"resolution = {d.resolution[0]}x{d.resolution[1]}")
        else:
            parts.append(f"resolution = {d.resolution}")
    if d.message_size is not None:
        parts.append(f"message_size = {d.message_size} B")
    parts.extend(_fmt_extra(a) for a in d.extra)
    return f"require {d.name} {{ {'; '.join(parts)} }}"


def pretty_print(program: ResolvedProgram) -> str:
    """Canonical text form; reparsing and resolving it reproduces the input."""
    lines = [_fmt_require(d) for d in program.sources + program.operators]
    for b in program.bindings:
        lines.append(f"node {b.result} = {b.operator}({', '.join(b.inputs)})")
    for m in program.maps:
        kw = "hint" if m.strength == "hint" else "require_map"
        lines.append(f"{kw} {m.operator} on {m.device_class}")
    for c in program.contracts:
        parts = []
        if c.latency_bound_ms is not None:
            parts.append(f"latency <= {_fmt_num(c.latency_bound_ms)} ms")
        if c.min_frequency_hz is not None:
            parts.append(f"frequency >= {_fmt_num(c.min_frequency_hz)} Hz")
        if c.max_latency_std_ms is not None:
            parts.append(f"latency_std <= {_fmt_num(c.max_latency_std_ms)} ms")
        if c.energy_bound_w is not None:
            parts.append(f"energy <= {_fmt_num(c.energy_bound_w)} W")
        lines.append(f"contract {c.scope} {{ {'; '.join(parts)} }}")
    return "\n".join(lines) + ("\n" if lines else "")
