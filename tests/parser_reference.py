"""The character-by-character model and expression front end, kept as the
reference that `model.parse_model`, the expression parsers
(`regex.parse_config_regex`, `regex.parse_zone_regex`) and the position
finder (`regex._place`, against `reference_tokenize`) are pinned
against.

Every line is walked one character at a time, each word is kept with its
column, and a duplicate rule is looked for in the list of the rules
before it, so a model of n rules takes time quadratic in n. An
expression is parsed from a list of token objects, each with its kind
and position, by one method per grammar level that peeks at and takes
tokens one at a time. The checks and their order are the ones the
package makes; only how a column is found, how a duplicate is looked up
and how tokens are read differ.
"""

from __future__ import annotations

from upstack.core import make_spec
from upstack.errors import MalformedInputError, ParseError
from upstack.model import ModelFile

RESERVED = ("^", "_", "|", "(", ")", "*", "->")
_MODEL_PUNCT = set("^|()*#")
_PUNCT = {"(": "lparen", ")": "rparen", "|": "pipe", "*": "star", "^": "caret"}


class _Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind: str, value: str, line: int, col: int):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col


def reference_tokenize(text: str, line: int = 1, col: int = 1) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append(_Token(_PUNCT[ch], ch, line, col))
            col += 1
            i += 1
            continue
        j = i
        while j < len(text) and not text[j].isspace() and text[j] not in _PUNCT:
            j += 1
        word = text[i:j]
        kind = "empty" if word == "_" else "sym"
        tokens.append(_Token(kind, word, line, col))
        col += j - i
        i = j
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], alphabet: set[str] | None):
        self.tokens = tokens
        self.pos = 0
        self.alphabet = alphabet

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, tok: _Token, message: str):
        raise ParseError(tok.line, tok.col, message)

    def parse_config(self) -> tuple:
        branches = [self.parse_branch()]
        while self.peek().kind == "pipe":
            self.take()
            branches.append(self.parse_branch())
        tok = self.peek()
        if tok.kind != "end":
            self.fail(tok, f"unexpected {tok.value!r}")
        return ("config", tuple(branches))

    def parse_zone(self) -> tuple:
        node = self.parse_alt()
        tok = self.peek()
        if tok.kind == "caret":
            self.fail(tok, "boundary marker '^' not allowed in a zone expression")
        if tok.kind != "end":
            self.fail(tok, f"unexpected {tok.value!r}")
        return node

    def parse_branch(self) -> tuple:
        upper = self.parse_seq()
        tok = self.peek()
        if tok.kind != "caret":
            self.fail(tok, "missing boundary marker '^' in alternative")
        self.take()
        lower = self.parse_seq()
        tok = self.peek()
        if tok.kind == "caret":
            self.fail(tok, "second boundary marker '^' in alternative")
        return (upper, lower)

    def parse_seq(self) -> tuple:
        items = []
        while self.peek().kind in ("sym", "empty", "lparen"):
            items.append(self.parse_item())
        if not items:
            return ("empty",)
        if len(items) == 1:
            return items[0]
        return ("concat", tuple(items))

    def parse_item(self) -> tuple:
        node = self.parse_atom()
        while self.peek().kind == "star":
            self.take()
            node = ("star", node)
        return node

    def parse_atom(self) -> tuple:
        tok = self.take()
        if tok.kind == "sym":
            if self.alphabet is not None and tok.value not in self.alphabet:
                self.fail(tok, f"undeclared symbol {tok.value!r}")
            return ("sym", tok.value)
        if tok.kind == "empty":
            return ("empty",)
        if tok.kind == "lparen":
            node = self.parse_alt()
            closing = self.take()
            if closing.kind != "rparen":
                if closing.kind == "caret":
                    self.fail(closing, "boundary marker '^' not allowed inside a group")
                self.fail(closing, "unbalanced parenthesis")
            return node
        self.fail(tok, f"unexpected {tok.value!r}" if tok.kind != "end" else "unexpected end of expression")

    def parse_alt(self) -> tuple:
        parts = [self.parse_seq()]
        while self.peek().kind == "pipe":
            self.take()
            parts.append(self.parse_seq())
        if len(parts) == 1:
            return parts[0]
        return ("alt", tuple(parts))


def reference_parse_config_regex(
    text: str, line: int = 1, col: int = 1, alphabet: set[str] | None = None
) -> tuple:
    return _Parser(reference_tokenize(text, line, col), alphabet).parse_config()


def reference_parse_zone_regex(text: str, alphabet: set[str]) -> tuple:
    return _Parser(reference_tokenize(text), alphabet).parse_zone()


def reference_words(line: str) -> list[tuple[str, int]]:
    """Whitespace-split tokens with their 1-based columns."""
    out = []
    i = 0
    while i < len(line):
        if line[i].isspace():
            i += 1
            continue
        j = i
        while j < len(line) and not line[j].isspace():
            j += 1
        out.append((line[i:j], i + 1))
        i = j
    return out


def _check_ident(token: str, lineno: int, col: int) -> None:
    if token in RESERVED:
        raise ParseError(lineno, col, f"{token!r} is reserved punctuation")
    bad = sorted(_MODEL_PUNCT.intersection(token))
    if bad:
        raise ParseError(
            lineno, col, f"identifier {token!r} contains reserved {bad[0]!r}"
        )
    if token.startswith("@"):
        raise ParseError(
            lineno, col, f"identifier {token!r}: the '@' prefix is reserved"
        )


def reference_parse_model(text: str) -> ModelFile:
    states: dict[str, None] = {}
    alphabet: dict[str, None] = {}
    rules: list[tuple[str, str, str, tuple[str, ...]]] = []
    sets: dict[str, dict[str, tuple]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        words = reference_words(line)
        if not words:
            continue
        head, head_col = words[0]
        rest = words[1:]
        if head in ("states", "alphabet"):
            if not rest:
                raise ParseError(lineno, head_col, f"empty {head} declaration")
            bucket = states if head == "states" else alphabet
            for token, col in rest:
                _check_ident(token, lineno, col)
                if token in states or token in alphabet:
                    raise ParseError(lineno, col, f"duplicate identifier {token!r}")
                bucket[token] = None
        elif head == "rule":
            rules.append(_parse_rule(rest, lineno, head_col, states, alphabet, rules))
        elif head == "set":
            _parse_set_line(line, rest, lineno, head_col, states, alphabet, sets)
        else:
            raise ParseError(lineno, head_col, f"unknown directive {head!r}")
    if not states:
        raise ParseError(1, 1, "missing states declaration")
    return ModelFile(make_spec(tuple(states), tuple(alphabet), rules), sets)


def _parse_rule(rest, lineno, head_col, states, alphabet, rules):
    if len(rest) < 4 or rest[2][0] != "->":
        raise ParseError(
            lineno, head_col, "expected 'rule <state> <symbol> -> <state> ...'"
        )
    (from_state, col_f), (read_symbol, col_r), _, (to_state, col_t) = rest[:4]
    if from_state not in states:
        raise ParseError(lineno, col_f, f"undeclared state {from_state!r}")
    if read_symbol not in alphabet:
        raise ParseError(lineno, col_r, f"undeclared symbol {read_symbol!r}")
    if to_state not in states:
        raise ParseError(lineno, col_t, f"undeclared state {to_state!r}")
    if len(rest) > 6:
        raise ParseError(lineno, rest[6][1], "a rule writes at most two symbols")
    written = []
    for token, col in rest[4:]:
        if token not in alphabet:
            raise ParseError(lineno, col, f"undeclared symbol {token!r}")
        written.append(token)
    rule = (from_state, read_symbol, to_state, tuple(written))
    if rule in rules:
        text = " ".join((from_state, read_symbol, "->", to_state, *written))
        raise ParseError(lineno, head_col, f"duplicate rule '{text}'")
    return rule


def _parse_set_line(line, rest, lineno, head_col, states, alphabet, sets):
    if len(rest) < 2:
        raise ParseError(
            lineno, head_col, "expected 'set <name> <state> <expression>'"
        )
    (name, col_n), (state, col_s) = rest[:2]
    _check_ident(name, lineno, col_n)
    if state not in states:
        raise ParseError(lineno, col_s, f"undeclared state {state!r}")
    if len(rest) < 3:
        raise ParseError(lineno, col_s + len(state), "missing expression")
    expr_col = rest[2][1]
    tokens = reference_tokenize(line[expr_col - 1 :], lineno, expr_col)
    ast = _Parser(tokens, set(alphabet)).parse_config()
    slices = sets.setdefault(name, {})
    if state in slices:
        raise ParseError(lineno, col_s, f"set {name!r} already has a {state!r} slice")
    slices[state] = ast


def reference_spec_checks(states, alphabet, rules) -> None:
    """Raise what `UpdsSpec` raises for these parts, scanning one
    identifier and one rule at a time; return for valid parts."""
    for name, ids in (("state", states), ("symbol", alphabet)):
        seen = set()
        for ident in ids:
            if not ident:
                raise MalformedInputError(f"empty {name} identifier")
            if ident in seen:
                raise MalformedInputError(f"duplicate {name} {ident!r}")
            seen.add(ident)
    seen_rules = set()
    for rule in rules:
        for st in (rule.from_state, rule.to_state):
            if st not in states:
                raise MalformedInputError(f"undeclared state {st!r} in rule {rule}")
        for sym in (rule.read_symbol,) + rule.written:
            if sym not in alphabet:
                raise MalformedInputError(f"undeclared symbol {sym!r} in rule {rule}")
        key = (rule.from_state, rule.read_symbol, rule.to_state, rule.written)
        if key in seen_rules:
            raise MalformedInputError(f"duplicate rule {rule}")
        seen_rules.add(key)
