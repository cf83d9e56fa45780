"""Boundary-marker regexes for configuration sets.

Surface syntax for one control-state slice of a configuration set. Tokens
are whitespace-separated symbol identifiers plus the operators `|`
(alternation), postfix `*`, `(` `)`, `_` (empty word), and `^` (the
upper/lower boundary). Every top-level alternative contains `^` exactly
once; what is left of it is the upper word, what is right of it the
lower word. Alternation inside a single zone needs parentheses, except
in a zone parsed on its own (`parse_zone_regex`), which has no `^`.

ASTs are plain tuples:
    ("config", ((upper, lower), ...))   top level, one pair per alternative
    ("sym", name) | ("empty",) | ("star", x)
    ("concat", (x, y, ...)) | ("alt", (x, y, ...))    both n-ary, n >= 2
The printer, `print_config_regex`, emits a canonical form that parses
back to the same AST; it lives in `extras`, which no command loads, and
still imports from here.

`compile_config_regex` builds an epsilon-free automaton: Glushkov's
position automaton, with at most one node per symbol occurrence plus a
start. Symbols alternated side by side share one node, so
`(s1 | ... | sn)*` takes n edges into its loop and n round it, not n * n.
"""

from __future__ import annotations

from typing import Iterable

from . import _forward
from .configsets import bar
from .errors import MalformedInputError, ParseError
from .nfa import Nfa

# The token kind of each operator and of `_`, the empty word; any other
# word is a symbol.
_KINDS = {"(": "lparen", ")": "rparen", "|": "pipe", "*": "star", "^": "caret", "_": "empty"}


class _Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind: str, value: str, line: int, col: int):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col


def tokenize(text: str, line: int = 1, col: int = 1) -> list[_Token]:
    """The tokens of `text`, which starts at (line, col), ending with an
    `end` token just past its last character. Operators are spaced out so
    that one whitespace split of each line gives every token, and each is
    found in the line from the end of the one before, so only whitespace
    lies between and no earlier match is possible."""
    tokens: list[_Token] = []
    for row_number, row in enumerate(text.split("\n")):
        if row_number:
            line += 1
            col = 1
        spaced = row
        for op in "()|*^":
            spaced = spaced.replace(op, f" {op} ")
        at = 0
        for word in spaced.split():
            at = row.index(word, at)
            tokens.append(_Token(_KINDS.get(word, "sym"), word, line, col + at))
            at += len(word)
    tokens.append(_Token("end", "", line, col + len(row)))
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


def parse_config_regex(
    text: str, line: int = 1, col: int = 1, alphabet: Iterable[str] | None = None
) -> tuple:
    if alphabet is not None and not isinstance(alphabet, set):
        alphabet = set(alphabet)
    return _Parser(tokenize(text, line, col), alphabet).parse_config()


def parse_zone_regex(text: str, alphabet: Iterable[str]) -> tuple:
    """Parse one zone over `alphabet` on its own: what may stand on one
    side of `^`, with alternation allowed at the top. Columns count from
    the text's start."""
    return _Parser(tokenize(text), set(alphabet)).parse_zone()


class _Positions:
    """Glushkov's position construction: one position per symbol
    occurrence, each with its labels and the positions that may follow it.
    Symbols alternated side by side in one group, as in `(a | b | c)`,
    share one position with one label each: they would have the same
    predecessors and followers anyway. Position 0 stands before the first
    symbol; its followers are the first positions of the whole
    expression."""

    def __init__(self, symbols: set[str] | None):
        self.symbols = symbols
        self.labels: list[list[object]] = [[]]
        # A follower may be listed twice (`(a*)*`); add_edge keeps one edge.
        self.follow: list[list[int]] = [[]]

    def label(self, ast: tuple, barred: bool) -> object:
        if self.symbols is not None and ast[1] not in self.symbols:
            raise MalformedInputError(f"undeclared symbol {ast[1]!r}")
        return bar(ast[1]) if barred else ast[1]

    def scan(self, ast: tuple, barred: bool) -> tuple[bool, list[int], list[int]]:
        """(nullable, first positions, last positions) of ast, recording
        the follow pairs inside it. Symbols are checked and numbered left
        to right."""
        kind = ast[0]
        if kind == "sym":
            pos = len(self.labels)
            self.labels.append([self.label(ast, barred)])
            self.follow.append([])
            return False, [pos], [pos]
        if kind == "empty":
            return True, [], []
        if kind == "star":
            _, first, last = self.scan(ast[1], barred)
            self.link(last, first)
            return True, first, last
        if kind == "concat":
            return self.sequence([self.scan(part, barred) for part in ast[1]])
        if kind == "alt":
            parts = []
            shared = None  # the position of the group's first symbol
            for part in ast[1]:
                if part[0] == "sym" and shared is not None:
                    self.labels[shared].append(self.label(part, barred))
                    continue
                parts.append(self.scan(part, barred))
                if part[0] == "sym":
                    shared = parts[-1][1][0]
            return self.choice(parts)
        raise MalformedInputError(f"not a regex node: {ast!r}")

    def sequence(
        self, parts: list[tuple[bool, list[int], list[int]]]
    ) -> tuple[bool, list[int], list[int]]:
        """Concatenate scanned parts: each part's first positions follow
        the last positions of everything before it that can end there."""
        nullable, first, last = True, [], []
        for part_nullable, part_first, part_last in parts:
            self.link(last, part_first)
            if nullable:
                first = first + part_first
            last = last + part_last if part_nullable else part_last
            nullable = nullable and part_nullable
        return nullable, first, last

    @staticmethod
    def choice(
        parts: list[tuple[bool, list[int], list[int]]]
    ) -> tuple[bool, list[int], list[int]]:
        """Alternate scanned parts: no follow pair joins two of them."""
        return (
            any(nullable for nullable, _, _ in parts),
            [p for _, first, _ in parts for p in first],
            [p for _, _, last in parts for p in last],
        )

    def link(self, sources: list[int], targets: list[int]) -> None:
        follow = self.follow
        for p in sources:
            follow[p] += targets


def compile_config_regex(
    source: str | tuple,
    alphabet: Iterable[str] | None = None,
    line: int = 1,
    col: int = 1,
) -> Nfa:
    """Compile a boundary-marker regex (text or AST) to a zone-valid,
    epsilon-free Nfa. Given an alphabet, a symbol outside it is an error in
    either form.

    The automaton is the position automaton: its nodes are the positions
    (ints, the start 0), and an edge from p to each follower q carries
    each of q's labels. Upper-zone labels are barred, and each branch's
    upper last positions are followed by its lower first positions, never
    the other way, so no plain edge precedes a barred one. A regex has no
    empty language, so every position lies on an accepted word and the
    result is trimmed."""
    symbols = None if alphabet is None else set(alphabet)
    if isinstance(source, str):
        ast = parse_config_regex(source, line, col, symbols)
    else:
        ast = source
    positions = _Positions(symbols)
    nullable, first, last = positions.choice([
        positions.sequence([positions.scan(upper, True), positions.scan(lower, False)])
        for upper, lower in ast[1]
    ])
    positions.link([0], first)
    follow, labels = positions.follow, positions.labels
    nfa = Nfa()
    for p in range(len(follow)):
        nfa.add_node(p)
    nfa.add_initial(0)
    for p in [0] + last if nullable else last:
        nfa.add_final(p)
    for p, after in enumerate(follow):
        for q in after:
            for label in labels[q]:
                nfa.add_edge(p, label, q)
    return nfa


__getattr__ = _forward(__name__, extras="print_config_regex _print_part")
