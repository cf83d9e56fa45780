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
back to the same AST, each stack of stars folded into one; it lives in
`extras`, which no command loads.

The parser reads the words of the text, operators spaced out and one
whitespace split of the whole text, as plain strings: no position is
worked out while parsing. Given an alphabet, the parser maps each of
its names to itself, and a `("sym", name)` leaf holds the alphabet's
string, not the word, so a model stores each name once: the model
parser passes its own table, never a global one such as `sys.intern`'s,
whose strings are immortal on Python 3.12. A fault names the index
of its word (`_Fault`), and only then does `_place` give that word's
line and column; the model parser places its faults the same way.
Groups nest at most `MAX_NESTING` deep, and stacked stars compile as
one.

`compile_config_regex` builds an epsilon-free automaton: Glushkov's
position automaton, with at most one node per symbol occurrence plus a
start. Symbols alternated side by side share one node, so
`(s1 | ... | sn)*` takes n edges into its loop and n round it, not n * n.
"""

from __future__ import annotations

from typing import Iterable

from .configsets import bar
from .errors import MalformedInputError, ParseError
from .nfa import Nfa

# The words that end a sequence: what may follow one, and "", the end.
_AFTER_SEQUENCE = frozenset(("|", ")", "*", "^", ""))
# The deepest nesting of groups that a set expression may have. Per group
# the parser makes two nested calls and the position compiler at most four
# (an alternation, a sequence and its comprehension, a star), so at the
# bound both stay within Python's default recursion limit of 1000, with
# room for their callers.
MAX_NESTING = 200


def _words(text: str) -> list[str]:
    """The words of the text, operators spaced out and one whitespace
    split of the whole text, ending with "", the end marker."""
    for op in "()|*^":
        text = text.replace(op, f" {op} ")
    words = text.split()
    words.append("")
    return words


def _place(text: str, words: list[str], k: int, line: int = 1, col: int = 1) -> tuple[int, int]:
    """The 1-based line and column of words[k] in text, which starts at
    (line, col): words[k] is found in the text from the end of the word
    before, the end marker "" stands for the end of the text, and k past
    the last word for the column just after it. The words are the text's
    in order with only whitespace between (a whitespace split, or that of
    the text with its operators spaced out), so no earlier match is
    possible. Lines break at "\\n" only."""
    end = 0
    for word in words[:k]:
        end = text.index(word, end) + len(word)
    if k < len(words):
        end = text.index(words[k], end) if words[k] else len(text)
    row = text.rfind("\n", 0, end)
    if row < 0:
        return line, col + end
    return line + text.count("\n", 0, end), end - row


class _Fault(Exception):
    """A parse error at words[k], raised as `_Fault(k, message)`; the
    caller places it with `_place`."""


def _parse(words: list[str], alphabet: dict[str, str] | None, zone: bool) -> tuple:
    """The syntax tree of the words, a configuration expression or, with
    `zone`, one zone on its own; a fault raises `_Fault(k, message)`.
    `alphabet` maps each declared symbol to itself, and a leaf holds the
    declared string, not the word. Recursive descent with one function per level that has a node: a
    sequence of starred items, and alternatives of sequences inside a
    group or a zone."""
    pos = 0

    def sequence(depth: int) -> tuple:
        nonlocal pos
        items = []
        word = words[pos]
        while word not in _AFTER_SEQUENCE:
            pos += 1
            if word == "(":
                if depth == MAX_NESTING:
                    raise _Fault(pos - 1, f"groups nested deeper than {MAX_NESTING}")
                node = alternatives(depth + 1)
                if words[pos] != ")":
                    if words[pos] == "^":
                        raise _Fault(pos, "boundary marker '^' not allowed inside a group")
                    raise _Fault(pos, "unbalanced parenthesis")
                pos += 1
            elif word == "_":
                node = ("empty",)
            elif alphabet is None or word in alphabet:
                node = ("sym", word if alphabet is None else alphabet[word])
            else:
                raise _Fault(pos - 1, f"undeclared symbol {word!r}")
            word = words[pos]
            while word == "*":
                node = ("star", node)
                pos += 1
                word = words[pos]
            items.append(node)
        if not items:
            return ("empty",)
        return items[0] if len(items) == 1 else ("concat", tuple(items))

    def alternatives(depth: int) -> tuple:
        nonlocal pos
        parts = [sequence(depth)]
        while words[pos] == "|":
            pos += 1
            parts.append(sequence(depth))
        return parts[0] if len(parts) == 1 else ("alt", tuple(parts))

    if zone:
        tree = alternatives(0)
        if words[pos] == "^":
            raise _Fault(pos, "boundary marker '^' not allowed in a zone expression")
    else:
        branches = []
        while True:
            upper = sequence(0)
            if words[pos] != "^":
                raise _Fault(pos, "missing boundary marker '^' in alternative")
            pos += 1
            branches.append((upper, sequence(0)))
            if words[pos] == "^":
                raise _Fault(pos, "second boundary marker '^' in alternative")
            if words[pos] != "|":
                break
            pos += 1
        tree = ("config", tuple(branches))
    if words[pos]:
        raise _Fault(pos, f"unexpected {words[pos]!r}")
    return tree


def _parse_text(
    text: str, line: int, col: int, alphabet: dict[str, str] | None, zone: bool
) -> tuple:
    words = _words(text)
    try:
        return _parse(words, alphabet, zone)
    except _Fault as fault:
        k, message = fault.args
        raise ParseError(*_place(text, words, k, line, col), message) from None


def parse_config_regex(
    text: str, line: int = 1, col: int = 1, alphabet: Iterable[str] | None = None
) -> tuple:
    if alphabet is not None:
        alphabet = {name: name for name in alphabet}
    return _parse_text(text, line, col, alphabet, False)


def parse_zone_regex(text: str, alphabet: Iterable[str]) -> tuple:
    """Parse one zone over `alphabet` on its own: what may stand on one
    side of `^`, with alternation allowed at the top. Columns count from
    the text's start."""
    return _parse_text(text, 1, 1, {name: name for name in alphabet}, True)


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
            while ast[1][0] == "star":  # x** is x*
                ast = ast[1]
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
