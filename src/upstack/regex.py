"""Boundary-marker regexes for configuration sets.

Surface syntax for one control-state slice of a configuration set. Tokens
are whitespace-separated symbol identifiers plus the operators `|`
(alternation), postfix `*`, `(` `)`, `_` (empty word), and `^` (the
upper/lower boundary). Every top-level alternative contains `^` exactly
once; what is left of it is the upper word, what is right of it the
lower word. Alternation inside a single zone needs parentheses, except
in a zone parsed on its own, which has no `^` (`parse_zone_regex`, in
`overflow`, which reads its starting lower words so).

ASTs are plain tuples:
    ("config", ((upper, lower), ...))   top level, one pair per alternative
    ("sym", name) | ("empty",) | ("star", x)
    ("concat", (x, y, ...)) | ("alt", (x, y, ...))    both n-ary, n >= 2
The printer, `print_config_regex`, emits a canonical form that parses
back to the same AST, each stack of stars folded into one; it lives in
`extras`, which no command loads, and so does `parse_config_regex`, the
parser on its own: a command parses a set expression only to compile
it, and `compile_config_regex` parses text itself.

The parser reads the words of the text, operators spaced out and one
whitespace split of the whole text, as plain strings: no position is
worked out while parsing. Each grammar level is a module-level function
that takes the index of its first word and returns the one after it,
so a parse leaves no reference cycle for the garbage collector. Given
an alphabet, the parser maps each of its names to itself, and a
`("sym", name)` leaf holds the alphabet's string, not the word, so a
model stores each name once: the model parser passes its own table,
never a global one such as `sys.intern`'s, whose strings are immortal
on Python 3.12. A fault names the index of its word (`_Fault`), and
only then does `_place` give that word's line and column; the model
parser places its faults the same way. Groups nest at most
`MAX_NESTING` deep, and stacked stars compile as one.

`compile_config_regex` builds an epsilon-free automaton: Glushkov's
position automaton, with at most one node per symbol occurrence plus a
start. Symbols alternated side by side share one node, so
`(s1 | ... | sn)*` takes n edges into its loop and n round it, not n * n.
The scan (`_Positions`) handles a symbol, starred or not, and an empty
word where it stands in a sequence, so only a group costs a call, and
the compiler fills the automaton's rows, initial and final nodes
directly, in the order `Nfa.add_node` and `Nfa.add_edge` would give.
"""

from __future__ import annotations

from typing import Iterable

from .configsets import _BAR
from .errors import MalformedInputError, ParseError
from .nfa import Nfa

# The words that end a sequence: what may follow one, and "", the end.
_AFTER_SEQUENCE = frozenset(("|", ")", "*", "^", ""))
# The deepest nesting of groups that a set expression may have. Per group
# the parser makes two nested calls and the position compiler at most three
# (an alternation, the sequence of one alternative, and that alternative's
# own sequence), so at the bound both stay within Python's default
# recursion limit of 1000, with room for their callers.
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


def _sequence(words, pos, depth, alphabet):
    """The syntax tree of the sequence of starred items at words[pos], and
    the index of the word after it."""
    items = []
    word = words[pos]
    while word not in _AFTER_SEQUENCE:
        pos += 1
        if word == "(":
            if depth == MAX_NESTING:
                raise _Fault(pos - 1, f"groups nested deeper than {MAX_NESTING}")
            node, pos = _alternatives(words, pos, depth + 1, alphabet)
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
        return ("empty",), pos
    return items[0] if len(items) == 1 else ("concat", tuple(items)), pos


def _alternatives(words, pos, depth, alphabet):
    """The syntax tree of the alternatives of sequences at words[pos],
    inside a group or a zone, and the index of the word after them."""
    parts = []
    while True:
        node, pos = _sequence(words, pos, depth, alphabet)
        parts.append(node)
        if words[pos] != "|":
            return parts[0] if len(parts) == 1 else ("alt", tuple(parts)), pos
        pos += 1


def _parse(words: list[str], alphabet: dict[str, str] | None, zone: bool) -> tuple:
    """The syntax tree of the words, a configuration expression or, with
    `zone`, one zone on its own; a fault raises `_Fault(k, message)`.
    `alphabet` maps each declared symbol to itself, and a leaf holds the
    declared string, not the word. Recursive descent with one function
    per level that has a node: a sequence of starred items, and
    alternatives of sequences inside a group or a zone. Each takes the
    index of its first word and returns the one after it: module-level
    functions, not nested ones sharing the index, which would make each
    parse a reference cycle for the garbage collector."""
    if zone:
        tree, pos = _alternatives(words, 0, 0, alphabet)
        if words[pos] == "^":
            raise _Fault(pos, "boundary marker '^' not allowed in a zone expression")
    else:
        branches = []
        pos = 0
        while True:
            upper, pos = _sequence(words, pos, 0, alphabet)
            if words[pos] != "^":
                raise _Fault(pos, "missing boundary marker '^' in alternative")
            lower, pos = _sequence(words, pos + 1, 0, alphabet)
            branches.append((upper, lower))
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


class _Positions:
    """Glushkov's position construction: one position per symbol
    occurrence, each with its labels and the positions that may follow
    it. Symbols alternated side by side in one group, as in `(a | b |
    c)`, share one position with one label each: they would have the
    same predecessors and followers anyway. Position 0 stands before the
    first symbol; its followers are the first positions of the whole
    expression. Symbols are checked and numbered left to right. A symbol,
    starred or not, and the empty word are scanned where they stand in a
    sequence: only a group costs a call. The scan keeps its tables on an
    object, not in the cells of nested functions, which would make each
    compile a reference cycle for the garbage collector."""

    def __init__(self, symbols: set[str] | None):
        self.symbols = symbols
        self.labels: list[list] = [[]]
        # A follower may be listed twice (`(a*)*`); the rows keep one edge.
        self.follow: list[list[int]] = [[]]

    def sequence(self, parts, barred, nullable, first, last):
        """(nullable, first positions, last positions) of the parts in
        order, after a prefix with the given ones: each part's first
        positions follow the last positions of everything before it that
        can end there. The prefix's first positions grow in place."""
        symbols, labels, follow = self.symbols, self.labels, self.follow
        for part in parts:
            kind = part[0]
            looped = kind == "star"
            if looped:
                while part[1][0] == "star":  # x** is x*
                    part = part[1]
                part = part[1]
                kind = part[0]
            if kind == "sym":
                name = part[1]
                if symbols is not None and name not in symbols:
                    raise MalformedInputError(f"undeclared symbol {name!r}")
                p = len(follow)
                labels.append([(_BAR, name) if barred else name])
                follow.append([p] if looped else [])
                part_nullable, part_first, part_last = looped, [p], [p]
            elif kind == "empty":
                continue
            else:
                if kind == "concat":
                    scanned = self.sequence(part[1], barred, True, [], [])
                elif kind == "alt":
                    scanned = self.choice(part[1], barred)
                else:
                    raise MalformedInputError(f"not a regex node: {part!r}")
                part_nullable, part_first, part_last = scanned
                if looped:
                    part_nullable = True
                    for p in part_last:
                        follow[p] += part_first
            for p in last:
                follow[p] += part_first
            if nullable:
                first += part_first
            last = last + part_last if part_nullable else part_last
            nullable = nullable and part_nullable
        return nullable, first, last

    def choice(self, parts, barred):
        """The alternatives scanned in order: no follow pair joins two of
        them."""
        symbols, labels = self.symbols, self.labels
        nullable, first, last, shared = False, [], [], None
        for part in parts:
            if part[0] == "sym" and shared is not None:
                name = part[1]
                if symbols is not None and name not in symbols:
                    raise MalformedInputError(f"undeclared symbol {name!r}")
                labels[shared].append((_BAR, name) if barred else name)
                continue
            part_nullable, part_first, part_last = self.sequence((part,), barred, True, [], [])
            if part[0] == "sym":
                shared = part_first[0]
            nullable = nullable or part_nullable
            first += part_first
            last += part_last
        return nullable, first, last


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
    result is trimmed. The rows are filled here, in the order that
    `add_node` for each position and then `add_edge` for each follow pair
    would give."""
    symbols = None if alphabet is None else set(alphabet)
    if isinstance(source, str):
        names = None if symbols is None else {name: name for name in symbols}
        ast = _parse_text(source, line, col, names, False)
    else:
        ast = source
    positions = _Positions(symbols)
    nullable, first, last = False, [], []
    for upper, lower in ast[1]:
        branch = positions.sequence((upper,), True, True, [], [])
        part_nullable, part_first, part_last = positions.sequence((lower,), False, *branch)
        nullable = nullable or part_nullable
        first += part_first
        last += part_last
    labels, follow = positions.labels, positions.follow
    follow[0] += first
    rows = {}
    for p, after in enumerate(follow):
        rows[p] = row = {}
        for q in after:
            for label in labels[q]:
                targets = row.get(label)
                if targets is None:
                    row[label] = {q: None}
                else:
                    targets[q] = None
    nfa = Nfa()
    nfa._edges = rows
    nfa.initial[0] = None
    nfa.finals = dict.fromkeys([0] + last if nullable else last)
    return nfa
