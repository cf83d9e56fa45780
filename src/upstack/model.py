"""Line-oriented model files: a system plus named configuration sets.

One directive per line; ``#`` starts a comment. Identifiers must be
declared before use::

    states p p2
    alphabet a b x y bot
    rule p x -> p a
    rule p a -> p
    rule p a -> p a b
    set C1 p ^ x (y x)* bot

A rule writes zero, one, or two symbols (pop, switch, push). A ``set``
line gives one boundary-marker expression per control state; states
without a line have empty slices. The expression punctuation ``^ _ | (
) *`` cannot be used in identifiers, and the ``@`` prefix is reserved
for symbols the checkers inject. Parsing, printing, and reparsing is
the identity on the abstract syntax. The printer, `print_model`, lives
in `extras`, which no command loads, and still imports from here.
"""

from __future__ import annotations

from typing import Mapping

from . import _forward
from .configsets import ConfigAutomaton
from .core import Configuration, Frozen, UpdsSpec, make_spec
from .errors import MalformedInputError, ParseError
from .regex import compile_config_regex, parse_config_regex

RESERVED = ("^", "_", "|", "(", ")", "*", "->")
_PUNCT = set("^|()*#")


class ModelFile(Frozen):
    """A parsed model: the system and its named configuration sets, each
    a mapping from control state to a boundary-expression syntax tree."""

    def __init__(
        self, spec: UpdsSpec, sets: Mapping[str, Mapping[str, tuple]] | None = None
    ) -> None:
        _set = object.__setattr__
        _set(self, "spec", spec)
        _set(self, "sets", {} if sets is None else sets)

    def _fields(self) -> tuple:
        return (self.spec, self.sets)

    def set_names(self) -> list[str]:
        return list(self.sets)

    def config_set(self, name: str) -> ConfigAutomaton:
        """Compile the named set's per-state expressions. The set comes out
        validated: `compile_config_regex` rejects symbols outside the
        model's alphabet, and in its position automaton an upper (barred)
        position is followed only by upper positions or by the first lower
        (plain) positions of its own branch, and a lower position only by
        lower ones, so no plain edge precedes a barred one."""
        if name not in self.sets:
            raise MalformedInputError(
                f"no configuration set named {name!r}; have {self.set_names()}"
            )
        components = {
            state: compile_config_regex(ast, alphabet=self.spec.alphabet)
            for state, ast in self.sets[name].items()
        }
        compiled = ConfigAutomaton(self.spec.alphabet, components)
        compiled._validated = True
        return compiled


def _words(line: str) -> list[tuple[str, int]]:
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
    bad = sorted(_PUNCT.intersection(token))
    if bad:
        raise ParseError(
            lineno, col, f"identifier {token!r} contains reserved {bad[0]!r}"
        )
    if token.startswith("@"):
        raise ParseError(
            lineno, col, f"identifier {token!r}: the '@' prefix is reserved"
        )


def parse_model(text: str) -> ModelFile:
    """Parse a model file; diagnostics carry 1-based line and column."""
    states: dict[str, None] = {}
    alphabet: dict[str, None] = {}
    rules: list[tuple[str, str, str, tuple[str, ...]]] = []
    sets: dict[str, dict[str, tuple]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        words = _words(line)
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
    ast = parse_config_regex(
        line[expr_col - 1 :], line=lineno, col=expr_col, alphabet=tuple(alphabet)
    )
    slices = sets.setdefault(name, {})
    if state in slices:
        raise ParseError(lineno, col_s, f"set {name!r} already has a {state!r} slice")
    slices[state] = ast


def parse_config_literal(spec: UpdsSpec, text: str) -> Configuration:
    """A single configuration written as '<state>: <upper> ^ <lower>',
    e.g. 'p2: a ^ bot' for state p2, upper word a, lower word bot."""
    state, sep, stacks = text.partition(":")
    state = state.strip()
    if not sep:
        raise ParseError(1, 1, "expected '<state>: <upper> ^ <lower>'")
    if state not in spec.states:
        raise ParseError(1, 1, f"undeclared state {state!r}")
    tokens = stacks.split()
    if tokens.count("^") != 1:
        raise ParseError(1, len(text) + 1, "expected exactly one boundary marker '^'")
    split = tokens.index("^")
    for token in tokens[:split] + tokens[split + 1 :]:
        if token not in spec.alphabet:
            raise ParseError(1, 1, f"undeclared symbol {token!r}")
    return Configuration(state, tuple(tokens[:split]), tuple(tokens[split + 1 :]))


def print_config_literal(c: Configuration) -> str:
    """Inverse of parse_config_literal."""
    return f"{c.state}: {' '.join((*c.upper, '^', *c.lower))}"


__getattr__ = _forward(__name__, extras="print_model")
