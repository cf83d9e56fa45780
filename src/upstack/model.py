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
in `extras`, which no command loads, and still imports from here; so
does the comparison behind `ModelFile ==`.

Each declared name is stored once per model: the rules, the set
expressions' leaves and the sets' state keys hold the declared strings,
not the words split from their lines, and so do configuration literals
(`parse_config_literal`, which only the commands that take one run, in
`literal`). The table is the model's own, not `sys.intern`'s (see
`parse_model`).

Each rule is built once, as a `Rule`, when its line is read, and
`parse_model` hands the rules to `UpdsSpec`, which makes every check it
makes on any system; `make_spec`, which builds each rule again from
plain tuples, is in `extras`.

A fault in a line is raised as `regex._Fault` with the index of its
word, and `regex._place` gives that word's column, as it does for a
fault in a set expression or a configuration literal.
"""

from __future__ import annotations

from typing import Mapping

from . import _MovedMethod, _forward
from .configsets import ConfigAutomaton
from .core import Configuration, Frozen, Rule, UpdsSpec, _new
from .errors import MalformedInputError, ParseError
from .regex import _Fault, _parse_text, _place, compile_config_regex

RESERVED = ("^", "_", "|", "(", ")", "*", "->")
_PUNCT = set("^|()*#")


class ModelFile(Frozen):
    """A parsed model: the system and its named configuration sets, each
    a mapping from control state to a boundary-expression syntax tree."""

    # Trees nest deeper than a recursive comparison reaches, so `==`
    # compares them from a stack (`extras.model_eq`).
    __eq__ = _MovedMethod("extras", "model_eq")

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


def _check_ident(token: str, k: int) -> None:
    """Raise if words[k] may not be an identifier; only a bad one is
    scanned, to word the error."""
    if _PUNCT.isdisjoint(token) and token not in RESERVED and token[0] != "@":
        return
    if token in RESERVED:
        raise _Fault(k, f"{token!r} is reserved punctuation")
    bad = sorted(_PUNCT.intersection(token))
    if bad:
        raise _Fault(k, f"identifier {token!r} contains reserved {bad[0]!r}")
    raise _Fault(k, f"identifier {token!r}: the '@' prefix is reserved")


def parse_model(text: str) -> ModelFile:
    """Parse a model file; diagnostics carry 1-based line and column.
    Parsing is linear in the text: each line is split once, each check is
    a hash lookup, and a column is worked out only for a diagnostic or
    where a set expression starts.

    Each declared name is stored once per model: `states` and `alphabet`
    map each name to itself, so the lookup that checks a later word also
    gives the declared string, and that one goes into the rules, the set
    expressions' leaves and the sets' state keys, not the word split from
    the line. The table is the model's own, not `sys.intern`'s: on
    Python 3.12 an interned string is immortal, and a process that parses
    many models would never free their names."""
    states: dict[str, str] = {}
    alphabet: dict[str, str] = {}
    rules: dict[Rule, None] = {}
    sets: dict[str, dict[str, tuple]] = {}
    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.partition("#")[0]
            words = line.split()
            if not words:
                continue
            head = words[0]
            if head == "rule":
                _parse_rule(words, states, alphabet, rules)
            elif head == "set":
                _parse_set_line(words, lineno, line, states, alphabet, sets)
            elif head in ("states", "alphabet"):
                if len(words) == 1:
                    raise _Fault(0, f"empty {head} declaration")
                bucket = states if head == "states" else alphabet
                for k in range(1, len(words)):
                    token = words[k]
                    _check_ident(token, k)
                    if token in states or token in alphabet:
                        raise _Fault(k, f"duplicate identifier {token!r}")
                    bucket[token] = token
            else:
                raise _Fault(0, f"unknown directive {head!r}")
    except _Fault as fault:
        k, message = fault.args
        raise ParseError(*_place(line, words, k, lineno), message) from None
    if not states:
        raise ParseError(1, 1, "missing states declaration")
    return ModelFile(UpdsSpec(tuple(states), tuple(alphabet), tuple(rules)), sets)


def _undeclared(words: list[str], k: int, kind: str):
    """Raise the fault of words[k], a name that no declaration made. A
    declared name is never empty, so `names.get(word) or
    _undeclared(...)` gives the declared string or this fault."""
    raise _Fault(k, f"undeclared {kind} {words[k]!r}")


def _parse_rule(words, states, alphabet, rules):
    if len(words) < 5 or words[3] != "->":
        raise _Fault(0, "expected 'rule <state> <symbol> -> <state> ...'")
    from_state = states.get(words[1]) or _undeclared(words, 1, "state")
    read_symbol = alphabet.get(words[2]) or _undeclared(words, 2, "symbol")
    to_state = states.get(words[4]) or _undeclared(words, 4, "state")
    # The written word is built by its length, with no list to convert,
    # and the rule by one `tuple.__new__`: `UpdsSpec` takes it as it is.
    count = len(words)
    if count == 5:
        written = ()
    elif count < 8:
        written = (alphabet.get(words[5]) or _undeclared(words, 5, "symbol"),)
        if count == 7:
            written += (alphabet.get(words[6]) or _undeclared(words, 6, "symbol"),)
    else:
        raise _Fault(7, "a rule writes at most two symbols")
    rule = _new(Rule, (from_state, read_symbol, to_state, written))
    if rule in rules:
        raise _Fault(0, f"duplicate rule '{' '.join(words[1:])}'")
    rules[rule] = None


def _parse_set_line(words, lineno, line, states, alphabet, sets):
    if len(words) < 3:
        raise _Fault(0, "expected 'set <name> <state> <expression>'")
    name = words[1]
    _check_ident(name, 1)
    state = states.get(words[2]) or _undeclared(words, 2, "state")
    if len(words) < 4:
        raise _Fault(3, "missing expression")
    _, expr_col = _place(line, words, 3)
    ast = _parse_text(line[expr_col - 1 :], lineno, expr_col, alphabet, False)
    slices = sets.setdefault(name, {})
    if state in slices:
        raise _Fault(2, f"set {name!r} already has a {state!r} slice")
    slices[state] = ast


def print_config_literal(c: Configuration) -> str:
    """Inverse of `literal.parse_config_literal`."""
    return f"{c.state}: {' '.join((*c.upper, '^', *c.lower))}"


__getattr__ = _forward(__name__, extras="print_model")
