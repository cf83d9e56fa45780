"""Pushdown systems with an upper stack: model and one-step semantics.

A system manipulates two stacks joined at a boundary. The *lower* stack is
the classic pushdown stack; its leftmost symbol is the top. The *upper*
stack records what sits above the boundary: its rightmost symbol is the
one adjacent to the boundary, its leftmost the one farthest away.

Rules read the lower top and are classified by how many symbols they
write back:

* pop (0): the read symbol is removed from the lower stack and appended
  at the right end of the upper word; it remains visible there.
* switch (1): the lower top is rewritten in place; the upper word is
  untouched.
* push (2): the lower top is replaced by two symbols, and the rightmost
  upper symbol is overwritten, i.e. deleted, unless the upper word is
  already empty.

No rule fires on an empty lower stack.

The one-step semantics on `Configuration` objects (`successors`, `step`,
`apply_rule`, `run_trace`), the trace facts `trace_upper_word` and
`count_phases`, and `make_spec`, which builds a system from plain
tuples, live in `extras`, which no command loads, and `fresh_name` in
`grammar`, its one user; they
still import from here. The bodies of `UpdsSpec.rules_reading`, of a
rule's `repr` and of a configuration's `str` are in `extras` too; they
stay methods of their classes.
So does `RuleKind`, the enum that `Rule.kind` gives: it lives in
`grammar`, the one module on a command's path that reads a rule's kind,
so only `export-dot --grammar` creates it.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Sequence

from . import _forward, _MovedMethod
from .errors import MalformedInputError

Word = tuple[str, ...]


# The records below are plain classes (and `Rule` a tuple) rather than
# dataclasses: importing dataclasses and generating their methods costs
# every CLI call at start-up.
class Frozen:
    """Base of the package's immutable records: any assignment or
    deletion of an attribute raises AttributeError. Each record lists its
    constructor arguments in `_fields`, which equality, hashing, copying
    and pickling go through."""

    __slots__ = ()

    def _fields(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self):
        # Rebuild through __init__: restoring slots by setattr would hit
        # the frozen __setattr__.
        return (self.__class__, self._fields())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Rule(tuple):
    """A rewrite rule (from_state, read_symbol) -> (to_state, written).

    Like a named tuple, a rule is the tuple of its four fields, which it
    also names: immutable, equal and hashed by its fields, and pickled
    through its constructor. Being a tuple, it is built by one call of
    `tuple.__new__`, with no attribute set one at a time (see the model
    parser and `extras.make_spec`)."""

    __slots__ = ()

    def __new__(
        cls, from_state: str, read_symbol: str, to_state: str, written: Word = ()
    ) -> "Rule":
        if len(written) > 2:
            raise MalformedInputError(
                f"rule may write at most two symbols, got {written!r}"
            )
        return tuple.__new__(cls, (from_state, read_symbol, to_state, written))

    from_state = property(itemgetter(0))
    read_symbol = property(itemgetter(1))
    to_state = property(itemgetter(2))
    written = property(itemgetter(3))

    def __reduce__(self):
        return (self.__class__, tuple(self))

    # No command shows a rule's repr.
    __repr__ = _MovedMethod("extras", "rule_repr")

    @property
    def kind(self) -> RuleKind:
        from .grammar import RuleKind

        return (RuleKind.POP, RuleKind.SWITCH, RuleKind.PUSH)[len(self[3])]

    def __str__(self) -> str:
        rhs = " ".join((self[2],) + self[3])
        return f"{self[0]} {self[1]} -> {rhs}"


class UpdsSpec(Frozen):
    """A system: control states, stack alphabet, rules (in declaration
    order, which tie-breaks every deterministic enumeration downstream)."""

    def __init__(
        self, states: tuple[str, ...], alphabet: tuple[str, ...], rules: tuple[Rule, ...]
    ) -> None:
        _set = object.__setattr__
        _set(self, "states", states)
        _set(self, "alphabet", alphabet)
        _set(self, "rules", rules)
        state_set = frozenset(states)
        symbols = frozenset(alphabet)
        # Each check is one C-level operation, a hash lookup or a set's
        # size; only a failed one scans the parts, to word the first error.
        if not (
            all(states)
            and all(alphabet)
            and len(state_set) == len(states)
            and len(symbols) == len(alphabet)
            and len(set(rules)) == len(rules)
        ):
            self._reject()
        # (state, lower top) -> move entries of the rules reading it, in
        # declaration order: the table a step applies (`oracle.explore`).
        # (to_state, written) -> (from_state, read_symbol) of the rules
        # writing it, in declaration order: the table a backward step
        # undoes (`membership.search`). Groups are short, so each grows
        # as a tuple. Only `member` reads the second table, on its first
        # backward step, yet it is built here: it takes about 2 µs a
        # system (0.4 ms for the 201 of the membership benchmark), and a
        # lazily built one would add that to the first query of each
        # system, most of which get one query of about 20 µs.
        moves, into = {}, {}
        reading, writing = moves.get, into.get
        for rule in rules:
            from_state, read_symbol, to_state, written = rule
            if (
                from_state not in state_set
                or read_symbol not in symbols
                or to_state not in state_set
                or not symbols.issuperset(written)
            ):
                self._reject()
            key, out = (from_state, read_symbol), (to_state, written)
            moves[key] = reading(key, ()) + ((rule, to_state, len(written), written),)
            into[out] = writing(out, ()) + (key,)
        _set(self, "_state_set", state_set)
        _set(self, "_symbols", symbols)
        _set(self, "moves", moves)
        _set(self, "moves_into", into)

    def _fields(self) -> tuple:
        return (self.states, self.alphabet, self.rules)

    # The rules reading a state and a lower top; no command asks.
    rules_reading = _MovedMethod("extras")
    # The scan that words the error of a system failing a check; every
    # system a command builds passes them.
    _reject = _MovedMethod("extras")

    def check_word(self, word: Sequence[str], what: str = "word") -> Word:
        for sym in word:
            if sym not in self._symbols:
                raise MalformedInputError(f"undeclared symbol {sym!r} in {what}")
        return tuple(word)


class Configuration(Frozen):
    """A control state plus the two stack words."""

    __slots__ = ("state", "upper", "lower")

    def __init__(self, state: str, upper: Word, lower: Word) -> None:
        _set = object.__setattr__
        _set(self, "state", state)
        _set(self, "upper", upper)
        _set(self, "lower", lower)

    # No command shows a configuration's repr.
    __repr__ = _MovedMethod("extras", "config_repr")

    def _fields(self) -> tuple:
        return (self.state, self.upper, self.lower)

    @property
    def total_size(self) -> int:
        return len(self.upper) + len(self.lower)

    # No command prints a configuration this way: the CLI prints literals.
    __str__ = _MovedMethod("extras", "config_str")


# A move entry of UpdsSpec.moves: (rule, to_state, arity, written), and
# a configuration as the search stores it: (state, upper, lower).
Move = tuple[Rule, str, int, Word]
ConfigTuple = tuple[str, Word, Word]

Trace = tuple[Rule, ...]

_new = tuple.__new__


def check_configuration(spec: UpdsSpec, c: Configuration) -> Configuration:
    if c.state not in spec._state_set:
        raise MalformedInputError(f"undeclared state {c.state!r} in configuration")
    spec.check_word(c.upper, "upper word")
    spec.check_word(c.lower, "lower word")
    return c


__getattr__ = _forward(
    __name__,
    extras="successors apply_rule step run_trace trace_upper_word count_phases make_spec",
    grammar="RuleKind fresh_name",
)
