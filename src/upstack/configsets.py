"""Regular sets of configurations.

A configuration <p, w_u, w_l> is flattened to the word bar(w_u) w_l: the
upper word with each symbol barred, then the lower word, reading away
from the boundary into the lower stack. A configuration automaton keeps
one NFA per control state over this two-track alphabet. The zone
discipline makes the flattening unambiguous: no plain-symbol edge may
precede a barred edge on any path from an initial node, so accepted
words always split as barred-prefix then plain-suffix.

This module holds what compiling a set, checking it against a system
and walking its members need. The set algebra, which only the analyses
run, lives with the automaton algebra in `compaction`: `accepts`,
`is_empty`, `compact` and `same` are methods whose bodies load on first
use, and `config_word`, `check_alphabets`, `union_sets` and
`intersect_sets` still import from here. What only some commands run
lives in their modules, and what none runs in `extras`: the walk of a
set's members in `membership`, a shortest member and `config_from_word`
in `checkers`, and `from_config_set` and the zone projections and their
product in `extras`. They still import from here, and the methods load
their bodies on first use.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from . import _forward, _MovedMethod
from .core import UpdsSpec
from .errors import MalformedInputError
from .nfa import Nfa

_BAR = "bar"


def bar(symbol: str) -> tuple[str, str]:
    return (_BAR, symbol)


def is_barred(label) -> bool:
    return isinstance(label, tuple) and len(label) == 2 and label[0] == _BAR


def unbar(label) -> str:
    if not is_barred(label):
        raise MalformedInputError(f"not a barred symbol: {label!r}")
    return label[1]


class ConfigAutomaton:
    """One NFA per control state; missing states denote empty slices.

    Like an `Nfa`, a set is treated as immutable once it is handed out, so
    a fact established about it stays true. It records one: that it passed
    `validate`, which then returns at once. Sets compiled from expressions
    over the alphabet hold by construction (`ModelFile.config_set` and the
    checkers' sets are marked), and so does the compaction of a valid set,
    so no command scans a set."""

    _validated = False

    def __init__(self, alphabet: Iterable[str], components: Mapping[str, Nfa] | None = None):
        self.alphabet: tuple[str, ...] = tuple(alphabet)
        self.components: dict[str, Nfa] = dict(components or {})

    def component(self, state: str) -> Nfa:
        return self.components.get(state, Nfa())

    def states(self) -> list[str]:
        return list(self.components)

    def validate(self) -> None:
        """Check labels against the alphabet and the zone discipline, once
        per set: a set that passed returns at once."""
        if not self._validated:
            self._scan()
            self._validated = True

    def check_against(self, spec: UpdsSpec, what: str) -> None:
        """Check a caller-built set against the system it is used with:
        its states are declared there, its alphabet holds only declared
        symbols, and it passes `validate`. `what` names the set in the
        error."""
        for state in self.components:
            if state not in spec.states:
                raise MalformedInputError(f"undeclared state {state!r} in {what}")
        spec.check_word(self.alphabet, f"{what} alphabet")
        self.validate()

    # No command scans a set (see the class docstring).
    _scan = _MovedMethod("extras")

    # The set algebra (see the module docstring).
    accepts = _MovedMethod("compaction", "set_accepts")
    is_empty = _MovedMethod("compaction", "set_is_empty")
    compact = _MovedMethod("compaction", "set_compact")
    same = _MovedMethod("compaction", "set_same")

    # Only membership walks the members, and only the checkers look for a
    # shortest one.
    members = _MovedMethod("membership")
    enumerate_configs = _MovedMethod("membership")
    shortest_config = _MovedMethod("checkers")


__getattr__ = _forward(
    __name__,
    checkers="config_from_word",
    extras="from_config_set project_lower project_upper upper_lower_product",
    compaction="config_word check_alphabets union union_sets intersect_sets",
    core="Configuration",
    limits="DFA_STATE_BUDGET",
)
