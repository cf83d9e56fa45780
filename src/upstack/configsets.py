"""Regular sets of configurations.

A configuration <p, w_u, w_l> is flattened to the word bar(w_u) w_l: the
upper word with each symbol barred, then the lower word, reading away
from the boundary into the lower stack. A configuration automaton keeps
one NFA per control state over this two-track alphabet. The zone
discipline makes the flattening unambiguous: no plain-symbol edge may
precede a barred edge on any path from an initial node, so accepted
words always split as barred-prefix then plain-suffix.

What only some commands run lives in their modules, and what none runs
in `extras`: the zone projections and their product in `upperapprox`,
the walk of a set's members in `membership`, a shortest member and
`config_from_word` in `checkers`, `from_config_set` in `extras`. They
still import from here, and the methods load their bodies on first use.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from . import _forward, _MovedMethod
from .core import Configuration, UpdsSpec
from .errors import MalformedInputError
from .limits import DFA_STATE_BUDGET
from .nfa import Nfa, union

_BAR = "bar"


def bar(symbol: str) -> tuple[str, str]:
    return (_BAR, symbol)


def is_barred(label) -> bool:
    return isinstance(label, tuple) and len(label) == 2 and label[0] == _BAR


def unbar(label) -> str:
    if not is_barred(label):
        raise MalformedInputError(f"not a barred symbol: {label!r}")
    return label[1]


def config_word(c: Configuration) -> tuple:
    return tuple(bar(s) for s in c.upper) + tuple(c.lower)


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

    def accepts(self, c: Configuration) -> bool:
        nfa = self.components.get(c.state)
        return nfa.accepts(config_word(c)) if nfa is not None else False

    def is_empty(self) -> bool:
        return all(nfa.is_empty() for nfa in self.components.values())

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

    def compact(self, node_budget: int = DFA_STATE_BUDGET) -> "ConfigAutomaton":
        """Compact every component and drop the empty ones. Unless a
        component fell back on the budget, equal sets compact to sets that
        are `same`. The compaction of a valid set is valid: it keeps the
        labels, and each of its paths from an initial node spells a prefix
        of an accepted word of the set."""
        out: dict[str, Nfa] = {}
        for state, nfa in self.components.items():
            compacted = nfa.compact(node_budget)
            if not compacted.is_empty():
                out[state] = compacted
        compacted_set = ConfigAutomaton(self.alphabet, out)
        compacted_set._validated = self._validated
        return compacted_set

    def same(self, other: "ConfigAutomaton") -> bool:
        """Structural equality: the same states, and `same` components."""
        return self.components.keys() == other.components.keys() and all(
            nfa.same(other.components[state]) for state, nfa in self.components.items()
        )

    # Only membership walks the members, and only the checkers look for a
    # shortest one.
    members = _MovedMethod("membership")
    enumerate_configs = _MovedMethod("membership")
    shortest_config = _MovedMethod("checkers")


def check_alphabets(a: tuple[str, ...], b: tuple[str, ...]) -> None:
    """Raise MalformedInputError unless both alphabets hold the same symbols."""
    if set(a) != set(b):
        raise MalformedInputError(f"alphabet mismatch: {sorted(a)} vs {sorted(b)}")


def union_sets(a: ConfigAutomaton, b: ConfigAutomaton) -> ConfigAutomaton:
    check_alphabets(a.alphabet, b.alphabet)
    out: dict[str, Nfa] = {}
    for state in list(a.components) + [s for s in b.components if s not in a.components]:
        parts = [x.components[state] for x in (a, b) if state in x.components]
        out[state] = parts[0] if len(parts) == 1 else union(parts)
    return ConfigAutomaton(a.alphabet, out)


def intersect_sets(a: ConfigAutomaton, b: ConfigAutomaton) -> ConfigAutomaton:
    from .product import intersection

    check_alphabets(a.alphabet, b.alphabet)
    out: dict[str, Nfa] = {}
    for state, nfa in a.components.items():
        other = b.components.get(state)
        if other is not None:
            out[state] = intersection(nfa, other)
    return ConfigAutomaton(a.alphabet, out)


__getattr__ = _forward(
    __name__,
    upperapprox="project_lower project_upper upper_lower_product",
    checkers="config_from_word",
    extras="from_config_set",
)
