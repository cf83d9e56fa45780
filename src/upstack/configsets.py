"""Regular sets of configurations.

A configuration <p, w_u, w_l> is flattened to the word bar(w_u) w_l: the
upper word with each symbol barred, then the lower word, reading away
from the boundary into the lower stack. A configuration automaton keeps
one NFA per control state over this two-track alphabet. The zone
discipline makes the flattening unambiguous: no plain-symbol edge may
precede a barred edge on any path from an initial node, so accepted
words always split as barred-prefix then plain-suffix.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from .core import ConfigTuple, Configuration, UpdsSpec, Word
from .errors import MalformedInputError
from .limits import DFA_STATE_BUDGET
from .nfa import EPSILON, Nfa, from_words, intersection, union

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


def config_from_word(state: str, word: Iterable) -> Configuration:
    upper: list[str] = []
    lower: list[str] = []
    for label in word:
        if is_barred(label):
            if lower:
                raise MalformedInputError(
                    f"barred symbol after plain symbols in {tuple(word)!r}"
                )
            upper.append(unbar(label))
        else:
            lower.append(label)
    return Configuration(state, tuple(upper), tuple(lower))


def _extend_zones(c: ConfigTuple, label) -> ConfigTuple | None:
    state, upper, lower = c
    if not is_barred(label):
        return state, upper, lower + (label,)
    return None if lower else (state, upper + (label[1],), lower)


class ConfigAutomaton:
    """One NFA per control state; missing states denote empty slices.

    Like an `Nfa`, a set is treated as immutable once it is handed out, so
    a fact established about it stays true. It records one: that it passed
    `validate`, which then returns at once (`ModelFile.config_set` hands
    out sets that hold by construction)."""

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

    def _scan(self) -> None:
        symbols = set(self.alphabet)
        for state, nfa in self.components.items():
            for _, label, _ in nfa.edges():
                if label is EPSILON:
                    continue
                plain = label if not is_barred(label) else unbar(label)
                if plain not in symbols:
                    raise MalformedInputError(
                        f"component {state!r}: undeclared symbol in label {label!r}"
                    )
            # Taint scan: a node is tainted once a plain edge was crossed;
            # no barred edge may leave a tainted node.
            seen: set[tuple[object, bool]] = set()
            stack = [(n, False) for n in nfa.initial]
            seen.update(stack)
            while stack:
                node, tainted = stack.pop()
                for label, dst in nfa.out_edges(node):
                    if label is EPSILON:
                        nxt = tainted
                    elif is_barred(label):
                        if tainted:
                            raise MalformedInputError(
                                f"component {state!r}: barred edge after a plain edge"
                            )
                        nxt = False
                    else:
                        nxt = True
                    if (dst, nxt) not in seen:
                        seen.add((dst, nxt))
                        stack.append((dst, nxt))

    def compact(self, node_budget: int = DFA_STATE_BUDGET) -> "ConfigAutomaton":
        """Compact every component and drop the empty ones. Unless a
        component fell back on the budget, equal sets compact to sets that
        are `same`."""
        out: dict[str, Nfa] = {}
        for state, nfa in self.components.items():
            compacted = nfa.compact(node_budget)
            if not compacted.is_empty():
                out[state] = compacted
        return ConfigAutomaton(self.alphabet, out)

    def same(self, other: "ConfigAutomaton") -> bool:
        """Structural equality: the same states, and `same` components."""
        return self.components.keys() == other.components.keys() and all(
            nfa.same(other.components[state]) for state, nfa in self.components.items()
        )

    def shortest_config(self) -> Configuration | None:
        best: tuple[int, str, tuple] | None = None
        for state, nfa in self.components.items():
            word = nfa.shortest_word()
            if word is not None and (best is None or len(word) < best[0]):
                best = (len(word), state, word)
        if best is None:
            return None
        return config_from_word(best[1], best[2])

    def members(self, max_len: int) -> Iterator[ConfigTuple]:
        """The accepted configurations of total stack size <= max_len as
        (state, upper, lower) tuples: state by state in component order,
        each state's in `Nfa.walk` order of their flattened words. Each word
        is split into its zones as it is extended, and a barred label is
        never added after a plain one."""
        for state, nfa in self.components.items():
            yield from nfa.walk(max_len, _extend_zones, (state, (), ()))

    def enumerate_configs(self, max_len: int) -> list[Configuration]:
        """All accepted configurations of total stack size <= max_len, in
        `members` order."""
        return [Configuration(*c) for c in self.members(max_len)]

    def summary(self) -> str:
        parts = []
        for state, nfa in sorted(self.components.items()):
            parts.append(f"{state}: {len(nfa.nodes())} nodes, {nfa.edge_count()} edges")
        return "; ".join(parts) if parts else "empty"


def from_config_set(spec: UpdsSpec, configs: Iterable[Configuration]) -> ConfigAutomaton:
    by_state: dict[str, list[tuple]] = {}
    for c in configs:
        if c.state not in spec.states:
            raise MalformedInputError(f"undeclared state {c.state!r}")
        spec.check_word(c.upper, "upper word")
        spec.check_word(c.lower, "lower word")
        by_state.setdefault(c.state, []).append(config_word(c))
    return ConfigAutomaton(
        spec.alphabet,
        {state: from_words(words) for state, words in by_state.items()},
    )


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
    check_alphabets(a.alphabet, b.alphabet)
    out: dict[str, Nfa] = {}
    for state, nfa in a.components.items():
        other = b.components.get(state)
        if other is not None:
            out[state] = intersection(nfa, other)
    return ConfigAutomaton(a.alphabet, out)


def project_lower(a: ConfigAutomaton) -> dict[str, Nfa]:
    """Per-state NFAs for the lower words (upper zone erased)."""
    return {
        state: nfa.map_labels(lambda l: EPSILON if is_barred(l) else l)
        for state, nfa in a.components.items()
    }


def project_upper(a: ConfigAutomaton) -> dict[str, Nfa]:
    """Per-state NFAs for the upper words (bars dropped, lower zone erased)."""
    return {
        state: nfa.map_labels(lambda l: unbar(l) if is_barred(l) else EPSILON)
        for state, nfa in a.components.items()
    }


def upper_lower_product(
    alphabet: Iterable[str],
    upper: Mapping[str, Nfa],
    lower: Mapping[str, Nfa],
) -> ConfigAutomaton:
    """Per-state product set {<p, u, l> : u in upper[p], l in lower[p]},
    given NFAs over the plain alphabet for both zones."""
    out: dict[str, Nfa] = {}
    for state, up in upper.items():
        low = lower.get(state)
        if low is None:
            continue
        component = Nfa(("u", n) for n in up.initial)
        component.embed(up, lambda n: ("u", n), bar)
        component.embed(low, lambda n: ("l", n))
        for n in up.finals:
            for m in low.initial:
                component.add_edge(("u", n), EPSILON, ("l", m))
        for n in low.finals:
            component.add_final(("l", n))
        out[state] = component
    return ConfigAutomaton(alphabet, out)
