"""Saturation-based reachability for the lower stack alone.

Under the lower-stack-only reading a rule rewrites the top of the single
stack: (p, a) -> (p', w) sends <p, a v> to <p', w v>. Enabledness never
depends on the upper stack, so these closures are exact for the lower
projection of the two-stack semantics as well.

Both directions use P-automaton saturation over one shared NFA whose
entry nodes stand for control states: <p, w> is in the set when w runs
from entry(p) to a final node. Entry nodes carry no incoming edges on
input, which the saturation rules rely on; pds_post_star additionally
introduces one auxiliary node per push rule, named by rule index so
output is reproducible. The backward saturation, `pds_pre_star`, the
one-element set `singleton_lower`, and the membership test, word
listing and one state's slice (`LowerAutomaton.slice`) of a
`LowerAutomaton`, which no command runs, live in `extras`; they still
import from here. The over-approximation reads the shared automaton
from each state's entry and slices nothing.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from . import _forward, _MovedMethod
from .core import UpdsSpec
from .errors import MalformedInputError
from .nfa import EPSILON, Nfa

_ENTRY = "entry"
_SLICE = "slice"
_AUX = "aux"


def entry_node(state: str) -> tuple[str, str]:
    return (_ENTRY, state)


class LowerAutomaton:
    """Per-control-state regular sets of lower-stack words."""

    def __init__(self, alphabet: Iterable[str], nfa: Nfa, entries: Mapping[str, object]):
        self.alphabet: tuple[str, ...] = tuple(alphabet)
        self.nfa = nfa
        self.entries: dict[str, object] = dict(entries)

    @classmethod
    def from_slices(
        cls,
        states: Iterable[str],
        alphabet: Iterable[str],
        slices: Mapping[str, Nfa],
    ) -> "LowerAutomaton":
        """Bundle per-state NFAs into one shared automaton. Every state in
        `states` gets an entry node even when its slice is empty, so
        saturation has an anchor for rules targeting it."""
        alphabet = tuple(alphabet)
        symbols = set(alphabet)
        nfa = Nfa()
        entries: dict[str, object] = {}
        for state in states:
            entries[state] = nfa.add_node(entry_node(state))
        for state, part in slices.items():
            if state not in entries:
                raise MalformedInputError(f"slice for undeclared state {state!r}")
            for label in part.labels():
                if label not in symbols:
                    raise MalformedInputError(
                        f"slice {state!r}: undeclared symbol in label {label!r}"
                    )
            nfa.embed(part, lambda node: (_SLICE, state, node))
            for node in part.initial:
                nfa.add_edge(entries[state], EPSILON, (_SLICE, state, node))
            for node in part.finals:
                nfa.add_final((_SLICE, state, node))
        return cls(alphabet, nfa, entries)

    def copy(self) -> "LowerAutomaton":
        return LowerAutomaton(self.alphabet, self.nfa.copy(), self.entries)

    # No command tests or lists a lower set's words.
    accepts = _MovedMethod("extras", "lower_accepts")
    words_up_to = _MovedMethod("extras", "lower_words_up_to")

    # One state's words on their own, which no command takes.
    slice = _MovedMethod("extras", "lower_slice")


def pds_post_star(spec: UpdsSpec, init: LowerAutomaton) -> LowerAutomaton:
    """Forward closure: accepts <p', w'> iff reachable from some accepted
    <p, w>. Saturation: with n ranging over nodes readable as a from
    entry(p), a switch rule (p, a) -> (p', b) adds entry(p') --b--> n, a
    pop rule adds entry(p') --eps--> n, and a push rule (p, a) -> (p', bc)
    routes entry(p') --b--> aux(rule) --c--> n."""
    out = init.copy()
    nfa, entries = out.nfa, out.entries
    aux: dict[int, object] = {}
    for index, rule in enumerate(spec.rules):
        if len(rule.written) == 2:
            aux[index] = nfa.add_node((_AUX, index))

    def additions():
        for index, rule in enumerate(spec.rules):
            src = entries[rule.to_state]
            written = rule.written
            for node in nfa.step((entries[rule.from_state],), rule.read_symbol):
                if len(written) == 0:
                    yield src, EPSILON, node
                elif len(written) == 1:
                    yield src, written[0], node
                else:
                    yield src, written[0], aux[index]
                    yield aux[index], written[1], node

    nfa.saturate(additions)
    return out


__getattr__ = _forward(__name__, extras="pds_pre_star singleton_lower")
