"""Thompson's construction for boundary-marker regexes, kept as the
reference that `regex.compile_config_regex` is pinned against.

Every AST node gets its own start and end node joined by epsilon edges,
so the automaton has many epsilon edges and about two nodes per AST node.
A branch joins its upper (barred) part to its lower (plain) part by one
epsilon edge with no edge back. Tests also use it as a source of sets
with epsilon edges, which the position automaton never has.
"""

from __future__ import annotations

from typing import Iterable

from upstack.configsets import bar
from upstack.errors import MalformedInputError
from upstack.nfa import EPSILON, Nfa
from upstack.regex import parse_config_regex


class _Builder:
    def __init__(self, symbols: set[str] | None):
        self.nfa = Nfa()
        self.count = 0
        self.symbols = symbols

    def fresh(self) -> int:
        self.count += 1
        self.nfa.add_node(self.count - 1)
        return self.count - 1

    def build(self, ast: tuple, barred: bool) -> tuple[int, int]:
        kind = ast[0]
        start, end = self.fresh(), self.fresh()
        if kind == "sym":
            if self.symbols is not None and ast[1] not in self.symbols:
                raise MalformedInputError(f"undeclared symbol {ast[1]!r}")
            label = bar(ast[1]) if barred else ast[1]
            self.nfa.add_edge(start, label, end)
        elif kind == "empty":
            self.nfa.add_edge(start, EPSILON, end)
        elif kind == "star":
            s, e = self.build(ast[1], barred)
            self.nfa.add_edge(start, EPSILON, s)
            self.nfa.add_edge(e, EPSILON, end)
            self.nfa.add_edge(start, EPSILON, end)
            self.nfa.add_edge(e, EPSILON, s)
        elif kind == "concat":
            prev = start
            for part in ast[1]:
                s, e = self.build(part, barred)
                self.nfa.add_edge(prev, EPSILON, s)
                prev = e
            self.nfa.add_edge(prev, EPSILON, end)
        elif kind == "alt":
            for part in ast[1]:
                s, e = self.build(part, barred)
                self.nfa.add_edge(start, EPSILON, s)
                self.nfa.add_edge(e, EPSILON, end)
        else:
            raise MalformedInputError(f"not a regex node: {ast!r}")
        return start, end


def thompson_config_regex(source: str | tuple, alphabet: Iterable[str] | None = None) -> Nfa:
    """The Thompson automaton of a boundary-marker regex (text or AST)."""
    symbols = None if alphabet is None else set(alphabet)
    ast = parse_config_regex(source, alphabet=symbols) if isinstance(source, str) else source
    builder = _Builder(symbols)
    start = builder.fresh()
    builder.nfa.add_initial(start)
    accept = builder.fresh()
    builder.nfa.add_final(accept)
    for upper, lower in ast[1]:
        us, ue = builder.build(upper, barred=True)
        ls, le = builder.build(lower, barred=False)
        builder.nfa.add_edge(start, EPSILON, us)
        builder.nfa.add_edge(ue, EPSILON, ls)
        builder.nfa.add_edge(le, EPSILON, accept)
    return builder.nfa
