"""The paper's grammar construction for forward reachability.

No step shrinks the total stack size (see `oracle`, whose size-capped
search decides membership exactly), which is why the paper's grammar for
post* is noncontracting. The module keeps that construction for DOT
export and as a cross-check in the tests. The query's regular start set
is first folded into the system itself (`upperapprox.single_origin`), so
that one origin configuration stands for the whole set; the extended
system is then compiled into a noncontracting grammar whose terminal
words are exactly the flattened reachable configurations, fenced by
endpoint markers. Start-set members with an empty lower stack are
omitted, as in the extension.

`is_reachable`, `single_origin`, `SingleOriginUpds` and
`DEFAULT_CONFIG_BUDGET` still import from here; each loads its own
module on first use, so loading the grammar loads neither the search
nor the over-approximation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import _forward
from .core import Configuration, Frozen, RuleKind

if TYPE_CHECKING:
    from .upperapprox import SingleOriginUpds

TOP = ("top",)
BOTTOM = ("bottom",)


def state_terminal(state: str) -> tuple:
    return ("st", state)


def symbol_terminal(symbol: str) -> tuple:
    return ("sym", symbol)


def state_marker(state: str) -> tuple:
    return ("B.st", state)


def symbol_marker(symbol: str) -> tuple:
    return ("B.sym", symbol)


class CsGrammar(Frozen):
    """Context-sensitive grammar over tagged tuple symbols."""

    def __init__(
        self,
        terminals: frozenset,
        nonterminals: frozenset,
        productions: tuple[tuple[tuple, tuple], ...],
        start: tuple,
    ) -> None:
        _set = object.__setattr__
        _set(self, "terminals", terminals)
        _set(self, "nonterminals", nonterminals)
        _set(self, "productions", productions)
        _set(self, "start", start)

    def _fields(self) -> tuple:
        return (self.terminals, self.nonterminals, self.productions, self.start)

    def noncontracting_violations(self) -> list[tuple[tuple, tuple]]:
        return [(lhs, rhs) for lhs, rhs in self.productions if len(lhs) > len(rhs)]


def encode_config(c: Configuration) -> tuple:
    """Flatten a configuration into the grammar's terminal alphabet."""
    return (
        (TOP,)
        + tuple(symbol_terminal(s) for s in c.upper)
        + (state_terminal(c.state),)
        + tuple(symbol_terminal(s) for s in c.lower)
        + (BOTTOM,)
    )


def build_post_grammar(so: SingleOriginUpds) -> CsGrammar:
    """Grammar deriving exactly {encode(c) : c reachable from so.origin}.

    Each rule of the extended system becomes a small production group
    that walks a tag across the boundary marker; a final group rewrites
    markers into terminals outward from the control-state position, so a
    derivation can stop at any reachable configuration and nowhere else.
    """
    spec = so.spec
    start = ("S",)
    productions: list[tuple[tuple, tuple]] = [
        (
            (start,),
            (
                TOP,
                state_marker(so.origin.state),
                symbol_marker(so.origin.lower[0]),
                BOTTOM,
            ),
        )
    ]
    for index, rule in enumerate(spec.rules):
        p = state_marker(rule.from_state)
        q = state_marker(rule.to_state)
        a = symbol_marker(rule.read_symbol)
        tag = ("r", index)
        if rule.kind is RuleKind.SWITCH:
            b = symbol_marker(rule.written[0])
            productions.append(((p, a), (tag, a)))
            productions.append(((tag, a), (tag, b)))
            productions.append(((tag, b), (q, b)))
        elif rule.kind is RuleKind.POP:
            productions.append(((p, a), (p, tag)))
            productions.append(((p, tag), (a, tag)))
            productions.append(((a, tag), (a, q)))
        else:
            b = symbol_marker(rule.written[0])
            c = symbol_marker(rule.written[1])
            t0 = ("r0", index)
            t1 = ("r1", index)
            productions.append(((p, a), (t0, a)))
            for x in spec.alphabet:
                productions.append(((symbol_marker(x), t0), (t1, t0)))
            productions.append(((TOP, t0), (TOP, t1, t0)))
            productions.append(((t1, t0, a), (t1, t0, c)))
            productions.append(((t1, t0, c), (t1, b, c)))
            productions.append(((t1, b, c), (q, b, c)))
    markers = [(state_marker(p), state_terminal(p)) for p in spec.states]
    markers += [(symbol_marker(s), symbol_terminal(s)) for s in spec.alphabet]
    for marker, terminal in markers:
        if marker[0] == "B.st":
            productions.append(((marker,), (terminal,)))
    for marker, terminal in markers:
        for _, context in markers:
            productions.append(((marker, context), (terminal, context)))
            productions.append(((context, marker), (context, terminal)))
    terminals = (
        {TOP, BOTTOM}
        | {state_terminal(p) for p in spec.states}
        | {symbol_terminal(s) for s in spec.alphabet}
    )
    nonterminals = (
        {start}
        | {m for m, _ in markers}
        | {tag for lhs, rhs in productions for tag in lhs + rhs}
    ) - terminals
    return CsGrammar(
        terminals=frozenset(terminals),
        nonterminals=frozenset(nonterminals),
        productions=tuple(productions),
        start=start,
    )


__getattr__ = _forward(
    __name__,
    membership="is_reachable",
    upperapprox="single_origin SingleOriginUpds",
    limits="DEFAULT_CONFIG_BUDGET",
)
