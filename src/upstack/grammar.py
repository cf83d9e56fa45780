"""The paper's grammar construction for forward reachability.

No step shrinks the total stack size (see `oracle`, whose size-capped
search decides membership exactly), which is why the paper's grammar for
post* is noncontracting. The module keeps that construction for DOT
export and as a cross-check in the tests. The query's regular start set
is first folded into the system itself (`single_origin`): an extended
system with one origin configuration <origin, eps, $> whose rules first
spell a chosen start configuration onto the lower stack (reading an
automaton for the reversed flattened word), then convert the barred
prefix into upper content, then hand control to the original rules.
The extension belongs to the grammar alone: the over-approximation
saturates from the start set itself. Start-set members with an empty
lower stack cannot be spelled that way (handing control back reads a
plain lower top), so the extension omits them; such configurations have
no successors at all. The extended system is then compiled into a
noncontracting grammar whose terminal words are exactly the flattened
reachable configurations, fenced by endpoint markers.

The extension's helpers live here too: fresh names (`fresh_name`, still
importable from `core`) and renaming an automaton's nodes (the methods
`Nfa.map_nodes` and `Nfa.relabel`). `is_reachable` still imports from
here and loads `membership` on first use, so loading the grammar loads
neither the search nor the over-approximation.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from . import _forward
from .configsets import ConfigAutomaton, is_barred, unbar
from .core import Configuration, Frozen, Rule, RuleKind, UpdsSpec
from .nfa import Nfa, Node

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


# -- the single-origin extension ----------------------------------------------


def fresh_name(used: set[str], base: str) -> str:
    """A name not in `used`, derived from base by appending primes; the
    chosen name is added to `used`."""
    name = base
    while name in used:
        name += "'"
    used.add(name)
    return name


def map_nodes(nfa: Nfa, fn: Callable[[Node], Node]) -> Nfa:
    """The automaton with each node renamed by fn (`Nfa.map_nodes`)."""
    return Nfa(map(fn, nfa.initial), map(fn, nfa.finals)).embed(nfa, node=fn)


def relabel(nfa: Nfa) -> Nfa:
    """Rename nodes to consecutive ints in breadth-first discovery order."""
    order: dict[Node, int] = {}
    queue: deque[Node] = deque()
    for n in nfa.initial:
        if n not in order:
            order[n] = len(order)
            queue.append(n)
    while queue:
        for _, dst in nfa.out_edges(queue.popleft()):
            if dst not in order:
                order[dst] = len(order)
                queue.append(dst)
    for n in nfa.nodes():
        if n not in order:
            order[n] = len(order)
    return map_nodes(nfa, lambda n: order[n])


class SingleOriginUpds(Frozen):
    """Extension of a system whose entire start set collapses to one
    configuration <origin_state, eps, dollar>."""

    def __init__(
        self,
        spec: UpdsSpec,
        origin: Configuration,
        original_states: tuple[str, ...],
    ) -> None:
        _set = object.__setattr__
        _set(self, "spec", spec)
        _set(self, "origin", origin)
        _set(self, "original_states", original_states)

    def _fields(self) -> tuple:
        return (self.spec, self.origin, self.original_states)


def _spelling_automaton(component: Nfa) -> Nfa:
    """Reverse the flattened-word automaton and normalize it to a single
    initial node 'i' without in-edges and a single final node 'f' without
    out-edges, epsilon-free. The empty word is dropped: spelling it would
    mean an empty-lower start configuration, which the caller excludes."""
    base = relabel(component.reverse().eps_eliminate().trim())
    out = Nfa()
    out.add_initial("i")
    out.add_final("f")
    for node in base.nodes():
        out.add_node(("n", node))
    for src, label, dst in base.edges():
        out.add_edge(("n", src), label, ("n", dst))
        if dst in base.finals:
            out.add_edge(("n", src), label, "f")
        if src in base.initial:
            out.add_edge("i", label, ("n", dst))
            if dst in base.finals:
                out.add_edge("i", label, "f")
    return out.trim()


def single_origin(spec: UpdsSpec, start_set: ConfigAutomaton) -> SingleOriginUpds:
    """Extended system reaching exactly the original post-image of
    start_set on the original control states (empty-lower members of the
    start set excepted; see the module docstring)."""
    start_set.check_against(spec, "start set")
    used_states = set(spec.states)
    used_symbols = set(spec.alphabet)
    bar_names = {s: fresh_name(used_symbols, s + "~") for s in spec.alphabet}
    dollar = fresh_name(used_symbols, "$")
    origin_state = fresh_name(used_states, "$origin")

    def ext_label(label) -> str:
        return bar_names[unbar(label)] if is_barred(label) else label

    states = list(spec.states) + [origin_state]
    alphabet = list(spec.alphabet) + [bar_names[s] for s in spec.alphabet] + [dollar]
    rules: list[Rule] = list(spec.rules)
    push_targets = list(spec.alphabet) + [bar_names[s] for s in spec.alphabet]

    for state in start_set.states():
        component = start_set.component(state)
        walk = _spelling_automaton(component)
        if walk.is_empty():
            continue
        names = {
            node: fresh_name(used_states, f"{state}@w{i}")
            for i, node in enumerate(walk.nodes())
        }
        final = names["f"]
        halfway = fresh_name(used_states, f"{state}@setting")
        states.extend(names[n] for n in walk.nodes() if n != "i")
        states.append(halfway)
        for src, label, dst in walk.edges():
            symbol = ext_label(label)
            if src == "i":
                rules.append(Rule(origin_state, dollar, names[dst], (symbol,)))
            else:
                for below in push_targets:
                    rules.append(Rule(names[src], below, names[dst], (symbol, below)))
        for s in spec.alphabet:
            rules.append(Rule(final, bar_names[s], halfway, (s,)))
            rules.append(Rule(halfway, s, final, ()))
        for s in spec.alphabet:
            rules.append(Rule(final, s, state, (s,)))

    ext = UpdsSpec(states=tuple(states), alphabet=tuple(alphabet), rules=tuple(rules))
    return SingleOriginUpds(
        spec=ext,
        origin=Configuration(origin_state, (), (dollar,)),
        original_states=spec.states,
    )


__getattr__ = _forward(__name__, membership="is_reachable")
