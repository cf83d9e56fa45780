"""Exact forward reachability for single configurations, and the
paper's grammar construction behind it.

is_reachable decides whether a configuration is reachable from a regular
start set. No step shrinks the total stack size (a pop moves a symbol
from one zone to the other; a push adds a lower cell and overwrites at
most one upper cell), so a breadth-first search from the start-set
members no larger than the target, never storing a larger
configuration, explores a finite region and decides membership exactly.

The same fact is why the paper's grammar for post* is noncontracting.
The module keeps that construction for DOT export and as a cross-check
in the tests. First the query's regular start set is folded into the
system itself: an extended system with one origin configuration
<origin, eps, $> whose rules first spell a chosen start configuration
onto the lower stack (reading an automaton for the reversed flattened
word), then convert the barred prefix into upper content, then hand
control to the original rules. Second, the extended system is compiled
into a noncontracting grammar whose terminal words are exactly the
flattened reachable configurations, fenced by endpoint markers.

Start-set members with an empty lower stack cannot be spelled by the
extended system (handing control back reads a plain lower top), so the
grammar omits them; such configurations have no successors at all.
"""

from __future__ import annotations

from typing import Mapping

from .configsets import ConfigAutomaton, is_barred, unbar
from .core import (
    Configuration,
    Frozen,
    Rule,
    RuleKind,
    UpdsSpec,
    check_configuration,
    fresh_name,
)
from .errors import ResourceLimitError
from .nfa import Nfa
from .oracle import search_trace

DEFAULT_CONFIG_BUDGET = 2_000_000

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


class SingleOriginUpds(Frozen):
    """Extension of a system whose entire start set collapses to one
    configuration <origin_state, eps, dollar>."""

    def __init__(
        self,
        spec: UpdsSpec,
        origin: Configuration,
        original_states: tuple[str, ...],
        original_alphabet: tuple[str, ...],
        bar_names: Mapping[str, str],
        dollar: str,
    ) -> None:
        _set = object.__setattr__
        _set(self, "spec", spec)
        _set(self, "origin", origin)
        _set(self, "original_states", original_states)
        _set(self, "original_alphabet", original_alphabet)
        _set(self, "bar_names", bar_names)
        _set(self, "dollar", dollar)

    def _fields(self) -> tuple:
        return (
            self.spec,
            self.origin,
            self.original_states,
            self.original_alphabet,
            self.bar_names,
            self.dollar,
        )


def _spelling_automaton(component: Nfa) -> Nfa:
    """Reverse the flattened-word automaton and normalize it to a single
    initial node 'i' without in-edges and a single final node 'f' without
    out-edges, epsilon-free. The empty word is dropped: spelling it would
    mean an empty-lower start configuration, which the caller excludes."""
    base = component.reverse().eps_eliminate().trim().relabel()
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
    start_set.validate()
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
        original_alphabet=spec.alphabet,
        bar_names=dict(bar_names),
        dollar=dollar,
    )


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


def derivable_forms(
    grammar: CsGrammar, max_len: int, form_budget: int = 500_000
) -> set[tuple]:
    """Every sentential form of length <= max_len, by exhaustive search.
    Test-sized grammars only."""
    seen = {(grammar.start,)}
    queue = [(grammar.start,)]
    while queue:
        form = queue.pop()
        for lhs, rhs in grammar.productions:
            span = len(lhs)
            if len(form) - span + len(rhs) > max_len:
                continue
            for i in range(len(form) - span + 1):
                if form[i : i + span] != lhs:
                    continue
                successor = form[:i] + rhs + form[i + span :]
                if successor in seen:
                    continue
                if len(seen) >= form_budget:
                    raise ResourceLimitError(len(seen), "form enumeration budget")
                seen.add(successor)
                queue.append(successor)
    return seen


def derivable_words(
    grammar: CsGrammar, max_len: int, form_budget: int = 500_000
) -> set[tuple]:
    """Every terminal word of length <= max_len."""
    return {
        form
        for form in derivable_forms(grammar, max_len, form_budget)
        if all(s in grammar.terminals for s in form)
    }


def is_reachable(
    spec: UpdsSpec,
    start_set: ConfigAutomaton,
    config: Configuration,
    budget: int = DEFAULT_CONFIG_BUDGET,
) -> bool:
    """Whether some member of start_set reaches config. budget counts the
    configurations the search stores (see the module docstring). The start
    set is validated once per set, and a set from `ModelFile.config_set`
    never: it is valid by construction."""
    check_configuration(spec, config)
    start_set.validate()
    starts = start_set.enumerate_configs(config.total_size)
    goal = (config.state, config.upper, config.lower)
    trace = search_trace(spec, starts, goal.__eq__, config.total_size, node_budget=budget)
    return trace is not None
