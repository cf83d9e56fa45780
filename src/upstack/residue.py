"""The residue-read checker: can the cell just above the stack pointer,
where a read past the end of the stack would find it, hold a given
symbol? It decides from the lower-stack summaries of `summaries` first
and poses what they leave open to the shared decision in `checkers`;
only `upstack check-read` runs it.
"""

from __future__ import annotations

from .checkers import (
    SAFE, Verdict, _all_states_set, _any_word, _spec_of, config_from_word, decide_safety,
)
from .configsets import ConfigAutomaton, bar
from .core import UpdsSpec
from .errors import MalformedInputError
from .limits import DEFAULT_PHASES, DFA_STATE_BUDGET
from .model import ModelFile
from .summaries import Summaries, settle, shortest_violation


def check_upper_read(
    model: ModelFile | UpdsSpec,
    configs: str | ConfigAutomaton,
    symbol: str,
    k: int = DEFAULT_PHASES,
    node_budget: int = DFA_STATE_BUDGET,
) -> Verdict:
    """Can `symbol` sit in the cell just above the boundary — where a
    read past the end of the stack would pick it up — in some reachable
    configuration? `configs` is a set name (with a ModelFile) or a
    configuration automaton.

    Every cell above the boundary holds a popped symbol or a start upper
    symbol, so the answer is Safe when no run pops `symbol` and no start
    upper word holds it. Else a shortest start member from which a run
    pops it is replayed inside the configurations that can still pop it
    (`settle`), and what that leaves open goes to `decide_safety`."""
    spec = _spec_of(model)
    if symbol not in spec.alphabet:
        raise MalformedInputError(f"undeclared symbol {symbol!r}")
    if isinstance(configs, str):
        if not isinstance(model, ModelFile):
            raise MalformedInputError(
                "a set name needs a ModelFile; pass a ConfigAutomaton instead"
            )
        configs = model.config_set(configs)
    configs.check_against(spec, "start set")
    summaries = Summaries(spec)
    pops = summaries.pops
    best = shortest_violation(
        summaries, spec.states, configs.components,
        lambda r, a, d: symbol in pops.get((r, a), ()),
    )
    barred = bar(symbol)
    held = any(
        barred in row for nfa in configs.components.values() for row in nfa._edges.values()
    )
    if best is None and not held:
        return Verdict(SAFE, k, node_budget, decided_by="lower-stack")

    def fallback() -> Verdict:
        anything = _any_word(spec.alphabet)
        ending_with = ("concat", (anything, ("sym", symbol)))
        forbidden = _all_states_set(spec, ending_with, anything)
        return decide_safety(spec, configs, forbidden, k, node_budget)

    def ends(c) -> bool:
        return c.upper[-1:] == (symbol,)

    return settle(
        spec,
        best and config_from_word(*best),
        ends,
        k,
        node_budget,
        fallback,
        within=lambda c: ends(c) or summaries.can_pop(c.state, c.lower, symbol),
    )
