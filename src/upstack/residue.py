"""The residue-read checker: can the cell just above the stack pointer,
where a read past the end of the stack would find it, hold a given
symbol? It decides from the lower-stack summaries of `summaries` first
and poses what they leave open to the shared decision in `safety`,
which it loads only then; only `upstack check-read` runs it.
"""

from __future__ import annotations

from .checkers import SAFE, Verdict, _any_word, _spec_of, config_from_word
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

    The cell just above the boundary holds `symbol` right after a pop of
    it, or once a run grows back up to a copy that its start's upper word
    holds (see `summaries`), so the answer is Safe when the summaries show
    neither from any start member. Else a shortest start member from
    which they show one is replayed inside the configurations from which
    they still show one (`settle`), and what that leaves open goes to
    the `pre*` rounds of `safety`."""
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
    pops, growth = summaries.pops, summaries.growth
    barred = bar(symbol)

    def violates(r, a, d) -> bool:
        return symbol in pops.get((r, a), ()) or (d is not None and growth.get((r, a), 0) >= d)

    best = shortest_violation(summaries, spec.states, configs.components, violates, barred)
    if best is None:
        return Verdict(SAFE, k, node_budget, decided_by="lower-stack")

    anything = _any_word(spec.alphabet)
    return settle(
        spec,
        config_from_word(*best),
        lambda c: c.upper[-1:] == (symbol,),
        k,
        node_budget,
        configs,
        (("concat", (anything, ("sym", symbol))), anything),
        within=lambda c: summaries.shows(
            c.state, tuple(map(bar, c.upper)) + c.lower, violates, barred
        ),
    )
