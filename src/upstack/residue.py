"""The residue-read checker: can the cell just above the stack pointer,
where a read past the end of the stack would find it, hold a given
symbol? It decides from the lower-stack summaries of `summaries`, and
within k phases from those of the system's phase-counting copy in
`phasecopy`, which it loads only once the first show a violation; only
`upstack check-read` runs it.
"""

from __future__ import annotations

from .checkers import Verdict, _spec_of, decide_on_lower_stack
from .configsets import ConfigAutomaton, bar
from .core import UpdsSpec
from .errors import MalformedInputError
from .limits import DEFAULT_NODE_BUDGET, DEFAULT_PHASES
from .model import ModelFile


def check_upper_read(
    model: ModelFile | UpdsSpec,
    configs: str | ConfigAutomaton,
    symbol: str,
    k: int = DEFAULT_PHASES,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Verdict:
    """Can `symbol` sit in the cell just above the boundary — where a
    read past the end of the stack would pick it up — in some reachable
    configuration? `configs` is a set name (with a ModelFile) or a
    configuration automaton.

    The cell just above the boundary holds `symbol` right after a pop of
    it, or once a run grows back up to a copy that its start's upper word
    holds (see `summaries`), so the answer is Safe when the summaries show
    neither from any start member. Else the summaries of the system's
    copy that counts phases decide within k phases, and a search of at
    most node_budget configurations finds the trace
    (`phasecopy.decide_within`)."""
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
    barred = bar(symbol)

    def violation(summaries):
        pops, growth = summaries.pops, summaries.growth
        return lambda r, a, d: symbol in pops.get((r, a), ()) or (
            d is not None and growth.get((r, a), 0) >= d
        )

    return decide_on_lower_stack(
        spec, k, node_budget, configs.components, violation,
        lambda c: c[1][-1:] == (symbol,), barred,
    )
