"""The residue-read checker: can the cell just above the stack pointer,
where a read past the end of the stack would find it, hold a given
symbol? It poses its question to the shared decision in `checkers`, and
only `upstack check-read` runs it.
"""

from __future__ import annotations

from .checkers import Verdict, _all_states_set, _any_word, _spec_of, decide_safety
from .configsets import ConfigAutomaton
from .core import UpdsSpec
from .errors import MalformedInputError
from .limits import DEFAULT_PHASES, DFA_STATE_BUDGET
from .model import ModelFile


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
    configuration automaton."""
    spec = _spec_of(model)
    if symbol not in spec.alphabet:
        raise MalformedInputError(f"undeclared symbol {symbol!r}")
    if isinstance(configs, str):
        if not isinstance(model, ModelFile):
            raise MalformedInputError(
                "a set name needs a ModelFile; pass a ConfigAutomaton instead"
            )
        configs = model.config_set(configs)
    anything = _any_word(spec.alphabet)
    ending_with = ("concat", (anything, ("sym", symbol)))
    forbidden = _all_states_set(spec, ending_with, anything)
    return decide_safety(spec, configs, forbidden, k, node_budget)
