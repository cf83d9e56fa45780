"""The stack-overflow checker: can a push overwrite memory past the
stack's bound? It poses its question to the shared decision in
`checkers`, and only `upstack check-overflow` runs it.
"""

from __future__ import annotations

from .checkers import Verdict, _all_states_set, _any_word, _spec_of, decide_safety
from .core import UpdsSpec, make_spec
from .errors import MalformedInputError
from .limits import DEFAULT_PHASES, DFA_STATE_BUDGET
from .model import ModelFile
from .regex import parse_zone_regex

# The symbols the checker injects: the sentinel on top of the upper zone,
# and the headroom below it.
TOP_SENTINEL = "@top"
FILLER = "@fill"


def check_stack_overflow(
    model: ModelFile | UpdsSpec,
    m: int,
    lower: str,
    k: int = DEFAULT_PHASES,
    node_budget: int = DFA_STATE_BUDGET,
) -> Verdict:
    """Can the stack grow past its bound? The system is run with a
    sentinel on top of the upper zone and m filler cells of headroom
    below it; every starting lower word matches `lower` (one zone
    expression over the declared alphabet, '_' for the empty word).
    Pushes consume the headroom first; a configuration whose upper zone
    lost the sentinel has overwritten memory past the bound."""
    spec = _spec_of(model)
    if m < 0:
        raise MalformedInputError(f"headroom must be nonnegative, got {m}")
    for name in (TOP_SENTINEL, FILLER):
        if name in spec.alphabet or name in spec.states:
            raise MalformedInputError(
                f"{name!r} is reserved for the overflow checker; "
                "it may not be declared, let alone appear in a rule"
            )
    starts = parse_zone_regex(lower, spec.alphabet)
    extended = make_spec(
        spec.states,
        spec.alphabet + (TOP_SENTINEL, FILLER),
        [(r.from_state, r.read_symbol, r.to_state, r.written) for r in spec.rules],
    )
    cells = (("sym", TOP_SENTINEL),) + (("sym", FILLER),) * m
    headroom = cells[0] if m == 0 else ("concat", cells)
    initial = _all_states_set(extended, headroom, starts)
    unguarded = _any_word(s for s in extended.alphabet if s != TOP_SENTINEL)
    forbidden = _all_states_set(extended, unguarded, _any_word(extended.alphabet))
    return decide_safety(extended, initial, forbidden, k, node_budget)
