"""The stack-overflow checker: can a push overwrite memory past the
stack's bound? It decides from the lower-stack summaries of `summaries`
first and poses what they leave open to the shared decision in
`checkers`; only `upstack check-overflow` runs it.
"""

from __future__ import annotations

from .checkers import (
    SAFE, Verdict, _all_states_set, _any_word, _spec_of, config_from_word, decide_safety,
)
from .core import UpdsSpec, make_spec
from .errors import MalformedInputError
from .limits import DEFAULT_PHASES, DFA_STATE_BUDGET
from .model import ModelFile
from .regex import parse_zone_regex
from .summaries import Summaries, settle, shortest_violation

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
    lost the sentinel has overwritten memory past the bound.

    While the sentinel survives, the upper zone holds m+1 cells less the
    lower stack's growth, so the answer is Safe when no run from a start
    word grows past m: when M <= m (see `summaries`). Else a shortest
    start member that does is replayed (`settle`). Until the sentinel is
    overwritten a step keeps the total stack size, so that search is
    capped at the witness's. What it leaves open goes to `decide_safety`."""
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
    extended = make_spec(spec.states, spec.alphabet + (TOP_SENTINEL, FILLER), spec.rules)
    cells = (("sym", TOP_SENTINEL),) + (("sym", FILLER),) * m
    headroom = cells[0] if m == 0 else ("concat", cells)
    initial = _all_states_set(extended, headroom, starts)
    summaries = Summaries(spec)
    growth = summaries.growth
    # The search's distance d counts the m+1 upper cells and the start
    # cells popped: a run at head (r, a) grows past m when G(r, a) > m +
    # (d - m - 1).
    best = shortest_violation(
        summaries, spec.states, initial.components, lambda r, a, d: growth.get((r, a), 0) >= d
    )
    if best is None:
        return Verdict(SAFE, k, node_budget, decided_by="lower-stack")

    def fallback() -> Verdict:
        unguarded = _any_word(s for s in extended.alphabet if s != TOP_SENTINEL)
        forbidden = _all_states_set(extended, unguarded, _any_word(extended.alphabet))
        return decide_safety(extended, initial, forbidden, k, node_budget)

    witness = config_from_word(*best)
    return settle(
        extended,
        witness,
        lambda c: TOP_SENTINEL not in c.upper,
        k,
        node_budget,
        fallback,
        size_cap=witness.total_size,
    )
