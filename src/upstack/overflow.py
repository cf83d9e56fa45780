"""The stack-overflow checker: can a push overwrite memory past the
stack's bound? It decides from the lower-stack summaries of `summaries`,
and within k phases from those of the system's phase-counting copy in
`phasecopy`, which it loads only once the first show a violation; only
`upstack check-overflow` runs it, and it reads its starting lower words
with `parse_zone_regex`.
"""

from __future__ import annotations

from typing import Iterable

from .checkers import Verdict, _all_states_set, _spec_of, decide_on_lower_stack
from .core import UpdsSpec
from .errors import MalformedInputError
from .limits import DEFAULT_NODE_BUDGET, DEFAULT_PHASES
from .model import ModelFile
from .regex import _parse_text

# The symbols the checker injects: the sentinel on top of the upper zone,
# and the headroom below it.
TOP_SENTINEL = "@top"
FILLER = "@fill"


def parse_zone_regex(text: str, alphabet: Iterable[str]) -> tuple:
    """Parse one zone over `alphabet` on its own: what may stand on one
    side of `^`, with alternation allowed at the top. Columns count from
    the text's start."""
    return _parse_text(text, 1, 1, {name: name for name in alphabet}, True)


def check_stack_overflow(
    model: ModelFile | UpdsSpec,
    m: int,
    lower: str,
    k: int = DEFAULT_PHASES,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Verdict:
    """Can the stack grow past its bound? The system is run with a
    sentinel on top of the upper zone and m filler cells of headroom
    below it; every starting lower word matches `lower` (one zone
    expression over the declared alphabet, '_' for the empty word).
    Pushes consume the headroom first; a configuration whose upper zone
    lost the sentinel has overwritten memory past the bound.

    While the sentinel survives, the upper zone holds m+1 cells less the
    lower stack's growth, so the answer is Safe when no run from a start
    word grows past m: when M <= m (see `summaries`). Else the summaries
    of the system's copy that counts phases decide within k phases, and a
    search of at most node_budget configurations finds the trace
    (`phasecopy.decide_within`)."""
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
    # The rules are the system's own, already checked, and `UpdsSpec`
    # checks them again against the grown alphabet.
    extended = UpdsSpec(spec.states, spec.alphabet + (TOP_SENTINEL, FILLER), spec.rules)
    cells = (("sym", TOP_SENTINEL),) + (("sym", FILLER),) * m
    headroom = cells[0] if m == 0 else ("concat", cells)
    initial = _all_states_set(extended, headroom, starts)

    # The search's distance d counts the m+1 upper cells and the start
    # cells popped: a run at head (r, a) grows past m when G(r, a) > m +
    # (d - m - 1).
    def violation(summaries):
        growth = summaries.growth
        return lambda r, a, d: growth.get((r, a), 0) >= d

    return decide_on_lower_stack(
        extended, k, node_budget, initial.components, violation,
        lambda c: TOP_SENTINEL not in c[1],
    )
