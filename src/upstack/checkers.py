"""Safety checkers built from the two one-sided analyses.

A query is a pair of regular configuration sets: the initial set and a
forbidden set. The verdict is Unsafe only when the phase-bounded
under-approximation of the forbidden set's predecessors meets the
initial set AND the hit replays as a concrete trace; Safe only when the
regular over-approximation of the initial set's successors misses the
forbidden set; anything else is Unknown. Both sides are conservative,
so a verdict other than Unknown is trusted.

The replay is a breadth-first search restricted to the
under-approximation, with no depth or size bound of its own: every
configuration on a trace of at most k phases to the forbidden set lies
in the phase-bounded pre* itself, so the restricted search always finds
one, and only its configuration budget can stop it.
"""

from __future__ import annotations

from .configsets import ConfigAutomaton, intersect_sets
from .core import Configuration, Frozen, Rule, UpdsSpec, make_spec
from .errors import MalformedInputError, ResourceLimitError
from .kphase import bounded_phase_pre_star
from .limits import DEFAULT_PHASES, DFA_STATE_BUDGET
from .model import ModelFile, print_config_literal
from .regex import compile_config_regex, parse_zone_regex

SAFE = "Safe"
UNSAFE = "Unsafe"
UNKNOWN = "Unknown"

TOP_SENTINEL = "@top"
FILLER = "@fill"


class Verdict(Frozen):
    """Outcome plus the analysis parameters it was reached under. An
    Unsafe verdict carries an initial configuration from which a
    forbidden one is reachable, and a replayed trace proving it."""

    def __init__(
        self,
        outcome: str,
        k: int,
        node_budget: int,
        witness: Configuration | None = None,
        trace: tuple[Rule, ...] | None = None,
        note: str = "",
    ) -> None:
        if outcome not in (SAFE, UNSAFE, UNKNOWN):
            raise MalformedInputError(f"unknown outcome {outcome!r}")
        if outcome == UNSAFE and (witness is None or trace is None):
            raise MalformedInputError("an Unsafe verdict needs witness and trace")
        _set = object.__setattr__
        _set(self, "outcome", outcome)
        _set(self, "k", k)
        _set(self, "node_budget", node_budget)
        _set(self, "witness", witness)
        _set(self, "trace", trace)
        _set(self, "note", note)

    def _fields(self) -> tuple:
        return (self.outcome, self.k, self.node_budget, self.witness, self.trace, self.note)

    @property
    def exit_code(self) -> int:
        return {SAFE: 0, UNSAFE: 1, UNKNOWN: 2}[self.outcome]

    def describe(self) -> str:
        lines = [f"verdict: {self.outcome} (k={self.k})"]
        if self.witness is not None:
            lines.append(f"witness: {print_config_literal(self.witness)}")
        if self.trace:
            lines.append("trace: " + "; ".join(str(rule) for rule in self.trace))
        elif self.trace is not None:
            lines.append("trace: (none: the witness is already forbidden)")
        if self.note:
            lines.append(f"note: {self.note}")
        return "\n".join(lines)


def decide_safety(
    spec: UpdsSpec,
    initial: ConfigAutomaton,
    forbidden: ConfigAutomaton,
    k: int = DEFAULT_PHASES,
    node_budget: int = DFA_STATE_BUDGET,
) -> Verdict:
    """The shared decision procedure over an initial/forbidden pair. The
    initial set may be over a part of the system's alphabet: once checked,
    it is taken over the whole alphabet, where it is just as valid. The
    replay is loaded only for a hit, and the over-approximation only when
    there is none, so a call compiles just the side that decides it."""
    initial.check_against(spec, "start set")
    if initial.alphabet != spec.alphabet:
        initial = ConfigAutomaton(spec.alphabet, initial.components)
    under = bounded_phase_pre_star(spec, forbidden, k, node_budget=node_budget)
    hit = intersect_sets(under, initial)
    if not hit.is_empty():
        witness = hit.shortest_config()
        reached = f"under-approximation reached {print_config_literal(witness)}"
        from .oracle import oracle_trace

        try:
            trace = oracle_trace(
                spec, witness, forbidden.accepts, None, None, within=under.accepts
            )
        except ResourceLimitError as exhausted:
            return Verdict(
                UNKNOWN,
                k,
                node_budget,
                witness=witness,
                note=f"{reached} but the replay ran out of its {exhausted}",
            )
        if trace is not None:
            return Verdict(UNSAFE, k, node_budget, witness=witness, trace=trace)
        # Unreachable unless pre* accepted a configuration with no trace
        # inside it: a defect, kept as Unknown so that Unsafe never comes
        # without a replayed trace.
        return Verdict(
            UNKNOWN,
            k,
            node_budget,
            witness=witness,
            note=f"{reached} but no trace to the forbidden set stays inside it",
        )
    from .upperapprox import overapprox_post

    over = overapprox_post(spec, initial)
    if intersect_sets(over, forbidden).is_empty():
        return Verdict(SAFE, k, node_budget)
    return Verdict(
        UNKNOWN,
        k,
        node_budget,
        note=(
            "the approximations bracket the forbidden set: no phase-bounded "
            f"witness at k={k}, but the over-approximation meets it"
        ),
    )


def _spec_of(model: ModelFile | UpdsSpec) -> UpdsSpec:
    return model.spec if isinstance(model, ModelFile) else model


def _all_states_set(spec: UpdsSpec, upper: tuple, lower: tuple) -> ConfigAutomaton:
    """Every control state with an upper word from `upper` and a lower
    word from `lower`, both zone ASTs (see `regex`)."""
    component = compile_config_regex(("config", ((upper, lower),)), spec.alphabet)
    return ConfigAutomaton(
        spec.alphabet, {state: component.copy() for state in spec.states}
    )


def _any_word(symbols) -> tuple:
    """The zone AST of (s1 | s2 | ...)*, for at least one symbol."""
    parts = tuple(("sym", s) for s in symbols)
    return ("star", parts[0] if len(parts) == 1 else ("alt", parts))


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
