"""Safety checkers built from the two one-sided analyses.

A query is a pair of regular configuration sets: the initial set and a
forbidden set. The verdict is Unsafe only when the phase-bounded
under-approximation of the forbidden set's predecessors meets the
initial set AND the hit replays as a concrete trace. It is Safe when
the rounds of that under-approximation converge with no hit, since a
round that adds nothing is the exact pre*, or else when the regular
over-approximation of the initial set's successors misses the forbidden
set. Anything else is Unknown. Each side is conservative, so a verdict
other than Unknown is trusted; the verdict records which side decided
it and after how many rounds.

The replay is a breadth-first search restricted to the
under-approximation, with no depth or size bound of its own: every
configuration on a trace of at most k phases to the forbidden set lies
in the phase-bounded pre* itself, so the restricted search always finds
one, and only its configuration budget can stop it.

The replay starts from a shortest member of the hit (`shortest_config`,
also the method `ConfigAutomaton.shortest_config`); only the checkers
look for one, so it lives here.

The two checkers live in modules of their own, `overflow` and
`residue`, so that each command compiles only its own. Each first
decides from the lower-stack summaries of `summaries`, and poses to
`decide_safety` only what those leave open. So `decide_safety` loads the
pre* rounds (`kphase`) and the set algebra (`compaction`) on its first
call, as it loads the replay and the over-approximation, and importing
this module for `Verdict` loads none of them.
"""

from __future__ import annotations

from typing import Iterable

from .configsets import ConfigAutomaton, is_barred, unbar
from .core import Configuration, Frozen, Rule, UpdsSpec
from .errors import MalformedInputError, ResourceLimitError
from .limits import DEFAULT_PHASES, DFA_STATE_BUDGET
from .model import ModelFile, print_config_literal
from .regex import compile_config_regex

SAFE = "Safe"
UNSAFE = "Unsafe"
UNKNOWN = "Unknown"

# What decided a verdict: a hit of the under-approximation (Unsafe once
# replayed; Unknown if, through a defect, no replay stays inside it),
# pre* rounds that converged with no hit, the over-approximation, a
# budget that stopped the replay, or the lower-stack summaries of
# `summaries` (Safe, or Unsafe with a trace of at most k phases).
DECIDED_BY = ("hit", "convergence", "over-approximation", "limit", "lower-stack")


class Verdict(Frozen):
    """Outcome plus the analysis parameters it was reached under, what
    decided it (one of `DECIDED_BY`) and the number of pre* rounds run by
    then. An Unsafe verdict carries an initial configuration from which a
    forbidden one is reachable, and a replayed trace proving it."""

    def __init__(
        self,
        outcome: str,
        k: int,
        node_budget: int,
        witness: Configuration | None = None,
        trace: tuple[Rule, ...] | None = None,
        note: str = "",
        decided_by: str | None = None,
        at_round: int | None = None,
    ) -> None:
        if outcome not in (SAFE, UNSAFE, UNKNOWN):
            raise MalformedInputError(f"unknown outcome {outcome!r}")
        if outcome == UNSAFE and (witness is None or trace is None):
            raise MalformedInputError("an Unsafe verdict needs witness and trace")
        if decided_by is not None and decided_by not in DECIDED_BY:
            raise MalformedInputError(f"unknown decider {decided_by!r}")
        _set = object.__setattr__
        _set(self, "outcome", outcome)
        _set(self, "k", k)
        _set(self, "node_budget", node_budget)
        _set(self, "witness", witness)
        _set(self, "trace", trace)
        _set(self, "note", note)
        _set(self, "decided_by", decided_by)
        _set(self, "at_round", at_round)

    def _fields(self) -> tuple:
        return (
            self.outcome, self.k, self.node_budget, self.witness, self.trace, self.note,
            self.decided_by, self.at_round,
        )

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


def config_from_word(state: str, word: Iterable) -> Configuration:
    """The configuration of a state and a flattened word (barred upper
    symbols, then plain lower ones)."""
    upper: list[str] = []
    lower: list[str] = []
    for label in word:
        if is_barred(label):
            if lower:
                raise MalformedInputError(
                    f"barred symbol after plain symbols in {tuple(word)!r}"
                )
            upper.append(unbar(label))
        else:
            lower.append(label)
    return Configuration(state, tuple(upper), tuple(lower))


def shortest_config(configs: ConfigAutomaton) -> Configuration | None:
    """A member of the set with a shortest flattened word, or None if the
    set is empty (`ConfigAutomaton.shortest_config`)."""
    best: tuple[int, str, tuple] | None = None
    for state, nfa in configs.components.items():
        word = nfa.shortest_word()
        if word is not None and (best is None or len(word) < best[0]):
            best = (len(word), state, word)
    if best is None:
        return None
    return config_from_word(best[1], best[2])


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
    there is none and the pre* rounds did not converge, so a call compiles
    just the side that decides it."""
    from .compaction import intersect_sets
    from .kphase import pre_star_rounds

    initial.check_against(spec, "start set")
    if initial.alphabet != spec.alphabet:
        initial = ConfigAutomaton(spec.alphabet, initial.components)
    # Only the last round is read: its hit, and whether the rounds
    # converged.
    for at_round, (under, converged) in enumerate(
        pre_star_rounds(spec, forbidden, k, node_budget)
    ):
        pass

    def verdict(outcome: str, decided_by: str, **found) -> Verdict:
        return Verdict(
            outcome, k, node_budget, decided_by=decided_by, at_round=at_round, **found
        )

    # One shortest-word search per component finds the witness, and finds
    # none exactly when there is no hit.
    witness = shortest_config(intersect_sets(under, initial))
    if witness is not None:
        reached = f"under-approximation reached {print_config_literal(witness)}"
        from .oracle import oracle_trace

        try:
            trace = oracle_trace(
                spec, witness, forbidden.accepts, None, None, within=under.accepts
            )
        except ResourceLimitError as exhausted:
            return verdict(
                UNKNOWN,
                "limit",
                witness=witness,
                note=f"{reached} but the replay ran out of its {exhausted}",
            )
        if trace is not None:
            return verdict(UNSAFE, "hit", witness=witness, trace=trace)
        # Unreachable unless pre* accepted a configuration with no trace
        # inside it: a defect, kept as Unknown so that Unsafe never comes
        # without a replayed trace.
        return verdict(
            UNKNOWN,
            "hit",
            witness=witness,
            note=f"{reached} but no trace to the forbidden set stays inside it",
        )
    if converged:
        # The exact pre* misses the initial set.
        return verdict(SAFE, "convergence")
    from .upperapprox import overapprox_post

    over = overapprox_post(spec, initial)
    if intersect_sets(over, forbidden).is_empty():
        return verdict(SAFE, "over-approximation")
    return verdict(
        UNKNOWN,
        "over-approximation",
        note=(
            "the approximations bracket the forbidden set: no phase-bounded "
            f"witness at k={k}, but the over-approximation meets it"
        ),
    )


def _spec_of(model: ModelFile | UpdsSpec) -> UpdsSpec:
    return model.spec if isinstance(model, ModelFile) else model


def _all_states_set(spec: UpdsSpec, upper: tuple, lower: tuple) -> ConfigAutomaton:
    """Every control state with an upper word from `upper` and a lower
    word from `lower`, both zone ASTs (see `regex`). Compiled over the
    alphabet, the set is valid by construction, as a model's sets are.
    Every state shares the one component: no set is changed once made."""
    component = compile_config_regex(("config", ((upper, lower),)), spec.alphabet)
    configs = ConfigAutomaton(spec.alphabet, dict.fromkeys(spec.states, component))
    configs._validated = True
    return configs


def _any_word(symbols) -> tuple:
    """The zone AST of (s1 | s2 | ...)*, for at least one symbol."""
    parts = tuple(("sym", s) for s in symbols)
    return ("star", parts[0] if len(parts) == 1 else ("alt", parts))
