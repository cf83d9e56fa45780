"""The decision from the two one-sided analyses.

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
one, and only its configuration budget (`DEFAULT_NODE_BUDGET`) can stop
it. It searches the copy of the system that counts the phases a run
uses (`phasecopy.copy_trace`), so the trace it finds has at most k
phases.

The replay starts from a shortest member of the hit (`shortest_config`,
also the method `ConfigAutomaton.shortest_config`); only this decision
looks for one, so it lives here.

No command runs this decision: the checkers (`overflow`, `residue`)
decide on the lower stack alone. `decide_safety` loads the pre* rounds
(`kphase`) and the set algebra (`compaction`) on its first call, and the
over-approximation only for what the rounds leave to the phase bound.
"""

from __future__ import annotations

from .checkers import SAFE, UNKNOWN, UNSAFE, Verdict, config_from_word
from .configsets import ConfigAutomaton
from .core import Configuration, UpdsSpec
from .errors import ResourceLimitError
from .limits import DEFAULT_NODE_BUDGET, DEFAULT_PHASES, DFA_STATE_BUDGET
from .model import print_config_literal


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
    pre* rounds decide first: Unsafe for a hit that replays, Safe for
    rounds that converged with none, and Unknown where the replay runs out
    of its budget or, through a defect, finds no trace inside the hit.
    The over-approximation decides only what they leave to the phase
    bound, so a call compiles just the side that decides it."""
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

    def verdict(outcome: str, decided_by: str, note: str = "", **found) -> Verdict:
        return Verdict(
            outcome, k, node_budget, note=note, decided_by=decided_by, at_round=at_round,
            **found,
        )

    # One shortest-word search per component finds the witness, and finds
    # none exactly when there is no hit.
    witness = shortest_config(intersect_sets(under, initial))
    if witness is not None:
        from .phasecopy import copy_trace, phase_copy

        reached = f"under-approximation reached {print_config_literal(witness)}"

        def original(c) -> Configuration:
            return Configuration(c[0][0], c[1], c[2])

        try:
            trace = copy_trace(
                *phase_copy(spec, k), witness, lambda c: forbidden.accepts(original(c)),
                lambda c: under.accepts(original(c)), DEFAULT_NODE_BUDGET,
            )
        except ResourceLimitError as exhausted:
            return verdict(
                UNKNOWN,
                "limit",
                f"{reached} but the replay ran out of its {exhausted}",
                witness=witness,
            )
        if trace is not None:
            return verdict(UNSAFE, "hit", witness=witness, trace=trace)
        # Unreachable unless pre* accepted a configuration with no trace
        # inside it: a defect, kept as Unknown so that Unsafe never comes
        # without a replayed trace.
        return verdict(
            UNKNOWN,
            "hit",
            f"{reached} but no trace to the forbidden set stays inside it",
            witness=witness,
        )
    if converged:
        # The exact pre* misses the initial set.
        return verdict(SAFE, "convergence")
    from .upperapprox import overapprox_post

    if intersect_sets(overapprox_post(spec, initial), forbidden).is_empty():
        return verdict(SAFE, "over-approximation")
    return verdict(
        UNKNOWN,
        "over-approximation",
        f"the approximations bracket the forbidden set: no phase-bounded witness at k={k}, "
        "but the over-approximation meets it",
    )
