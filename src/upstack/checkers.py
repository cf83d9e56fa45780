"""What the two safety checkers share: the `Verdict` and the sets they
build.

The two checkers live in modules of their own, `overflow` and
`residue`, so that each command compiles only its own. Each puts its
question to `decide_on_lower_stack`, which decides on the lower stack
alone: Safe from the summaries of `summaries`, and, where those show a
violation, within k phases from the summaries of the system's
phase-counting copy (`phasecopy`). The decision from the two one-sided
analyses, `decide_safety`, is in `safety`, which no checker loads.
"""

from __future__ import annotations

from typing import Iterable

from .configsets import ConfigAutomaton, is_barred, unbar
from .core import Configuration, Frozen, Rule, UpdsSpec
from .errors import MalformedInputError
from .model import ModelFile, print_config_literal
from .regex import compile_config_regex

SAFE = "Safe"
UNSAFE = "Unsafe"
UNKNOWN = "Unknown"

# What decided a verdict. For `decide_safety`: a hit of the
# under-approximation (Unsafe once replayed; Unknown if, through a
# defect, no replay stays inside it), pre* rounds that converged with no
# hit, the over-approximation, or a budget that stopped the replay. For
# the checkers: the lower-stack summaries (Safe, or Unsafe with a trace
# of at most k phases; Unknown if, through a defect, the search finds no
# trace of a violation that they show), a budget that stopped that
# search, or the phase bound: the summaries show a violation, and those
# of the phase-counting copy none within k phases (Unknown).
DECIDED_BY = (
    "hit", "convergence", "over-approximation", "limit", "lower-stack", "phase-bound"
)


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


def decide_on_lower_stack(spec, k, node_budget, components, violation, accepts, marked=None):
    """A checker's verdict: Safe where the lower-stack summaries of the
    system `spec` show no violation from the start set (`components`,
    state -> automaton), else the decision within k phases from the
    shortest member that shows one (`phasecopy.decide_within`, which
    says what the arguments are)."""
    from .summaries import Summaries, shortest_violation

    summaries = Summaries(spec)
    best = shortest_violation(summaries, spec.states, components, violation(summaries), marked)
    if best is None:
        return Verdict(SAFE, k, node_budget, decided_by="lower-stack")
    from .phasecopy import decide_within

    return decide_within(
        spec, k, node_budget, config_from_word(*best), components, violation, accepts, marked
    )
