"""What the two safety checkers share: the `Verdict` and the sets they
build.

The two checkers live in modules of their own, `overflow` and
`residue`, so that each command compiles only its own. Each first
decides from the lower-stack summaries of `summaries`, and poses only
what those leave open to `decide_safety`, the decision from the two
one-sided analyses. That decision and the shortest member of a set that
it replays a hit from are in `safety`, which a checker imports only when
the summaries leave its question open, so a call that they decide
compiles neither.
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
