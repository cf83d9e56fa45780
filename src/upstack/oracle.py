"""Explicit-state bounded explorers.

These are the ground truth the rest of the package is tested against.
One forward breadth-first search over configurations (`explore`),
size-capped or kept inside a region, lists the bounded forward closure
(`oracle_post`) and finds shortest traces (`search_trace`), which decide
exact membership (`is_reachable`) and replay checker witnesses inside
the under-approximation that found them (`oracle_trace`). A
backward closure decides phase-bounded reachability, and `pds_closure`
runs the lower-stack-only semantics. All are exhaustive within their
bounds, deterministic (successors in rule declaration order), and refuse
to run past an explicit node budget rather than silently truncating.

`explore` stores plain (state, upper, lower) tuples and trusts its
starts. It applies the system's move table in its own loop: the step is
`core.successors` inlined, and the tests check it against that function.
The entry points that take `Configuration` starts check and
convert each of them once; `is_reachable` validates its start set once
and feeds the search the set's `members`, walked in (length, label)
order straight from its automaton, so no start is built as an object,
sorted or checked again.

is_reachable decides whether a configuration is reachable from a regular
start set. No step shrinks the total stack size (a pop moves a symbol
from one zone to the other; a push adds a lower cell and overwrites at
most one upper cell), so a breadth-first search from the start-set
members no larger than the target, never storing a larger
configuration, explores a finite region and decides membership exactly.

It stores each configuration only up to the goal's upper word U. No
rule reads the upper word: a pop appends the lower top to it, a push
drops its last cell, and which rules apply depends only on the state,
the lower word and the upper word's length. So configurations with the
same state, lower word, upper length and longest prefix shared with U
have the same runs, step for step, and one of them is U's configuration
exactly when all are. `explore(goal_upper=U)` stores one per class: the
shared prefix, then one placeholder cell per symbol above it. This is
exact, the budget counts these classes, and the parent links are still
rule sequences that apply to the concrete starts. `search_trace`,
`oracle_trace` and `oracle_post` store configurations as they are.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Iterable

from .configsets import ConfigAutomaton
from .core import (
    ConfigTuple,
    Configuration,
    Rule,
    RuleKind,
    UpdsSpec,
    check_configuration,
    step,  # noqa: F401 (tests/test_acceptance.py imports it from here)
)
from .errors import ResourceLimitError
from .limits import DEFAULT_CONFIG_BUDGET, DEFAULT_NODE_BUDGET

SEARCH_BUDGET = "configuration search budget"

# The placeholder cell of a search stored up to a goal's upper word: it
# stands for any symbol above the prefix shared with that word.
_ABOVE = (None,)


def _checked(spec: UpdsSpec, configs: Iterable[Configuration]) -> list[ConfigTuple]:
    """The configurations as search tuples, each checked against spec."""
    out = []
    for c in configs:
        check_configuration(spec, c)
        out.append((c.state, c.upper, c.lower))
    return out


def explore(
    spec: UpdsSpec,
    starts: Iterable[ConfigTuple],
    accepts: Callable[[ConfigTuple], bool],
    size_cap: int | None,
    depth: int | None = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
    within: Callable[[ConfigTuple], bool] | None = None,
    goal_upper: tuple[str, ...] | None = None,
) -> tuple[ConfigTuple | None, dict[ConfigTuple, tuple[ConfigTuple, Rule] | None]]:
    """Breadth-first search over (state, upper, lower) tuples: starts in
    the order given, successors in rule declaration order. The starts are
    trusted to be configurations of spec: the callers check them. Successors
    whose total stack size passes size_cap, or that `within` rejects, are
    dropped before they are stored (the starts are kept whatever they are);
    size_cap=None leaves the size free. depth=None searches the region to
    exhaustion, which is finite under a size cap. node_budget counts stored
    configurations, starts included. Returns the first stored configuration
    that `accepts` (or None) and everything stored, each mapped to the
    (predecessor, rule) that first reached it, or to None for a start.

    With goal_upper, every upper word is stored up to that word (see the
    module docstring): its longest prefix shared with goal_upper, then one
    placeholder cell, `None`, per symbol above that prefix. Starts are
    reduced as they enter and deduplicated after reduction, and the budget
    counts reduced configurations. `accepts` and `within` see reduced
    tuples; a configuration whose upper word is goal_upper has no
    placeholder, so it is stored as itself."""
    moves = spec.moves
    if size_cap is None:
        size_cap = math.inf
    stored: dict[ConfigTuple, tuple[ConfigTuple, Rule] | None] = {}
    frontier: list[ConfigTuple] = []
    for start in starts:
        if goal_upper is not None and start[1]:
            state, upper, lower = start
            shared = 0
            for mine, theirs in zip(upper, goal_upper):
                if mine != theirs:
                    break
                shared += 1
            start = (state, goal_upper[:shared] + _ABOVE * (len(upper) - shared), lower)
        if start in stored:
            continue
        if len(stored) >= node_budget:
            raise ResourceLimitError(len(stored), SEARCH_BUDGET)
        stored[start] = None
        if accepts(start):
            return start, stored
        frontier.append(start)
    layer = 0
    while frontier and (depth is None or layer < depth):
        layer += 1
        next_frontier: list[ConfigTuple] = []
        for c in frontier:
            state, upper, lower = c
            size = len(upper) + len(lower)
            # No step shrinks the size: nothing above the cap leads back.
            if not lower or size > size_cap:
                continue
            entries = moves.get((state, lower[0]))
            if entries is None:
                continue
            # `core.successors`, inlined: pop, switch, push by arity.
            top, rest = lower[:1], lower[1:]
            grow = size < size_cap
            for rule, to_state, arity, written in entries:
                if arity == 0:
                    # Stored up to goal_upper: the popped symbol extends the
                    # shared prefix only if it is goal_upper's next symbol.
                    if goal_upper is None or (
                        len(upper) < len(goal_upper)
                        and goal_upper[len(upper)] == top[0]
                        and upper[-1:] != _ABOVE
                    ):
                        succ = (to_state, upper + top, rest)
                    else:
                        succ = (to_state, upper + _ABOVE, rest)
                elif arity == 1:
                    succ = (to_state, upper, written + rest)
                elif upper or grow:
                    succ = (to_state, upper[:-1], written + rest)
                else:
                    continue
                if succ in stored or (within is not None and not within(succ)):
                    continue
                if len(stored) >= node_budget:
                    raise ResourceLimitError(len(stored), SEARCH_BUDGET)
                stored[succ] = (c, rule)
                if accepts(succ):
                    return succ, stored
                next_frontier.append(succ)
        frontier = next_frontier
    return None, stored


def oracle_post(
    spec: UpdsSpec,
    initial: Iterable[Configuration],
    depth: int,
    size_cap: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> frozenset[Configuration]:
    """Configurations reachable from `initial` by traces of length <= depth,
    never passing through a configuration whose total stack size exceeds
    size_cap (initial configurations above the cap are discarded too).
    node_budget caps the stored configurations, the initial ones included,
    but those are always kept."""
    capped = [c for c in _checked(spec, initial) if len(c[1]) + len(c[2]) <= size_cap]
    budget = max(node_budget, len(set(capped)))
    _, stored = explore(spec, capped, lambda c: False, size_cap, depth, budget)
    return frozenset(Configuration(*c) for c in stored)


def search_trace(
    spec: UpdsSpec,
    starts: Iterable[Configuration],
    accepts: Callable[[ConfigTuple], bool],
    size_cap: int | None,
    depth: int | None = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
    within: Callable[[ConfigTuple], bool] | None = None,
) -> tuple[Rule, ...] | None:
    """A shortest rule sequence driving some start to a configuration
    whose tuple `accepts`, or None if `explore` finds none; among shortest
    traces the first found wins."""
    starts = _checked(spec, starts)
    hit, stored = explore(spec, starts, accepts, size_cap, depth, node_budget, within)
    if hit is None:
        return None
    rules: list[Rule] = []
    while (link := stored[hit]) is not None:
        hit, rule = link
        rules.append(rule)
    return tuple(reversed(rules))


def is_reachable(
    spec: UpdsSpec,
    start_set: ConfigAutomaton,
    config: Configuration,
    budget: int = DEFAULT_CONFIG_BUDGET,
) -> bool:
    """Whether some member of start_set reaches config. budget counts the
    configurations the search stores (see the module docstring). The start
    set is validated once per set, and a set from `ModelFile.config_set`
    never: it is valid by construction. Its members go into the search as
    they are walked, unchecked: a valid set over the system's states and
    alphabet holds only configurations of the system."""
    check_configuration(spec, config)
    start_set.check_against(spec, "start set")
    size = config.total_size
    goal = (config.state, config.upper, config.lower)
    hit, _ = explore(
        spec, start_set.members(size), goal.__eq__, size, node_budget=budget,
        goal_upper=config.upper,
    )
    return hit is not None


def oracle_trace(
    spec: UpdsSpec,
    start: Configuration,
    accepts: Callable[[Configuration], bool],
    depth: int | None,
    size_cap: int | None,
    node_budget: int = DEFAULT_NODE_BUDGET,
    within: Callable[[Configuration], bool] | None = None,
) -> tuple[Rule, ...] | None:
    """A shortest rule sequence of length <= depth driving `start` to a
    configuration satisfying `accepts`, never letting the total stack
    size pass size_cap and never leaving the configurations `within`
    holds for; None if none exists within those bounds. None leaves the
    depth, the size or the region free."""
    inside = None if within is None else (lambda c: within(Configuration(*c)))
    return search_trace(
        spec,
        [start],
        lambda c: accepts(Configuration(*c)),
        size_cap,
        depth,
        node_budget,
        inside,
    )


def _predecessors(
    spec: UpdsSpec, c: Configuration
) -> list[tuple[Rule, Configuration]]:
    """All one-step predecessors of c, i.e. pairs (rule, c') with
    c' -rule-> c, in rule declaration order."""
    preds: list[tuple[Rule, Configuration]] = []
    for rule in spec.rules:
        if rule.to_state != c.state:
            continue
        kind = rule.kind
        if kind is RuleKind.SWITCH:
            if c.lower[:1] == rule.written:
                preds.append(
                    (rule, Configuration(
                        rule.from_state, c.upper, (rule.read_symbol,) + c.lower[1:]
                    ))
                )
        elif kind is RuleKind.POP:
            if c.upper and c.upper[-1] == rule.read_symbol:
                preds.append(
                    (rule, Configuration(
                        rule.from_state, c.upper[:-1], (rule.read_symbol,) + c.lower
                    ))
                )
        else:
            if c.lower[:2] != rule.written:
                continue
            rest = (rule.read_symbol,) + c.lower[2:]
            # The overwritten upper symbol is unconstrained.
            for x in spec.alphabet:
                preds.append(
                    (rule, Configuration(rule.from_state, c.upper + (x,), rest))
                )
            if not c.upper:
                preds.append((rule, Configuration(rule.from_state, (), rest)))
    return preds


def _prepend_phase(runs: int, first: RuleKind | None, kind: RuleKind):
    """Phase skeleton of rule . suffix, given the suffix's skeleton: the
    number of maximal same-kind runs among pops and pushes, plus the kind
    of the leading run."""
    if kind is RuleKind.SWITCH:
        return runs, first
    if first is kind:
        return runs, first
    return runs + 1, kind


def oracle_pre_kphase(
    spec: UpdsSpec,
    targets: Iterable[Configuration],
    depth: int,
    k: int,
    size_cap: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> frozenset[Configuration]:
    """Configurations that reach some target by a trace of length <= depth
    splitting into at most k phases, staying within size_cap.

    Implemented as a backward breadth-first search with inverted rules,
    tracking the phase skeleton of the trace suffix built so far (run
    count plus leading run kind). Total stack size never shrinks along a
    forward trace, so capping every visited configuration at size_cap
    never severs a path between endpoints that are themselves within the
    cap.
    """
    capped = []
    for c in targets:
        check_configuration(spec, c)
        if c.total_size <= size_cap:
            capped.append(c)
    answer: set[Configuration] = set(capped)
    if k <= 0:
        return frozenset(answer)
    State = tuple[Configuration, int, RuleKind | None]
    seen: set[State] = {(c, 0, None) for c in capped}
    frontier: deque[State] = deque(seen)
    explored = len(seen)
    for _ in range(depth):
        if not frontier:
            break
        next_frontier: deque[State] = deque()
        for c, runs, first in frontier:
            for rule, pred in _predecessors(spec, c):
                if pred.total_size > size_cap:
                    continue
                new_runs, new_first = _prepend_phase(runs, first, rule.kind)
                if max(new_runs, 1) > k:
                    continue
                state = (pred, new_runs, new_first)
                if state in seen:
                    continue
                explored += 1
                if explored > node_budget:
                    raise ResourceLimitError(explored, "backward closure budget")
                seen.add(state)
                answer.add(pred)
                next_frontier.append(state)
        frontier = next_frontier
    return frozenset(answer)


def pds_step(
    spec: UpdsSpec, state: str, word: tuple[str, ...]
) -> list[tuple[Rule, tuple[str, tuple[str, ...]]]]:
    """Successors under the lower-stack-only reading: a rule rewrites the
    top of the single stack and no upper stack exists."""
    if not word:
        return []
    return [
        (rule, (rule.to_state, rule.written + word[1:]))
        for rule in spec.rules_reading(state, word[0])
    ]


def pds_closure(
    spec: UpdsSpec,
    initial: Iterable[tuple[str, tuple[str, ...]]],
    size_cap: int,
    depth: int | None = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> frozenset[tuple[str, tuple[str, ...]]]:
    """Forward closure of the lower-stack-only semantics, restricted to
    stack words of length <= size_cap. depth=None runs to fixpoint, which
    is exact on the capped region whenever every witness run fits under
    the cap; an integer bounds the trace length instead."""
    seen: set[tuple[str, tuple[str, ...]]] = set()
    frontier: list[tuple[str, tuple[str, ...]]] = []
    for state, word in initial:
        if len(word) <= size_cap and (state, word) not in seen:
            seen.add((state, word))
            frontier.append((state, word))
    layer = 0
    while frontier and (depth is None or layer < depth):
        layer += 1
        next_frontier: list[tuple[str, tuple[str, ...]]] = []
        for state, word in frontier:
            for _, succ in pds_step(spec, state, word):
                if len(succ[1]) > size_cap or succ in seen:
                    continue
                if len(seen) >= node_budget:
                    raise ResourceLimitError(len(seen), "pushdown closure budget")
                seen.add(succ)
                next_frontier.append(succ)
        frontier = next_frontier
    return frozenset(seen)


def pds_reaches(
    spec: UpdsSpec,
    source: tuple[str, tuple[str, ...]],
    targets: Iterable[tuple[str, tuple[str, ...]]],
    size_cap: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> bool:
    """Whether the lower-stack-only semantics can drive `source` into one
    of `targets` without the stack ever growing past size_cap."""
    goal = set(targets)
    return bool(goal & pds_closure(spec, [source], size_cap, node_budget=node_budget))
