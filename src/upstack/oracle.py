"""Explicit-state bounded explorers.

These are the ground truth the rest of the package is tested against.
One forward breadth-first search over configurations (`explore`),
size-capped or kept inside a region, lists the bounded forward closure
(`oracle_post`, which only the `oracle` command runs, in its module
`commands.oracle`) and finds shortest traces (`search_trace`), which
replay checker witnesses inside the under-approximation that found them
(`oracle_trace`). Exact membership runs its own search over classes of
configurations (`membership.search`), and the tests check it against
this one. All are exhaustive within their bounds, deterministic
(successors in rule declaration order), and refuse to run past an
explicit node budget rather than silently truncating.

`explore` stores plain (state, upper, lower) tuples and trusts its
starts. It applies the system's move table in its own loop: the step is
`successors` (in `extras`) inlined, and the tests check it against that
function. The entry points that take `Configuration` starts check and
convert each of them once.

The backward phase-bounded closure (`oracle_pre_kphase`) and the
lower-stack-only closure (`pds_step`, `pds_closure`, `pds_reaches`),
which only the tests run, live in `extras` and still import from here,
as do `is_reachable`, `oracle_post` and `step`.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

from . import _forward
from .core import ConfigTuple, Configuration, Rule, UpdsSpec, check_configuration
from .errors import ResourceLimitError
from .limits import DEFAULT_NODE_BUDGET, SEARCH_BUDGET


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
    links: bool = True,
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
    With links=False every configuration is mapped to None: a caller that
    asks only what was stored or whether a configuration was hit keeps no
    link tuples."""
    moves = spec.moves
    if size_cap is None:
        size_cap = math.inf
    stored: dict[ConfigTuple, tuple[ConfigTuple, Rule] | None] = {}
    frontier: list[ConfigTuple] = []
    for start in starts:
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
            # `extras.successors`, inlined: pop, switch, push by arity.
            top, rest = lower[:1], lower[1:]
            grow = size < size_cap
            for rule, to_state, arity, written in entries:
                if arity == 0:
                    succ = (to_state, upper + top, rest)
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
                stored[succ] = (c, rule) if links else None
                if accepts(succ):
                    return succ, stored
                next_frontier.append(succ)
        frontier = next_frontier
    return None, stored


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


__getattr__ = _forward(
    __name__,
    membership="is_reachable",
    # Only the `oracle` command lists the bounded closure.
    **{"commands.oracle": "oracle_post"},
    extras="step oracle_pre_kphase pds_step pds_closure pds_reaches",
)
