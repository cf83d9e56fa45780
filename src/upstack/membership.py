"""Exact membership: a size-capped search from the goal and the start set.

`is_reachable` decides whether a configuration is reachable from a
regular start set. No step shrinks the total stack size (a pop moves a
symbol from one zone to the other; a push adds a lower cell and
overwrites at most one upper cell), so a breadth-first search from the
start-set members no larger than the target, never storing a larger
configuration, explores a finite region and decides membership exactly.
So does a breadth-first search backward from the target: what reaches
it is no larger than it.

It stores each configuration only up to the goal's upper word U. No
rule reads the upper word: a pop appends the lower top to it, a push
drops its last cell, and which rules apply depends only on the state,
the lower word and the upper word's length. So configurations with the
same state, lower word, upper length and longest prefix shared with U
have the same runs, step for step, and one of them is U's configuration
exactly when all are. `search` stores one class per such configuration
as (state, shared, above, lower): the length of the prefix shared with
U and the number of cells above it. A pop extends the shared prefix
when nothing is above it and the popped symbol is U's next one, and
adds a cell above it otherwise; a push drops a cell above the prefix,
else a cell of the prefix. The goal is the class (state, |U|, 0, lower).
This is exact. The search keeps no parent links.

The step is a function of the class, so it can be undone class by
class too, with the rules writing what the lower word starts with
(`UpdsSpec.moves_into`). The predecessors of (q, s, a, L) by a rule
that reads lower top r in state f are:
- undoing a pop: (f, s-1, 0, r L) if a = 0, s > 0 and U[s-1] = r, the
  prefix's last cell; (f, s, a-1, r L) if a > 0, unless a = 1, s < |U|
  and U[s] = r, a cell that the pop would have added to the prefix;
- undoing a switch to b, if L starts with b: (f, s, a, r L[1:]);
- undoing a push of b c, if L starts with b c, with R = L[2:]: the
  overwritten cell was above the prefix, (f, s, a+1, r R); or, if
  a = 0, it was U[s], (f, s+1, 0, r R) if s < |U|; or there was none,
  (f, 0, 0, r R) if a = s = 0. Over a one-symbol alphabet the first is
  skipped when a = 0 and s < |U|: no upper word falls in it.

`search` starts from the goal alone: while the backward frontier holds
one class, it expands that class and the start set is not walked. More
than half the queries of the benchmark's membership workload end there,
with a chain of single classes that runs dry. Every class that reaches
the goal is then stored, and the answer is whether one of them holds a
start (`_holds_start`): a run of the start automaton of the class's
state over the barred U[:s], then `above` barred cells, the first of
them not U[s] when s < |U|, then the plain lower word.

Once the backward frontier branches, the start set is walked into the
search, and classes are stored from both ends, one layer at a time,
expanding the side with the smaller frontier (Pohl's balanced
bidirectional search). The answer is true when a side meets a class the
other side stored, and false when either side runs dry. The budget
counts the classes both sides store, the goal's included; a class
stored by one side is not stored again by the other, and the class
test stores none.

The start set is validated once per set, and a set from
`ModelFile.config_set` never: it is valid by construction. Its classes
(`start_classes`) go into the search as they are walked (`walk`), in
(length, label) order straight from its automaton, each word cut into
its zones and counted against U as it grows, so no start is built as an
object, sorted or checked again. In the upper zone, words of one length
that reach the same class and the same automaton subset have the same
extensions, so the walk keeps the first of them only (`walk`'s
`merge`): an upper zone over k symbols walks O(n^2) classes per subset
up to size n, not k^n words. `walk`, `words_up_to`, `members` and
`enumerate_configs` are also the methods of `Nfa` and `ConfigAutomaton`
of those names.

Only the `member` command and the `oracle` command's start listing run
this module, so the other commands do not compile it.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from .configsets import ConfigAutomaton, bar, is_barred
from .core import ConfigTuple, Configuration, UpdsSpec, check_configuration
from .errors import ResourceLimitError
from .limits import DEFAULT_CONFIG_BUDGET, SEARCH_BUDGET
from .nfa import EPSILON, Label, Nfa, Node, label_key

# A class of configurations: (state, shared, above, lower).
Class = tuple[str, int, int, tuple[str, ...]]

# The row of a node without edges; never written to.
_NO_ROW: dict = {}

# `walk` merges only layers longer than this. Start layers mostly hold a
# few entries, and merging each one that grew made the membership
# workload's queries about 4% slower than merging none.
_MERGED = 16


def is_reachable(
    spec: UpdsSpec,
    start_set: ConfigAutomaton,
    config: Configuration,
    budget: int = DEFAULT_CONFIG_BUDGET,
) -> bool:
    """Whether some member of start_set reaches config. The search runs
    backward from config, and forward from the start set too once the
    backward side branches, until the two meet; budget counts the classes
    both sides store (see the module docstring). Members of a valid set
    over the system's states and alphabet are configurations of the
    system, so they go into the search unchecked."""
    check_configuration(spec, config)
    start_set.check_against(spec, "start set")
    return search(spec, start_set, config, budget)[0]


def search(
    spec: UpdsSpec, start_set: ConfigAutomaton, goal: Configuration, budget: int
) -> tuple[bool, int]:
    """Whether some member of start_set reaches goal, and how many classes
    the search stored on both sides: the backward side from goal's class,
    the forward side from `start_classes` in walk order (see the module
    docstring). The backward side goes first, alone, while its frontier
    holds one class. If it runs dry there, the answer is whether a stored
    class holds a start (`_holds_start`), and the start set is never
    walked. Once the frontier holds more, the start classes are stored,
    and each round expands one layer of the side with the smaller
    frontier, forward on a tie, its classes in order: successors in rule
    declaration order, none larger than goal, and predecessors by undone
    pops, switches, then pushes, each in rule declaration order. The
    answer is true once a side meets a class the other side stored, and
    false once either frontier is empty. budget counts stored classes,
    the goal's and the starts' included; storing one more raises
    ResourceLimitError. Trusts its arguments: `is_reachable` checks
    them."""
    moves, into = spec.moves, spec.moves_into
    upper = goal.upper
    depth = len(upper)
    cap = goal.total_size
    # Over a one-symbol alphabet no upper word has a cell above a prefix
    # of U shorter than U: the class of such words is empty.
    several = len(spec.alphabet) > 1
    target = (goal.state, depth, 0, goal.lower)
    if budget < 1:
        raise ResourceLimitError(0, SEARCH_BUDGET)
    # Each stored class, and whether the forward side stored it.
    seen = {target: False}
    backward = [target]
    # None until the backward frontier branches and the starts are walked.
    forward = None
    while backward:
        if forward is None and len(backward) > 1:
            forward = []
            for start in start_classes(start_set, upper, cap):
                count = len(seen)
                if not seen.setdefault(start, True):
                    return True, count
                if len(seen) == count:
                    continue
                if count >= budget:
                    raise ResourceLimitError(count, SEARCH_BUDGET)
                forward.append(start)
        grown = []
        if forward is not None and len(forward) <= len(backward):
            if not forward:
                break
            for state, shared, above, lower in forward:
                entries = moves.get((state, lower[0])) if lower else None
                if entries is None:
                    continue
                top, rest = lower[0], lower[1:]
                # A pop extends the shared prefix only with U's next symbol.
                climbs = not above and shared < depth and upper[shared] == top
                for rule, to_state, arity, written in entries:
                    if arity == 0:
                        if climbs:
                            succ = (to_state, shared + 1, 0, rest)
                        else:
                            succ = (to_state, shared, above + 1, rest)
                    elif arity == 1:
                        succ = (to_state, shared, above, written + rest)
                    elif above:
                        succ = (to_state, shared, above - 1, written + rest)
                    elif shared:
                        succ = (to_state, shared - 1, 0, written + rest)
                    elif len(lower) < cap:
                        succ = (to_state, 0, 0, written + rest)
                    else:
                        continue
                    count = len(seen)
                    if not seen.setdefault(succ, True):
                        return True, count
                    if len(seen) == count:
                        continue
                    if count >= budget:
                        raise ResourceLimitError(count, SEARCH_BUDGET)
                    grown.append(succ)
            forward = grown
            continue
        for state, shared, above, lower in backward:
            found = []
            # Undo a pop: take back the cell it added. With nothing above
            # the prefix, that cell ended the prefix; a lone cell above it
            # is not U's next symbol, or the pop would have extended it.
            for source, read in into.get((state, ()), ()):
                if not above:
                    if shared and read == upper[shared - 1]:
                        found.append((source, shared - 1, 0, (read,) + lower))
                elif above > 1 or shared == depth or read != upper[shared]:
                    found.append((source, shared, above - 1, (read,) + lower))
            if lower:
                rest = lower[1:]
                for source, read in into.get((state, lower[:1]), ()):
                    found.append((source, shared, above, (read,) + rest))
            # Undo a push: restore the cell it overwrote, which is above
            # the prefix, extends it, or was never there.
            if len(lower) > 1:
                for source, read in into.get((state, lower[:2]), ()):
                    before = (read,) + lower[2:]
                    if above or shared == depth or several:
                        found.append((source, shared, above + 1, before))
                    if not above and shared < depth:
                        found.append((source, shared + 1, 0, before))
                    if not above and not shared:
                        found.append((source, 0, 0, before))
            for pred in found:
                count = len(seen)
                if seen.setdefault(pred, False):
                    return True, count
                if len(seen) == count:
                    continue
                if count >= budget:
                    raise ResourceLimitError(count, SEARCH_BUDGET)
                grown.append(pred)
        backward = grown
    if forward is None:
        # A chain of single classes ran dry: seen holds every class that
        # reaches the goal.
        return _holds_start(start_set, upper, seen), len(seen)
    return False, len(seen)


def _holds_start(configs: ConfigAutomaton, upper: tuple[str, ...], classes) -> bool:
    """Whether one of `classes`, counted against the upper word `upper`,
    holds a member of configs: a run of the automaton of its state over
    the barred upper[:shared], then `above` barred cells, the first of
    them not upper[shared] when shared < len(upper), then the plain lower
    word. Subsets are epsilon-closed only when the automaton has an
    epsilon edge, and a run stops once its subset is empty."""
    depth = len(upper)
    for state, shared, above, lower in classes:
        nfa = configs.components.get(state)
        if nfa is None:
            continue
        edges = nfa._edges
        close = nfa.eps_closure if any(EPSILON in row for row in edges.values()) else set
        nodes = close(nfa.initial)
        # Each cell's label, None for a barred cell above the prefix: any
        # barred label but `other`.
        other = bar(upper[shared]) if shared < depth else None
        for cell in [bar(x) for x in upper[:shared]] + [None] * above + list(lower):
            stepped = set()
            for n in nodes:
                for label, ms in edges.get(n, _NO_ROW).items():
                    if label == cell or cell is None and label != other and is_barred(label):
                        stepped.update(ms)
            if not stepped:
                break
            if cell is None:
                other = None
            nodes = close(stepped)
        else:
            if not nfa.finals.keys().isdisjoint(nodes):
                return True
    return False


def start_classes(
    configs: ConfigAutomaton, upper: tuple[str, ...], max_len: int
) -> Iterator[Class]:
    """The classes, counted against the upper word `upper`, of the accepted
    configurations of total stack size <= max_len, in `members` order,
    each class at the first member in it (it may come again later)."""
    depth = len(upper)

    def extend(c: Class, label: Label) -> Class | None:
        state, shared, above, lower = c
        if not is_barred(label):
            return state, shared, above, lower + (label,)
        if lower:
            return None
        if not above and shared < depth and upper[shared] == label[1]:
            return state, shared + 1, 0, lower
        return state, shared, above + 1, lower

    for state, nfa in configs.components.items():
        yield from walk(nfa, max_len, extend, (state, 0, 0, ()), merge=_upper_zone)


def _upper_zone(c: Class) -> Class | None:
    """A class while its lower word is empty, where words of one length
    fall into few classes; None past it, where lower words tell them
    apart."""
    return None if c[3] else c


def _extend_zones(c: ConfigTuple, label) -> ConfigTuple | None:
    state, upper, lower = c
    if not is_barred(label):
        return state, upper, lower + (label,)
    return None if lower else (state, upper + (label[1],), lower)


def members(configs: ConfigAutomaton, max_len: int) -> Iterator[ConfigTuple]:
    """The accepted configurations of total stack size <= max_len as
    (state, upper, lower) tuples: state by state in component order,
    each state's in `walk` order of their flattened words. Each word is
    split into its zones as it is extended, and a barred label is never
    added after a plain one."""
    for state, nfa in configs.components.items():
        yield from walk(nfa, max_len, _extend_zones, (state, (), ()))


def enumerate_configs(configs: ConfigAutomaton, max_len: int) -> list[Configuration]:
    """All accepted configurations of total stack size <= max_len, in
    `members` order."""
    return [Configuration(*c) for c in members(configs, max_len)]


def walk(
    nfa: Nfa,
    max_len: int,
    extend: Callable[[object, Label], object | None],
    seed: object,
    start: Iterable[Node] | None = None,
    merge: Callable[[object], object | None] | None = None,
) -> Iterator[object]:
    """The accepted words of length <= max_len, in (length, label-key)
    order, each built from `seed` by `extend(built, label)` one label at
    a time; `extend` may return None to drop a word and every word it
    prefixes. A layer holds (word, epsilon-closed subset, accepting) for
    the words of one length. The subset walk reaches each word once, so
    extending a layer in order by labels in key order gives the next
    layer in order: nothing is sorted. Each subset's label steps are
    computed once, with no closures when no edge is an epsilon edge. The
    number of words can grow exponentially with max_len.

    With merge, a layer of more than _MERGED entries keeps only the first
    of its entries with the same subset and the same key `merge(built)`,
    where that key is not None. Entries with equal keys and subsets must
    extend to the same values; those of the later entries then come later
    in each layer, so the first occurrence of every value stays where it
    was."""
    finals = nfa.finals.keys()
    eps_free = not any(EPSILON in row for row in nfa._edges.values())
    first = nfa.initial if start is None else start
    first = frozenset(first) if eps_free else nfa.eps_closure(first)
    layer = [(seed, first, not finals.isdisjoint(first))]
    steps: dict[frozenset[Node], list[tuple[Label, frozenset[Node], bool]]] = {}
    for length in range(max_len + 1):
        for built, _, accepting in layer:
            if accepting:
                yield built
        if length == max_len:
            return
        # The last layer keeps only accepted words: nothing extends them.
        last = length + 1 == max_len
        next_layer = []
        for built, subset, _ in layer:
            row = steps.get(subset)
            if row is None:
                row = steps[subset] = _closed_steps(nfa, subset, eps_free)
            for label, stepped, accepting in row:
                if accepting or not last:
                    grown = extend(built, label)
                    if grown is not None:
                        next_layer.append((grown, stepped, accepting))
        if merge is not None and len(next_layer) > _MERGED:
            merged, kept = set(), []
            for entry in next_layer:
                key = merge(entry[0])
                if key is not None:
                    key = key, entry[1]
                    if key in merged:
                        continue
                    merged.add(key)
                kept.append(entry)
            next_layer = kept
        layer = next_layer


def _closed_steps(
    nfa: Nfa, closed: frozenset[Node], eps_free: bool
) -> list[tuple[Label, frozenset[Node], bool]]:
    """(label, epsilon-closed targets, whether they hold a final node)
    for each label that an edge leaving the epsilon-closed set carries,
    in label-key order: one subset construction step, in one pass over
    the set's rows (a single node's row is read as it is). eps_free says
    the automaton has no epsilon edge, so no closure is computed."""
    edges = nfa._edges
    if len(closed) == 1:
        (node,) = closed
        out = edges.get(node, _NO_ROW)
    else:
        out = {}
        for n in closed:
            for label, targets in edges.get(n, _NO_ROW).items():
                got = out.get(label)
                if got is None:
                    out[label] = set(targets)
                else:
                    got.update(targets)
    close = frozenset if eps_free else nfa.eps_closure
    finals = nfa.finals.keys()
    steps = []
    for label in sorted(out, key=label_key) if len(out) > 1 else out:
        if label is not EPSILON:
            stepped = close(out[label])
            steps.append((label, stepped, not finals.isdisjoint(stepped)))
    return steps


def _append(word: tuple[Label, ...], label: Label) -> tuple[Label, ...]:
    return word + (label,)


def words_up_to(
    nfa: Nfa, max_len: int, start: Iterable[Node] | None = None
) -> list[tuple[Label, ...]]:
    """All accepted words of length <= max_len, in `walk` order: by
    length, then by label keys. Their number can grow exponentially with
    max_len. Start configurations are not listed with this: `members`
    runs the same walk and cuts each word into its zones as it grows."""
    return list(walk(nfa, max_len, _append, (), start))
