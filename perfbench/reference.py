"""Independent explicit-state semantics used to check upstack's answers.

Nothing here imports upstack. The semantics follow the package README:
a configuration is (state, upper, lower) with the lower top at
lower[0] and the cell just above the stack pointer at upper[-1]. A pop
moves the read symbol to the end of the upper word, a switch rewrites
the lower top, and a push writes two symbols and overwrites (deletes)
the last upper cell when there is one. No rule fires on an empty lower
stack. A step never shrinks upper + lower, which makes a search capped
at a probe's size exact for membership.

A rule is a tuple (from_state, read_symbol, to_state, written).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import product


class WrongAnswer(Exception):
    """Raised when an answer of the program contradicts the reference."""


def index_rules(rules):
    by_head: dict[tuple[str, str], list] = {}
    for rule in rules:
        by_head.setdefault((rule[0], rule[1]), []).append(rule)
    return by_head


def successors(by_head, config):
    state, upper, lower = config
    if not lower:
        return
    top, rest = lower[0], lower[1:]
    for rule in by_head.get((state, top), ()):
        written = rule[3]
        if not written:
            yield rule, (rule[2], upper + (top,), rest)
        elif len(written) == 1:
            yield rule, (rule[2], upper, written + rest)
        else:
            yield rule, (rule[2], upper[:-1], written + rest)


def size(config) -> int:
    return len(config[1]) + len(config[2])


def explore(rules, starts, cap, limit=float("inf")):
    """The configurations reachable from the starts within total size
    `cap`, breadth-first, at most `limit` of them."""
    by_head = index_rules(rules)
    seen = {c for c in starts if size(c) <= cap}
    queue = deque(seen)
    while queue:
        config = queue.popleft()
        yield config
        for _, nxt in successors(by_head, config):
            if size(nxt) <= cap and nxt not in seen and len(seen) < limit:
                seen.add(nxt)
                queue.append(nxt)


def reachable(rules, starts, target) -> bool:
    """Exact, since a step never shrinks the stack."""
    return target in explore(rules, starts, size(target))


def counterexample(rules, starts, forbidden, cap, limit):
    """A forbidden configuration reachable from the starts within total
    size `cap`, searching at most `limit` configurations; or None."""
    return next((c for c in explore(rules, starts, cap, limit) if forbidden(c)), None)


def replay(rules, witness, trace):
    """Run the trace from the witness; every rule must be a declared
    rule enabled at its step. Returns the final configuration."""
    by_head = index_rules(rules)
    config = witness
    for index, rule in enumerate(trace):
        step = [nxt for declared, nxt in successors(by_head, config) if declared == rule]
        if not step:
            raise WrongAnswer(f"trace step {index}: {rule} is not a rule enabled in {config}")
        config = step[0]
    return config


def upper_ends_with(symbol):
    return lambda config: bool(config[1]) and config[1][-1] == symbol


def upper_lacks(symbol):
    return lambda config: symbol not in config[1]


@dataclass(frozen=True)
class Lang:
    """The words prefix (w1 | w2 | ...)* suffix: enough for every set
    the benchmark builds."""

    prefix: tuple[str, ...] = ()
    loops: tuple[tuple[str, ...], ...] = ()
    suffix: tuple[str, ...] = ()

    def regex(self) -> str:
        parts = list(self.prefix)
        if self.loops:
            parts.append("( " + " | ".join(" ".join(w) for w in self.loops) + " ) *")
        parts.extend(self.suffix)
        return " ".join(parts) if parts else "_"

    def words(self, max_len: int):
        fixed = self.prefix + self.suffix
        out = []
        pending = [()]
        while pending:
            middle = pending.pop()
            if len(fixed) + len(middle) > max_len:
                continue
            out.append(self.prefix + middle + self.suffix)
            pending.extend(middle + w for w in self.loops if w)
        return sorted(set(out))

    def matches(self, word) -> bool:
        word = tuple(word)
        n, m = len(self.prefix), len(self.suffix)
        if len(word) < n + m or word[:n] != self.prefix:
            return False
        if word[len(word) - m :] != self.suffix:
            return False
        middle = word[n : len(word) - m]
        ok = [True] + [False] * len(middle)
        for i in range(len(middle)):
            if ok[i]:
                for w in self.loops:
                    if w and middle[i : i + len(w)] == w:
                        ok[i + len(w)] = True
        return ok[len(middle)]


@dataclass(frozen=True)
class ZoneSet:
    """A configuration set with one control state: `upper ^ lower`."""

    state: str
    upper: Lang
    lower: Lang

    def line(self, name: str) -> str:
        return f"set {name} {self.state} {self.upper.regex()} ^ {self.lower.regex()}"

    def members(self, cap: int):
        return [
            (self.state, u, l)
            for u, l in product(self.upper.words(cap), self.lower.words(cap))
            if len(u) + len(l) <= cap
        ]

    def contains(self, config) -> bool:
        state, upper, lower = config
        return state == self.state and self.upper.matches(upper) and self.lower.matches(lower)


def parse_config(text: str):
    """'STATE: UPPER ^ LOWER' as the CLI prints it."""
    state, rest = text.split(":", 1)
    upper, lower = rest.split("^")
    return (state.strip(), tuple(upper.split()), tuple(lower.split()))


def parse_trace(text: str):
    """'p x -> p a; p a -> p' as the CLI prints it."""
    rules = []
    for part in text.split(";"):
        head, tail = part.split("->")
        src, read = head.split()
        dst, *written = tail.split()
        rules.append((src, read, dst, tuple(written)))
    return tuple(rules)


def parse_rules(model_text: str):
    """The rule lines of a model file."""
    rules = []
    for raw in model_text.splitlines():
        words = raw.split("#", 1)[0].split()
        if words and words[0] == "rule":
            src, read, arrow, dst, *written = words[1:]
            if arrow != "->":
                raise ValueError(f"bad rule line {raw!r}")
            rules.append((src, read, dst, tuple(written)))
    return tuple(rules)
