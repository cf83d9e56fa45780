"""The two-stack reading of a system with an upper stack, as a test helper.

A system translates into an equivalent two-stack pushdown system whose
second stack is the lower word and whose first stack is the reversed
upper word above a bottom marker. No analysis goes through it; it states
the correspondence executably, with a stepper so the equivalence is
testable.
"""

from __future__ import annotations

from dataclasses import dataclass

from upstack.core import Configuration, RuleKind, UpdsSpec, Word, fresh_name
from upstack.errors import MalformedInputError

DEFAULT_BOTTOM = "@bot"


@dataclass(frozen=True, slots=True)
class MpdsRule:
    """(from_state, read_symbol, stack) -> (to_state, written): enabled
    when read_symbol tops the designated stack (1 or 2), which is the only
    stack rewritten."""

    from_state: str
    read_symbol: str
    stack: int
    to_state: str
    written: Word = ()

    def __str__(self) -> str:
        rhs = " ".join((self.to_state,) + self.written) if self.written else self.to_state
        return f"{self.from_state} {self.read_symbol} [{self.stack}] -> {rhs}"


@dataclass(frozen=True)
class Mpds:
    """A two-stack pushdown system. The bottom marker seals stack 1: no
    rule pops it."""

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    bottom: str
    rules: tuple[MpdsRule, ...]


MpdsConfig = tuple[str, Word, Word]


def upds_to_mpds(spec: UpdsSpec, bottom: str = DEFAULT_BOTTOM) -> Mpds:
    """Encode the system over two stacks: stack 2 is the lower word and
    stack 1 the reversed upper word above `bottom`, so both tops sit at
    the boundary. A switch stays one rule on stack 2. A pop first removes
    its symbol from stack 2, then prepends it to stack 1 from a fresh
    intermediate state. A push first rewrites stack 2, then drops the
    stack-1 top unless only the bottom marker is left. One step of the
    source system is one step here for switches and two otherwise.
    """
    if bottom in spec.alphabet:
        raise MalformedInputError(
            f"bottom marker {bottom!r} collides with a stack symbol"
        )
    used = set(spec.states)
    states = list(spec.states)
    rules: list[MpdsRule] = []
    for index, rule in enumerate(spec.rules):
        p, a, q = rule.from_state, rule.read_symbol, rule.to_state
        kind = rule.kind
        if kind is RuleKind.SWITCH:
            rules.append(MpdsRule(p, a, 2, q, rule.written))
            continue
        mid = fresh_name(used, f"{p}@r{index}")
        states.append(mid)
        if kind is RuleKind.POP:
            rules.append(MpdsRule(p, a, 2, mid, ()))
            for x in spec.alphabet + (bottom,):
                rules.append(MpdsRule(mid, x, 1, q, (a, x)))
        else:
            rules.append(MpdsRule(p, a, 2, mid, rule.written))
            rules.append(MpdsRule(mid, bottom, 1, q, (bottom,)))
            for x in spec.alphabet:
                rules.append(MpdsRule(mid, x, 1, q, ()))
    return Mpds(tuple(states), spec.alphabet + (bottom,), bottom, tuple(rules))


def mpds_step(m: Mpds, config: MpdsConfig) -> list[tuple[MpdsRule, MpdsConfig]]:
    """All one-step successors, in rule declaration order."""
    state, stack1, stack2 = config
    out: list[tuple[MpdsRule, MpdsConfig]] = []
    for rule in m.rules:
        if rule.from_state != state:
            continue
        stack = stack1 if rule.stack == 1 else stack2
        if not stack or stack[0] != rule.read_symbol:
            continue
        rewritten = rule.written + stack[1:]
        if rule.stack == 1:
            out.append((rule, (rule.to_state, rewritten, stack2)))
        else:
            out.append((rule, (rule.to_state, stack1, rewritten)))
    return out


def config_to_mpds(m: Mpds, c: Configuration) -> MpdsConfig:
    """<p, w_u, w_l> becomes (p, reverse(w_u) + bottom, w_l)."""
    return (c.state, tuple(reversed(c.upper)) + (m.bottom,), c.lower)


def mpds_to_config(m: Mpds, config: MpdsConfig) -> Configuration:
    """Inverse of config_to_mpds; rejects stacks that are not in the image
    (bottom marker missing, duplicated, or misplaced)."""
    state, stack1, stack2 = config
    if not stack1 or stack1[-1] != m.bottom:
        raise MalformedInputError(f"stack 1 does not end with {m.bottom!r}")
    body = stack1[:-1]
    if m.bottom in body or m.bottom in stack2:
        raise MalformedInputError(f"stray bottom marker {m.bottom!r}")
    return Configuration(state, tuple(reversed(body)), tuple(stack2))
