"""Shared fixtures: the two reference systems and small random generators.

The first reference system pumps popped symbols back through the boundary
(two control states; the family <p', a^(n+1) b^n, bot> is reachable from
the seed set). The second one can push unboundedly and exposes the
phase-bounded backward analysis (single control state).
"""

from __future__ import annotations

import os
import random
from pathlib import Path

import pytest

from upstack.core import Configuration, Rule, UpdsSpec, make_spec

E1_RULES = (
    ("p", "x", "p", ("a",)),          # s_x
    ("p", "y", "p", ("b",)),          # s_y
    ("p", "a", "p", ("a", "b")),      # c
    ("p", "a", "p", ()),              # r_a
    ("p", "b", "p", ()),              # r_b
    ("p", "bot", "p2", ("bot",)),     # e
)

E2_RULES = (
    ("p", "c", "p", ("a", "b")),      # c0
    ("p", "c", "p", ("c", "b")),      # c1
    ("p", "a", "p", ()),              # r_a
    ("p", "b", "p", ()),              # r_b
)


SRC = str(Path(__file__).resolve().parents[1] / "src")


# `--lower` texts for e1 that are not one lower zone over the declared
# alphabet, with the column and message of their parse error. Pasted
# into a whole set expression, they would add an alternative without the
# sentinel, put the checker's reserved symbols in the lower zone, or
# move the boundary.
BAD_LOWER_ZONES = (
    ("x ) | @fill ^ ( x", 3, "unexpected ')'"),
    ("@top x", 1, "undeclared symbol '@top'"),
    ("@fill bot", 1, "undeclared symbol '@fill'"),
    ("x ^ bot", 3, "boundary marker '^' not allowed in a zone expression"),
)


# Found by a seeded sweep of random held reads (`random_spec`, at most 3
# states, 3 symbols and 8 rules), with the alphabet cut to the one symbol
# its rules use. From q1 over g0 g0 g0, a push (declared first) and a pop
# put g0 just above the boundary in two phases, and a switch and the same
# pop in one, as short.
HIDDEN_ONE_PHASE = """\
states q0 q1
alphabet g0
rule q1 g0 -> q1 g0 g0
rule q0 g0 -> q0
rule q0 g0 -> q1
rule q1 g0 -> q0 g0 g0
rule q1 g0 -> q0 g0
set I q1 ^ g0 g0 g0
"""


# Starting lower words of the overflow checker for each shipped fixture.
FIXTURE_LOWERS = {
    "e1.upds": ("x (y x)* bot", "x bot", "y x bot", "a b bot", "_"),
    "e2.upds": ("c", "c c", "a b", "_"),
    "relocate.upds": ("ret bot", "secret ret bot", "_"),
}


def switch_chain(n: int):
    """States s0..s{n-1}: a switch chain on x, both pushes on both tops in
    every state, and one pop at the end. The only way to put x above the
    boundary is the whole chain and then the pop; the pushes make the
    region around the chain grow without end."""
    from upstack.model import parse_model

    lines = [f"states {' '.join(f's{i}' for i in range(n))}", "alphabet x y"]
    for i in range(n):
        if i + 1 < n:
            lines.append(f"rule s{i} x -> s{i + 1} x")
        for top in ("x", "y"):
            for pushed in ("x", "y"):
                lines.append(f"rule s{i} {top} -> s{i} {pushed} {top}")
    lines += [f"rule s{n - 1} x -> s{n - 1}", "set I s0 ^ x"]
    return parse_model("\n".join(lines) + "\n")


def subprocess_env() -> dict[str, str]:
    """The environment with this checkout's src/ first on PYTHONPATH, so a
    child `python -m upstack` runs the code under test."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path)


def e1_spec() -> UpdsSpec:
    return make_spec(("p", "p2"), ("a", "b", "x", "y", "bot"), E1_RULES)


def e2_spec() -> UpdsSpec:
    return make_spec(("p",), ("a", "b", "c"), E2_RULES)


@pytest.fixture(name="e1")
def e1_fixture() -> UpdsSpec:
    return e1_spec()


@pytest.fixture(name="e2")
def e2_fixture() -> UpdsSpec:
    return e2_spec()


def cfg(state: str, upper: str = "", lower: str = "") -> Configuration:
    """Configuration from whitespace-separated words."""
    return Configuration(state, tuple(upper.split()), tuple(lower.split()))


def e1_seed(n: int) -> Configuration:
    """<p, eps, x (y x)^n bot>: the n-th member of the seed set."""
    return cfg("p", "", "x " + "y x " * n + "bot")


def e1_pumped(n: int) -> Configuration:
    """<p2, a^(n+1) b^n, bot>."""
    return cfg("p2", "a " * (n + 1) + "b " * n, "bot")


def c1_automaton(spec: UpdsSpec):
    """Seed set of the first reference system: <p, eps, x (y x)^n bot>."""
    from upstack.configsets import ConfigAutomaton
    from upstack.regex import compile_config_regex

    return ConfigAutomaton(
        spec.alphabet,
        {"p": compile_config_regex("^ x (y x)* bot", alphabet=spec.alphabet)},
    )


def c2_automaton(spec: UpdsSpec):
    """Target set of the second reference system: <p, (a b)^m, c>."""
    from upstack.configsets import ConfigAutomaton
    from upstack.regex import compile_config_regex

    return ConfigAutomaton(
        spec.alphabet,
        {"p": compile_config_regex("(a b)* ^ c", alphabet=spec.alphabet)},
    )


def any_word(symbols) -> tuple:
    """The zone AST (see `upstack.regex`) of (s1 | s2 | ...)*, for at
    least one symbol."""
    parts = tuple(("sym", s) for s in symbols)
    return ("star", parts[0] if len(parts) == 1 else ("alt", parts))


def forbidden_read(spec: UpdsSpec, symbol: str):
    """The configurations, in every state, whose upper word ends with
    `symbol`: the forbidden set of the read checker's question."""
    from upstack.checkers import _all_states_set

    anything = any_word(spec.alphabet)
    return _all_states_set(spec, ("concat", (anything, ("sym", symbol))), anything)


@pytest.fixture(name="c1")
def c1_fixture(e1):
    return c1_automaton(e1)


@pytest.fixture(name="c2")
def c2_fixture(e2):
    return c2_automaton(e2)


def random_spec(rng: random.Random, max_states=3, max_symbols=3, max_rules=6) -> UpdsSpec:
    """A small random system. Deterministic in the generator state."""
    n_states = rng.randint(1, max_states)
    n_symbols = rng.randint(1, max_symbols)
    states = tuple(f"q{i}" for i in range(n_states))
    symbols = tuple(f"g{i}" for i in range(n_symbols))
    rules = []
    seen = set()
    for _ in range(rng.randint(1, max_rules)):
        arity = rng.choice((0, 1, 1, 2, 2))
        rule = (
            rng.choice(states),
            rng.choice(symbols),
            rng.choice(states),
            tuple(rng.choice(symbols) for _ in range(arity)),
        )
        if rule in seen:
            continue
        seen.add(rule)
        rules.append(rule)
    return make_spec(states, symbols, rules)


def random_configuration(
    rng: random.Random, spec: UpdsSpec, max_side=2, allow_empty_lower=True
) -> Configuration:
    upper = tuple(rng.choice(spec.alphabet) for _ in range(rng.randint(0, max_side)))
    low_min = 0 if allow_empty_lower else 1
    lower = tuple(rng.choice(spec.alphabet) for _ in range(rng.randint(low_min, max_side)))
    return Configuration(rng.choice(spec.states), upper, lower)


def rule_by_index(spec: UpdsSpec, i: int) -> Rule:
    return spec.rules[i]


def random_trace_automaton(rng: random.Random, spec: UpdsSpec, max_nodes=5, max_edges=8):
    """A random meaningful prefix-closed trace automaton over the system's
    rules: nodes carry an owning state, edges respect rule endpoints, all
    nodes are final."""
    from upstack.nfa import Nfa
    from upstack.upperapprox import TraceAutomaton

    n_nodes = rng.randint(1, max_nodes)
    owner = {f"t{i}": rng.choice(spec.states) for i in range(n_nodes)}
    nfa = Nfa()
    for node in owner:
        nfa.add_node(node)
        nfa.add_final(node)
    for node in rng.sample(sorted(owner), rng.randint(1, n_nodes)):
        nfa.add_initial(node)
    for _ in range(rng.randint(0, max_edges)):
        rule = rng.choice(spec.rules) if spec.rules else None
        if rule is None:
            break
        sources = [n for n, s in owner.items() if s == rule.from_state]
        targets = [n for n, s in owner.items() if s == rule.to_state]
        if sources and targets:
            nfa.add_edge(rng.choice(sources), rule, rng.choice(targets))
    return TraceAutomaton(nfa, owner)
