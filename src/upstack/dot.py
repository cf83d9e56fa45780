"""Deterministic Graphviz DOT rendering of the package's artifacts.

Everything is emitted in sorted order (nodes by their text form, edges
by source, label, target), so the output is byte-identical across runs
for equal inputs.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING

from .configsets import ConfigAutomaton
from .errors import MalformedInputError
from .nfa import EPSILON, Nfa

if TYPE_CHECKING:
    from .grammar import CsGrammar


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _label(label) -> str:
    return "eps" if label is EPSILON else str(label)


def export_dot(artifact) -> str:
    """Render an automaton (plain, per-state set, trace, or upper) or a
    grammar. The text is stable: equal artifacts give equal bytes.

    The trace and upper automata and the grammar are looked up among the
    loaded modules: an artifact of a module that was never loaded cannot
    exist, so rendering a set loads neither `upperapprox` nor `grammar`."""
    if isinstance(artifact, Nfa):
        return "\n".join(_nfa_lines(artifact, "automaton")) + "\n"
    if isinstance(artifact, ConfigAutomaton):
        return "\n".join(_config_lines(artifact)) + "\n"
    upper = sys.modules.get(f"{__package__}.upperapprox")
    if upper is not None and isinstance(
        artifact, (upper.TraceAutomaton, upper.UpperAutomaton)
    ):
        return "\n".join(_nfa_lines(artifact.nfa, "automaton")) + "\n"
    grammar = sys.modules.get(f"{__package__}.grammar")
    if grammar is not None and isinstance(artifact, grammar.CsGrammar):
        return "\n".join(_grammar_lines(artifact)) + "\n"
    raise MalformedInputError(f"cannot render a {type(artifact).__name__}")


def _nfa_body(nfa: Nfa, prefix: str, indent: str) -> list[str]:
    names = {node: f"{prefix}{i}" for i, node in enumerate(sorted(nfa.nodes(), key=repr))}
    lines = []
    for node, name in names.items():
        shape = "doublecircle" if node in nfa.finals else "circle"
        lines.append(f"{indent}{name} [label={_quote(str(node))} shape={shape}];")
    entries = sorted((names[node] for node in nfa.initial), key=lambda s: (len(s), s))
    for i, name in enumerate(entries):
        lines.append(f"{indent}{prefix}start{i} [shape=point label=\"\"];")
        lines.append(f"{indent}{prefix}start{i} -> {name};")
    rendered = sorted(
        (names[src], _label(label), names[dst]) for src, label, dst in nfa.edges()
    )
    for src, label, dst in rendered:
        lines.append(f"{indent}{src} -> {dst} [label={_quote(label)}];")
    return lines


def _nfa_lines(nfa: Nfa, graph_name: str) -> list[str]:
    lines = [f"digraph {graph_name} {{", "  rankdir=LR;"]
    lines.extend(_nfa_body(nfa, "n", "  "))
    lines.append("}")
    return lines


def _config_lines(ca: ConfigAutomaton) -> list[str]:
    lines = ["digraph configuration_set {", "  rankdir=LR;"]
    for i, state in enumerate(sorted(ca.states())):
        lines.append(f"  subgraph cluster{i} {{")
        lines.append(f"    label={_quote(state)};")
        lines.extend(_nfa_body(ca.components[state], f"s{i}n", "    "))
        lines.append("  }")
    lines.append("}")
    return lines


def _atom(symbol: tuple) -> str:
    if len(symbol) == 2 and symbol[0] == "sym":
        return str(symbol[1])
    if len(symbol) == 2 and symbol[0] == "st":
        return f"[{symbol[1]}]"
    return ".".join(str(part) for part in symbol)


def _form(symbols: tuple) -> str:
    return " ".join(_atom(s) for s in symbols)


def _grammar_lines(grammar: CsGrammar) -> list[str]:
    """One node per sentential form appearing on a production side, one
    edge per production, labelled with its position."""
    lines = ["digraph grammar {", "  rankdir=LR;", "  node [shape=box];"]
    names: dict[str, str] = {}
    for lhs, rhs in grammar.productions:
        for side in (_form(lhs), _form(rhs)):
            if side not in names:
                names[side] = f"f{len(names)}"
    for side, name in names.items():
        lines.append(f"  {name} [label={_quote(side)}];")
    for i, (lhs, rhs) in enumerate(grammar.productions):
        lines.append(
            f"  {names[_form(lhs)]} -> {names[_form(rhs)]} [label={_quote(str(i))}];"
        )
    lines.append("}")
    return lines
