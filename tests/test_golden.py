"""Pinned outputs of the fixture analyses.

Refactors of the automaton constructions must not change what the
package prints. These goldens pin, for every set of the shipped
fixtures, the `pre-under` summary at k = 0..4 and the `post-over`
summary, each with a digest of the compacted automaton's DOT text.
Compaction is canonical, so a change here means a changed language or a
changed canonical form, not a changed construction order. They pin the
`pre-under --budget 1` summaries too: every compaction then falls back
on the bisimulation quotient, whose node names follow construction
order but whose nodes and edges do not, so only the summary is pinned.
They also pin the digests of what `export-dot --trace` and `export-dot
--grammar` print for each set; DOT text is sorted, so those change only
with the nodes and edges of the trace abstraction or the grammar.

The checkers' answers on the fixtures are pinned too, as digests of each
answer's exit code and `describe()` text: a changed verdict, witness,
trace or note fails them, however the summaries are built.
"""

from __future__ import annotations

import hashlib

import pytest

from conftest import FIXTURE_LOWERS
from upstack import bounded_phase_pre_star, overapprox_post, parse_model
from upstack.commands.post_over import summary
from upstack.dot import export_dot
from upstack.fixtures import fixture_path
from upstack.grammar import build_post_grammar, single_origin
from upstack.overflow import check_stack_overflow
from upstack.residue import check_upper_read
from upstack.upperapprox import trace_overapprox

FIXTURE_SETS = (
    ("e1.upds", "C1"),
    ("e2.upds", "C2"),
    ("relocate.upds", "Boot"),
    ("relocate.upds", "NewStack"),
)

# (set, k or "post") -> (summary, first 16 hex digits of the DOT's sha256)
GOLDEN = {
    ("C1", 0): ("p: 3 nodes, 3 edges", "4f79bdae1d4c4f9b"),
    ("C1", 1): ("p: 3 nodes, 3 edges", "4f79bdae1d4c4f9b"),
    ("C1", 2): ("p: 3 nodes, 3 edges", "4f79bdae1d4c4f9b"),
    ("C1", 3): ("p: 3 nodes, 3 edges", "4f79bdae1d4c4f9b"),
    ("C1", 4): ("p: 3 nodes, 3 edges", "4f79bdae1d4c4f9b"),
    ("C1", "post"): ("p: 7 nodes, 23 edges; p2: 3 nodes, 4 edges", "0efb2fa255776385"),
    ("C2", 0): ("p: 3 nodes, 3 edges", "69154d22a604093c"),
    ("C2", 1): ("p: 5 nodes, 8 edges", "cdbca84fa5d2f798"),
    ("C2", 2): ("p: 8 nodes, 19 edges", "5fee2c21433c3e4d"),
    ("C2", 3): ("p: 10 nodes, 26 edges", "c835c317758fa8d6"),
    ("C2", 4): ("p: 17 nodes, 49 edges", "aab4c2bb00601a7d"),
    ("C2", "post"): ("p: 4 nodes, 11 edges", "e9503d56edead0ba"),
    ("Boot", 0): ("boot: 3 nodes, 2 edges", "75a8f1dd4eea4178"),
    ("Boot", 1): ("boot: 3 nodes, 2 edges", "75a8f1dd4eea4178"),
    ("Boot", 2): ("boot: 3 nodes, 2 edges", "75a8f1dd4eea4178"),
    ("Boot", 3): ("boot: 3 nodes, 2 edges", "75a8f1dd4eea4178"),
    ("Boot", 4): ("boot: 3 nodes, 2 edges", "75a8f1dd4eea4178"),
    ("Boot", "post"): (
        "boot: 3 nodes, 2 edges; fill: 4 nodes, 7 edges; pivot: 4 nodes, 6 edges",
        "d752601bfdf78316",
    ),
    ("NewStack", 0): ("pivot: 4 nodes, 4 edges", "790bd7dc3937f649"),
    ("NewStack", 1): ("fill: 4 nodes, 6 edges; pivot: 4 nodes, 4 edges", "864b6d3c13115389"),
    ("NewStack", 2): (
        "boot: 4 nodes, 7 edges; fill: 4 nodes, 9 edges; pivot: 4 nodes, 4 edges",
        "6bb1162c56a728eb",
    ),
    ("NewStack", 3): (
        "boot: 4 nodes, 7 edges; fill: 4 nodes, 9 edges; pivot: 4 nodes, 4 edges",
        "6bb1162c56a728eb",
    ),
    ("NewStack", 4): (
        "boot: 4 nodes, 7 edges; fill: 4 nodes, 9 edges; pivot: 4 nodes, 4 edges",
        "6bb1162c56a728eb",
    ),
    ("NewStack", "post"): ("pivot: 4 nodes, 4 edges", "790bd7dc3937f649"),
}


# (set, k) -> `pre-under --budget 1` summary
FALLBACK_GOLDEN = {
    ("C1", 0): "p: 3 nodes, 3 edges",
    ("C1", 1): "p: 3 nodes, 3 edges",
    ("C1", 2): "p: 3 nodes, 3 edges",
    ("C1", 3): "p: 3 nodes, 3 edges",
    ("C1", 4): "p: 3 nodes, 3 edges",
    ("C2", 0): "p: 3 nodes, 3 edges",
    ("C2", 1): "p: 6 nodes, 9 edges",
    ("C2", 2): "p: 8 nodes, 19 edges",
    ("C2", 3): "p: 11 nodes, 38 edges",
    ("C2", 4): "p: 15 nodes, 70 edges",
    ("Boot", 0): "boot: 3 nodes, 2 edges",
    ("Boot", 1): "boot: 3 nodes, 2 edges",
    ("Boot", 2): "boot: 3 nodes, 2 edges",
    ("Boot", 3): "boot: 3 nodes, 2 edges",
    ("Boot", 4): "boot: 3 nodes, 2 edges",
    ("NewStack", 0): "pivot: 4 nodes, 4 edges",
    ("NewStack", 1): "fill: 4 nodes, 6 edges; pivot: 4 nodes, 4 edges",
    ("NewStack", 2): "boot: 5 nodes, 11 edges; fill: 6 nodes, 19 edges; pivot: 4 nodes, 4 edges",
    ("NewStack", 3): "boot: 5 nodes, 11 edges; fill: 6 nodes, 19 edges; pivot: 4 nodes, 4 edges",
    ("NewStack", 4): "boot: 5 nodes, 11 edges; fill: 6 nodes, 19 edges; pivot: 4 nodes, 4 edges",
}


# set -> (digest of `export-dot --trace`, digest of `export-dot --grammar`),
# first 16 hex digits of the DOT's sha256
EXPORT_GOLDEN = {
    "C1": ("5c7f663d502ba55b", "3e38f63d889bc462"),
    "C2": ("546e3c8e5f65475e", "bab8a2fce38cd6da"),
    "Boot": ("6cdfad97fe31b8d4", "2a0b965f3e6cb80d"),
    "NewStack": ("f810279e9f43655b", "5b6055632f999dfa"),
}


# ("read", set) or ("overflow", fixture, starting lower word) -> first 16
# hex digits of the sha256 of every checker answer's exit code and
# `describe()` text: for a read, at k = 0..4 and each symbol of the
# alphabet; for an overflow, at k = 0..4 and m = 0..2. A Safe answer's
# text names only its k, so the digest of all-Safe answers repeats.
CHECKER_GOLDEN = {
    ("read", "C1"): "0dd6ba7fa67b8ea9",
    ("read", "C2"): "c37969a619ecc016",
    ("read", "Boot"): "91b2f560735f8298",
    ("read", "NewStack"): "a239e733038b7b64",
    ("overflow", "e1.upds", "x (y x)* bot"): "26990780d2b02d69",
    ("overflow", "e1.upds", "x bot"): "26990780d2b02d69",
    ("overflow", "e1.upds", "y x bot"): "c28244aa7a6f1012",
    ("overflow", "e1.upds", "a b bot"): "468d859c5bdc1e7d",
    ("overflow", "e1.upds", "_"): "64ba1203ff0e59a5",
    ("overflow", "e2.upds", "c"): "ca18cf10f473a97a",
    ("overflow", "e2.upds", "c c"): "0159ca8ea930537e",
    ("overflow", "e2.upds", "a b"): "64ba1203ff0e59a5",
    ("overflow", "e2.upds", "_"): "64ba1203ff0e59a5",
    ("overflow", "relocate.upds", "ret bot"): "17c4eb29809b87a3",
    ("overflow", "relocate.upds", "secret ret bot"): "64ba1203ff0e59a5",
    ("overflow", "relocate.upds", "_"): "64ba1203ff0e59a5",
}


def _digest(artifact) -> str:
    return hashlib.sha256(export_dot(artifact).encode()).hexdigest()[:16]


def _pinned(result) -> tuple[str, str]:
    return summary(result), _digest(result)


@pytest.mark.parametrize("fixture, name", FIXTURE_SETS)
def test_fixture_outputs_match_the_goldens(fixture, name):
    model = parse_model(fixture_path(fixture).read_text(encoding="utf-8"))
    configs = model.config_set(name)
    for k in range(5):
        assert _pinned(bounded_phase_pre_star(model.spec, configs, k)) == GOLDEN[(name, k)], k
        fell_back = bounded_phase_pre_star(model.spec, configs, k, node_budget=1)
        assert summary(fell_back) == FALLBACK_GOLDEN[(name, k)], k
    assert _pinned(overapprox_post(model.spec, configs)) == GOLDEN[(name, "post")]


@pytest.mark.parametrize("fixture, name", FIXTURE_SETS)
def test_fixture_exports_match_the_goldens(fixture, name):
    model = parse_model(fixture_path(fixture).read_text(encoding="utf-8"))
    configs = model.config_set(name)
    trace = trace_overapprox(model.spec, configs)
    grammar = build_post_grammar(single_origin(model.spec, configs))
    assert (_digest(trace), _digest(grammar)) == EXPORT_GOLDEN[name]


def _answers_digest(verdicts) -> str:
    text = "\n".join(f"{verdict.exit_code}\n{verdict.describe()}" for verdict in verdicts)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("fixture, name", FIXTURE_SETS)
def test_fixture_read_answers_match_the_goldens(fixture, name):
    model = parse_model(fixture_path(fixture).read_text(encoding="utf-8"))
    verdicts = (
        check_upper_read(model, name, symbol, k=k)
        for k in range(5)
        for symbol in model.spec.alphabet
    )
    assert _answers_digest(verdicts) == CHECKER_GOLDEN["read", name]


@pytest.mark.parametrize(
    "fixture, lower",
    [(name, lower) for name in sorted(FIXTURE_LOWERS) for lower in FIXTURE_LOWERS[name]],
)
def test_fixture_overflow_answers_match_the_goldens(fixture, lower):
    model = parse_model(fixture_path(fixture).read_text(encoding="utf-8"))
    verdicts = (check_stack_overflow(model, m, lower, k=k) for k in range(5) for m in range(3))
    assert _answers_digest(verdicts) == CHECKER_GOLDEN["overflow", fixture, lower]
