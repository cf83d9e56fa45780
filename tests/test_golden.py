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
"""

from __future__ import annotations

import hashlib

import pytest

from upstack import bounded_phase_pre_star, overapprox_post, parse_model
from upstack.commands.post_over import summary
from upstack.dot import export_dot
from upstack.fixtures import fixture_path
from upstack.grammar import build_post_grammar, single_origin
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
