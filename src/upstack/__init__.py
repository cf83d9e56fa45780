"""Reachability analysis for pushdown systems with an upper stack.

The lower stack is the classic pushdown stack; the upper stack is the
still-readable region above the stack top left behind by pops. The
package offers exact forward reachability by a size-capped search
(with the paper's grammar encoding kept for export), a phase-bounded
regular under-approximation of backward reachability, a regular
over-approximation of forward reachability, and checkers for two
safety patterns built on those, plus a small CLI.
"""

from .checkers import (
    Verdict,
    check_stack_overflow,
    check_upper_read,
    decide_safety,
)
from .configsets import ConfigAutomaton, from_config_set
from .core import (
    Configuration,
    Rule,
    RuleKind,
    Trace,
    UpdsSpec,
    count_phases,
    make_spec,
    run_trace,
    step,
    trace_upper_word,
)
from .dot import export_dot
from .errors import (
    MalformedInputError,
    ParseError,
    ResourceLimitError,
    RuleNotEnabledError,
    UpstackError,
)
from .fixtures import fixture_names, fixture_path, fixture_text
from .grammar import build_post_grammar, is_reachable, single_origin
from .kphase import PhaseKind, bounded_phase_pre_star, phase_pre
from .model import (
    ModelFile,
    parse_config_literal,
    parse_model,
    print_config_literal,
    print_model,
)
from .oracle import oracle_post, oracle_pre_kphase, oracle_trace
from .regex import compile_config_regex, parse_config_regex, print_config_regex
from .upperapprox import (
    TraceAutomaton,
    UpperAutomaton,
    overapprox_post,
    saturate_upper,
    trace_overapprox,
    upper_config_set,
)

__all__ = [
    "ConfigAutomaton",
    "Configuration",
    "MalformedInputError",
    "ModelFile",
    "ParseError",
    "PhaseKind",
    "ResourceLimitError",
    "Rule",
    "RuleKind",
    "RuleNotEnabledError",
    "Trace",
    "TraceAutomaton",
    "UpdsSpec",
    "UpperAutomaton",
    "UpstackError",
    "Verdict",
    "bounded_phase_pre_star",
    "build_post_grammar",
    "check_stack_overflow",
    "check_upper_read",
    "compile_config_regex",
    "count_phases",
    "decide_safety",
    "export_dot",
    "fixture_names",
    "fixture_path",
    "fixture_text",
    "from_config_set",
    "is_reachable",
    "make_spec",
    "oracle_post",
    "oracle_pre_kphase",
    "oracle_trace",
    "overapprox_post",
    "parse_config_literal",
    "parse_config_regex",
    "parse_model",
    "phase_pre",
    "print_config_literal",
    "print_config_regex",
    "print_model",
    "run_trace",
    "saturate_upper",
    "single_origin",
    "step",
    "trace_overapprox",
    "trace_upper_word",
    "upper_config_set",
]

__version__ = "0.1.0"
