"""Reachability analysis for pushdown systems with an upper stack.

The lower stack is the classic pushdown stack; the upper stack is the
still-readable region above the stack top left behind by pops. The
package offers exact forward reachability by a size-capped search
(with the paper's grammar encoding kept for export), a phase-bounded
regular under-approximation of backward reachability, a regular
over-approximation of forward reachability, and checkers for two
safety patterns built on those, plus a small CLI.

The public names load on first use (PEP 562): `import upstack` loads no
analysis module, and `upstack.X` or `from upstack import X` imports only
the submodule that defines X.
"""

from importlib import import_module

# Each public name and the submodule that defines it.
_HOMES = {
    "Verdict": "checkers",
    "check_stack_overflow": "checkers",
    "check_upper_read": "checkers",
    "decide_safety": "checkers",
    "ConfigAutomaton": "configsets",
    "from_config_set": "configsets",
    "Configuration": "core",
    "Rule": "core",
    "RuleKind": "core",
    "Trace": "core",
    "UpdsSpec": "core",
    "count_phases": "core",
    "make_spec": "core",
    "run_trace": "core",
    "step": "core",
    "trace_upper_word": "core",
    "export_dot": "dot",
    "MalformedInputError": "errors",
    "ParseError": "errors",
    "ResourceLimitError": "errors",
    "RuleNotEnabledError": "errors",
    "UpstackError": "errors",
    "fixture_names": "fixtures",
    "fixture_path": "fixtures",
    "fixture_text": "fixtures",
    "build_post_grammar": "grammar",
    "PhaseKind": "kphase",
    "bounded_phase_pre_star": "kphase",
    "phase_pre": "kphase",
    "ModelFile": "model",
    "parse_config_literal": "model",
    "parse_model": "model",
    "print_config_literal": "model",
    "print_model": "model",
    "is_reachable": "oracle",
    "oracle_post": "oracle",
    "oracle_pre_kphase": "oracle",
    "oracle_trace": "oracle",
    "compile_config_regex": "regex",
    "parse_config_regex": "regex",
    "print_config_regex": "regex",
    "TraceAutomaton": "upperapprox",
    "UpperAutomaton": "upperapprox",
    "overapprox_post": "upperapprox",
    "saturate_upper": "upperapprox",
    "single_origin": "upperapprox",
    "trace_overapprox": "upperapprox",
    "upper_config_set": "upperapprox",
}

__all__ = sorted(_HOMES)

__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
