"""Reachability analysis for pushdown systems with an upper stack.

The lower stack is the classic pushdown stack; the upper stack is the
still-readable region above the stack top left behind by pops. The
package offers exact forward reachability by a size-capped search
(with the paper's grammar encoding kept for export), a phase-bounded
regular under-approximation of backward reachability, a regular
over-approximation of forward reachability, the decision that brackets
a safety pattern between those two, checkers for two safety patterns
decided within k phases on the lower stack alone, and a small CLI.

The public names load on first use (PEP 562): `import upstack` loads no
analysis module, and `upstack.X` or `from upstack import X` imports only
the submodule that defines X.

Each CLI call compiles every module it imports, so code lives in a
module that the commands running it load: what no command runs is in
`extras`, and what only some commands run is in theirs. Parsing a
model, compiling its sets and deciding membership use only the
automaton core (`nfa`); the automaton and set algebra that the analyses
run is in `compaction`, the bounded closure that only the `oracle`
command lists is in that command's module, and the walk of a set's
words and members in `words`. Start-up, `import upstack` and then
parsing a model and compiling its sets, loads seven modules: this one,
`errors`, `core`, `regex`, `model`, `nfa` and `configsets`. They keep
only what start-up, a membership query or most commands run: a
configuration literal's parser is in `literal`, which only the commands
that take a configuration load; the checkers' decision within k phases
is in `phasecopy`, which a checker loads only once the lower-stack
summaries show a violation; and the decision from the two one-sided
analyses, `decide_safety`, is in `safety`, which no command loads.

Each name has one home. A moved method is still a method of its class,
whose body loads on first use (`_MovedMethod`, several at a time through
`_moved_methods`). A moved name keeps its old import path only where a
pinned contract imports it from there: the imports of
`tests/test_acceptance.py`, and the module names that
`tests/test_package.py` lists (`_MODULE_NAMES`). The old module's
`_forward` then serves it, loading its home on first use.
"""

from importlib import import_module

# Each submodule and the public names it defines.
_HOMES = {
    name: home
    for home, names in {
        "checkers": "Verdict",
        "commands.oracle": "oracle_post",
        "configsets": "ConfigAutomaton",
        "core": "Configuration Rule Trace UpdsSpec",
        "dot": "export_dot",
        "errors": "MalformedInputError ParseError ResourceLimitError RuleNotEnabledError "
        "UpstackError",
        "extras": "count_phases from_config_set make_spec oracle_pre_kphase oracle_trace "
        "parse_config_regex phase_pre print_config_regex print_model run_trace "
        "saturate_upper step trace_upper_word upper_config_set",
        "fixtures": "fixture_names fixture_path fixture_text",
        "grammar": "RuleKind build_post_grammar single_origin",
        "kphase": "PhaseKind bounded_phase_pre_star",
        "literal": "parse_config_literal",
        "membership": "is_reachable",
        "model": "ModelFile parse_model print_config_literal",
        "overflow": "check_stack_overflow",
        "regex": "compile_config_regex",
        "residue": "check_upper_read",
        "safety": "decide_safety",
        "upperapprox": "TraceAutomaton UpperAutomaton overapprox_post trace_overapprox",
    }.items()
    for name in names.split()
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


def _forward(module: str, **homes: str):
    """The `__getattr__` (PEP 562) of a submodule some of whose names
    moved: each keyword is a home module, its value the names (separated
    by spaces) that moved there. A name loads its home on first use."""
    home_of = {name: home for home, names in homes.items() for name in names.split()}

    def __getattr__(name: str):
        home = home_of.get(name)
        if home is None:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        return getattr(import_module(f".{home}", __name__), name)

    return __getattr__


class _MovedMethod:
    """A method whose body is a function of the submodule `home`, named
    `function` or else like the method, that takes the instance as its
    first argument. The first lookup loads the home and puts the function
    itself on the class, so later calls go straight to it."""

    def __init__(self, home: str, function: str = "") -> None:
        self.home = home
        self.function = function

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, instance, owner):
        home = import_module(f".{self.home}", __name__)
        function = getattr(home, self.function or self.name)
        setattr(owner, self.name, function)
        return function.__get__(instance, owner)


def _moved_methods(**homes: str):
    """A class decorator for methods that moved under their own names:
    each keyword is a home module, its value the names (separated by
    spaces) of the methods whose bodies are functions of that module.
    Each becomes a `_MovedMethod`."""

    def decorate(cls):
        for home, names in homes.items():
            for name in names.split():
                method = _MovedMethod(home)
                method.name = name
                setattr(cls, name, method)
        return cls

    return decorate
