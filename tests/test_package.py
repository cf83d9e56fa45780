"""The package namespace and what each import loads.

`import upstack` resolves its public names lazily, and each CLI command
imports only the analysis it runs, so a call compiles no module it does
not use.
"""

import ast
import json
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import upstack
from conftest import subprocess_env
from upstack.fixtures import fixture_text

# The public API as the package has always exported it.
PUBLIC_NAMES = {
    "ConfigAutomaton", "Configuration", "MalformedInputError", "ModelFile",
    "ParseError", "PhaseKind", "ResourceLimitError", "Rule", "RuleKind",
    "RuleNotEnabledError", "Trace", "TraceAutomaton", "UpdsSpec",
    "UpperAutomaton", "UpstackError", "Verdict", "bounded_phase_pre_star",
    "build_post_grammar", "check_stack_overflow", "check_upper_read",
    "compile_config_regex", "count_phases", "decide_safety", "export_dot",
    "fixture_names", "fixture_path", "fixture_text", "from_config_set",
    "is_reachable", "make_spec", "oracle_post", "oracle_pre_kphase",
    "oracle_trace", "overapprox_post", "parse_config_literal",
    "parse_config_regex", "parse_model", "phase_pre", "print_config_literal",
    "print_config_regex", "print_model", "run_trace", "saturate_upper",
    "single_origin", "step", "trace_overapprox", "trace_upper_word",
    "upper_config_set",
}


def test_namespace_exports_each_name_from_its_home():
    assert set(upstack.__all__) == set(upstack._HOMES) == PUBLIC_NAMES
    for name, home in upstack._HOMES.items():
        assert getattr(upstack, name) is getattr(import_module(f"upstack.{home}"), name)
        assert name in vars(upstack), name
    star: dict = {}
    exec("from upstack import *", star)
    for name in PUBLIC_NAMES:
        assert star[name] is getattr(upstack, name)
    with pytest.raises(AttributeError, match="no_such_name"):
        upstack.no_such_name
    assert set(upstack.__all__) <= set(dir(upstack))
    assert upstack.__version__ == "0.1.0"


# Runs in a fresh interpreter: prints, as JSON, the upstack submodules
# loaded after a bare import and after each command of the argument lists
# in sys.argv[1] (JSON), run in this order. A model named by a relative
# path is a shipped one.
_LOADED_PER_STEP = """
import contextlib, io, json, os, sys

def loaded():
    return sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("upstack."))

import upstack
steps = {"import": loaded()}
from upstack.cli import main
from upstack.fixtures import fixture_path
for argv in json.loads(sys.argv[1]):
    if not os.path.isabs(argv[1]):
        argv[1] = str(fixture_path(argv[1]))
    with contextlib.redirect_stdout(io.StringIO()):
        main(argv)
    steps[argv[0]] = loaded()
print(json.dumps(steps))
"""


def _loaded_per_step(*argvs: list[str]) -> dict[str, set[str]]:
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_PER_STEP, json.dumps(argvs)],
        env=subprocess_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    return {step: set(modules) for step, modules in json.loads(proc.stdout).items()}


def test_each_command_loads_only_what_it_runs(tmp_path):
    loaded = _loaded_per_step(
        ["member", "e1.upds", "--init", "C1", "--config", "p2: a ^ bot"],
        ["check-read", "relocate.upds", "--init", "Boot", "--symbol", "secret"],
        ["check-overflow", "e1.upds", "-m", "1", "--lower", "x (y x)* bot"],
        ["pre-under", "e2.upds", "--target", "C2", "-k", "2", "--config", "p: b ^ c c"],
    )
    assert loaded["import"] == set()
    assert "membership" in loaded["member"]
    assert not loaded["member"] & {
        "checkers", "compaction", "kphase", "upperapprox", "pds", "dot", "grammar", "oracle"
    }
    # Both checker answers are Unsafe, decided on the lower stack: the
    # summaries and a replayed trace of at most k phases. Such a call loads
    # neither the pre* rounds, the set algebra, the over-approximation, the
    # grammar nor what no command runs.
    fallback = {"kphase", "compaction", "product", "upperapprox", "extras", "grammar"}
    for command in ("check-read", "check-overflow"):
        assert {"checkers", "summaries", "oracle"} <= loaded[command], command
        assert not loaded[command] & (fallback | {"pds", "dot"}), command
    # A Safe from the lower stack needs no replay either: no run pops ret.
    safe = ["check-read", "relocate.upds", "--init", "Boot", "--symbol", "ret"]
    lower_safe = _loaded_per_step(safe)["check-read"]
    assert "summaries" in lower_safe
    assert not lower_safe & (fallback | {"oracle"})
    # The phases saturate nothing, so `pre*` does not load the lower-stack
    # saturation.
    assert "kphase" in loaded["pre-under"]
    assert "pds" not in loaded["pre-under"]
    # Where a start upper word holds the symbol and no run pops it, the
    # summaries leave the read to `decide_safety`. In NewStack every upper
    # word ends with secret: the pre* rounds hit at once, and their hit
    # replays (with no step), so the over-approximation is never loaded.
    hit = _loaded_per_step(
        ["check-read", "relocate.upds", "--init", "NewStack", "--symbol", "secret"]
    )["check-read"]
    assert {"checkers", "summaries", "compaction", "kphase", "oracle"} <= hit
    assert not hit & {"upperapprox", "pds", "extras"}
    # A Safe there has no hit to replay, so it never loads the replay. In
    # Held, secret sits under canary and no run exposes or pops it. At the
    # default k the pre* rounds converge with no hit: the exact pre*
    # decides, and neither the over-approximation nor the lower-stack
    # saturation is loaded. At k=1 they have not converged yet, and the
    # over-approximation decides.
    model = tmp_path / "held.upds"
    model.write_text(
        fixture_text("relocate.upds") + "set Held pivot secret canary ^ ret bot\n",
        encoding="utf-8",
    )
    held = ["check-read", str(model), "--init", "Held", "--symbol", "secret"]
    converged = _loaded_per_step(held)["check-read"]
    assert {"checkers", "kphase"} <= converged
    assert not converged & {"upperapprox", "pds", "oracle"}
    over = _loaded_per_step([*held, "-k", "1"])["check-read"]
    assert {"checkers", "kphase", "upperapprox"} <= over
    assert "oracle" not in over
    # A set's DOT needs neither a search, an over-approximation, a grammar
    # nor the automaton algebra: a compiled set is drawn as it is.
    dot = _loaded_per_step(["export-dot", "e1.upds", "--set", "C1"])["export-dot"]
    assert "dot" in dot
    assert not dot & {"oracle", "grammar", "upperapprox", "compaction"}


# The upstack syntax-tree nodes that a call compiles, summed over the
# modules it loads (`ast.walk` of each file, the package's __init__
# included), and a ceiling for each. Compile time follows the size of the
# syntax tree, not the number of lines, and the CLI compiles the package
# from source on every call, so a ceiling that fails means that code moved
# onto a command's path.
_COMPILED_NODE_CEILINGS = {
    # kind: (argv, ceiling). Each ceiling is the count it was set from plus
    # 2%, rounded down: check-read-unsafe 15794, check-read-safe 14873,
    # check-overflow 15919, export-dot-set 8087 and pre-under 13467,
    # counted when the front end came to place every parse error with one
    # finder, and member 9458 (9137 before), when exact membership came to
    # test the classes of a backward chain that runs dry against the start
    # set, and post-over 12871, when `saturate_upper`, which no command
    # runs, moved to `extras` (13291 before, a count with no margin).
    # Counted then, with each declared name stored once per model: member
    # 9501, check-read-unsafe 15797, check-read-safe 14876, check-overflow
    # 15922, post-over 12871, export-dot-set 8174 and pre-under 13486.
    # Counted when the parser came to build each rule and set once and
    # `RuleKind` moved to `grammar`: member 9491, check-read-unsafe 15787,
    # check-read-safe 14866, check-overflow 15912, post-over 12861,
    # export-dot-set 8164 and pre-under 13476; the four ceilings that the
    # count plus 2% undercuts were reset to it. Counted when the checkers
    # came to decide from the lower-stack summaries first, loading no
    # pre* rounds, set algebra or product: check-read-unsafe 10831,
    # check-read-safe 9910 and check-overflow 10843. The first and last,
    # answered with a replayed trace, are held at 11000, a little under
    # their count plus 2%; check-read-safe, a Safe with no replay, at its
    # count plus 2%. Counted when the search from a lower-stack witness
    # got a budget of its own: check-read-unsafe 10850, check-read-safe
    # 9929 and check-overflow 10862. Counted when start-up came to compile
    # only what starting up runs, and the checkers' shared decision left
    # `checkers`: member 9218, check-read-unsafe 9844, check-read-safe
    # 8923, check-overflow 9892, post-over 12588, export-dot-set 7565 and
    # pre-under 13203; each ceiling is now that count plus 2%.
    "member": (["member", "e1.upds", "--init", "C1", "--config", "p2: a ^ bot"], 9402),
    "check-read-unsafe": (
        ["check-read", "relocate.upds", "--init", "Boot", "--symbol", "secret"], 10040
    ),
    "check-read-safe": (
        ["check-read", "relocate.upds", "--init", "Boot", "--symbol", "ret"], 9101
    ),
    "check-overflow": (
        ["check-overflow", "e1.upds", "-m", "1", "--lower", "x (y x)* bot"], 10089
    ),
    "post-over": (["post-over", "e2.upds", "--init", "C2", "--config", "p: a ^ c b"], 12839),
    "export-dot-set": (["export-dot", "e1.upds", "--set", "C1"], 7716),
    "pre-under": (
        ["pre-under", "e2.upds", "--target", "C2", "-k", "2", "--config", "p: b ^ c c"], 13467
    ),
}


def _compiled_nodes(modules: set[str]) -> int:
    package = Path(upstack.__file__).parent
    files = [package / "__init__.py"]
    for name in modules:
        path = package.joinpath(*name.split("."))
        files.append(path / "__init__.py" if path.is_dir() else path.with_suffix(".py"))
    trees = (ast.parse(path.read_text(encoding="utf-8")) for path in files)
    return sum(sum(1 for _ in ast.walk(tree)) for tree in trees)


@pytest.mark.parametrize("kind", _COMPILED_NODE_CEILINGS)
def test_each_command_compiles_at_most_its_ceiling(kind):
    argv, ceiling = _COMPILED_NODE_CEILINGS[kind]
    # The helper itself loads `fixtures`; a CLI call does not.
    loaded = _loaded_per_step(argv)[argv[0]] - {"fixtures"}
    # What no command runs lives in `extras`.
    assert "extras" not in loaded
    assert _compiled_nodes(loaded) <= ceiling


# Each command in each of its modes. A checker is run where the
# lower-stack summaries decide and, at k=0, where they leave the question
# to the shared decision, which then runs the over-approximation.
_EVERY_COMMAND_PATH = (
    ["member", "e1.upds", "--init", "C1", "--config", "p2: a ^ bot"],
    ["pre-under", "e2.upds", "--target", "C2", "-k", "2", "--config", "p: b ^ c c"],
    ["pre-under", "e2.upds", "--target", "C2"],
    ["post-over", "e2.upds", "--init", "C2", "--config", "p: a ^ c b"],
    ["post-over", "e2.upds", "--init", "C2"],
    ["check-read", "relocate.upds", "--init", "Boot", "--symbol", "secret"],
    ["check-read", "relocate.upds", "--init", "Boot", "--symbol", "ret"],
    ["check-read", "relocate.upds", "--init", "NewStack", "--symbol", "secret"],
    ["check-read", "e1.upds", "--init", "C1", "--symbol", "a", "-k", "0"],
    ["check-overflow", "e1.upds", "-m", "1", "--lower", "x (y x)* bot"],
    ["check-overflow", "e1.upds", "-m", "1", "--lower", "x bot", "-k", "0"],
    ["export-dot", "e1.upds", "--set", "C1"],
    ["export-dot", "e1.upds", "--trace", "C1"],
    ["export-dot", "e2.upds", "--grammar", "C2"],
    ["oracle", "e1.upds", "--init", "C1", "--depth", "3"],
    ["oracle", "e1.upds", "--init", "C1", "--depth", "3", "--config", "p2: a ^ bot"],
)


def test_no_command_loads_extras():
    # The steps run in one interpreter, so the last one has loaded what
    # every command path before it loaded.
    loaded = _loaded_per_step(*_EVERY_COMMAND_PATH)
    everything = set().union(*loaded.values())
    # The paths include the shared decision, both approximations, the
    # grammar and the bounded closure.
    assert {"safety", "kphase", "upperapprox", "grammar", "dot", "oracle"} <= everything
    assert "extras" not in everything


# Runs in a fresh interpreter: what the benchmark's cli set-up times,
# `import upstack` and then, for each shipped model the cli workload
# runs, parsing it and compiling each of its sets. Prints, as JSON, the
# upstack submodules loaded.
_STARTUP_PATH = """
import json, sys
import upstack
from upstack.fixtures import fixture_text

for name in ("e1.upds", "e2.upds", "relocate.upds"):
    model = upstack.parse_model(fixture_text(name))
    for set_name in model.set_names():
        model.config_set(set_name)
print(json.dumps(sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("upstack."))))
"""

# The seven modules that start-up compiles, the package's __init__
# included, counted 6051 nodes before the code that no set-up runs left
# them (a configuration literal's parser, `make_spec`, the expression
# parsers on their own, a rule's repr and a configuration's str), and
# 5448 after. The ceiling is that count plus 2%, rounded down.
_STARTUP_CEILING = 5556


def test_start_up_compiles_only_the_front_end():
    proc = subprocess.run(
        [sys.executable, "-c", _STARTUP_PATH],
        env=subprocess_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    # The helper loads `fixtures`; the set-up it stands for reads files.
    loaded = set(json.loads(proc.stdout)) - {"fixtures"}
    assert loaded == {"configsets", "core", "errors", "model", "nfa", "regex"}
    assert _compiled_nodes(loaded) <= _STARTUP_CEILING


# Runs in a fresh interpreter: the set-up of exact membership (parse a
# model, compile its sets, parse the probes) and then the queries, on e1's
# C1 and on a wide set. Prints, as JSON, the upstack submodules loaded
# after the set-up and after the queries, and the answers.
_MEMBERSHIP_PATH = """
import json, sys

def loaded():
    return sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("upstack."))

import upstack
from upstack.fixtures import fixture_text
model = upstack.parse_model(fixture_text("e1.upds") + "set Wide p ^ (x | y | a | b)* bot\\n")
sets = {name: model.config_set(name) for name in ("C1", "Wide")}
probes = [
    ("C1", "p2: a ^ bot"), ("C1", "p2: x a b ^ bot"), ("C1", "p2: a a a b b ^ bot"),
    ("Wide", "p2: a a b ^ bot"), ("Wide", "p: x ^ y bot"),
]
configs = [(name, upstack.parse_config_literal(model.spec, text)) for name, text in probes]
steps = {"setup": loaded()}
answers = [upstack.is_reachable(model.spec, sets[name], c) for name, c in configs]
steps["queries"] = loaded()
print(json.dumps({"steps": steps, "answers": answers}))
"""

# The set-up of exact membership compiled 8752 nodes before the automaton
# algebra left `nfa`; the ceiling is its count of 5970, when the front end
# came to place every parse error with one finder, plus 2%, rounded down.
# It counted 6057 when each declared name came to be stored once per
# model, and 6047 when the parser came to build each rule and set once.
# It counts 5770, `literal` included, since start-up came to compile only
# what starting up runs, and the ceiling is that count plus 2%.
_MEMBERSHIP_SETUP_CEILING = 5885


def test_membership_never_loads_the_automaton_algebra():
    proc = subprocess.run(
        [sys.executable, "-c", _MEMBERSHIP_PATH],
        env=subprocess_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    out = json.loads(proc.stdout)
    assert out["answers"] == [True, False, True, True, False]
    setup, queries = (set(out["steps"][step]) - {"fixtures"} for step in ("setup", "queries"))
    assert setup == {"configsets", "core", "errors", "literal", "model", "nfa", "regex"}
    assert queries == setup | {"limits", "membership"}
    assert _compiled_nodes(setup) <= _MEMBERSHIP_SETUP_CEILING


# The names that `nfa`, `configsets` and `core` had before the automaton
# and set algebra moved to `compaction` and `oracle_post` to the `oracle`
# command, less what they imported from the standard library and the
# package's forwarding helpers. Each still resolves where it was, and the
# moved ones run from there.
_MODULE_NAMES = {
    "nfa": "DFA_STATE_BUDGET EPSILON Label Nfa Node _Epsilon _coreachable _identity "
    "from_words intersection label_key union",
    "configsets": "ConfigAutomaton Configuration DFA_STATE_BUDGET MalformedInputError Nfa "
    "UpdsSpec _BAR bar check_alphabets config_from_word config_word "
    "from_config_set intersect_sets is_barred project_lower project_upper unbar union "
    "union_sets upper_lower_product",
    "core": "ConfigTuple Configuration Frozen MalformedInputError Move Rule RuleKind Trace "
    "UpdsSpec Word apply_rule check_configuration count_phases fresh_name make_spec "
    "run_trace step successors trace_upper_word",
    "oracle": "oracle_post oracle_trace explore search_trace is_reachable",
}
_CLASS_MEMBERS = {
    "Nfa": "_advance _free_row accepts add_edge add_final add_initial add_node compact copy "
    "edge_count edges embed eps_closure eps_eliminate has_edge is_empty labels map_labels "
    "map_nodes nodes out_edges reachable relabel reverse run same saturate shortest_word "
    "step targets trim walk words_up_to",
    "ConfigAutomaton": "_scan accepts check_against compact component enumerate_configs "
    "is_empty members same shortest_config states validate",
    "Rule": "from_state kind read_symbol to_state written",
    "UpdsSpec": "_reject check_word rules_reading",
}

_NAMES_RUN = """
import json, sys
from upstack import core, configsets, nfa, oracle

modules = {"nfa": nfa, "configsets": configsets, "core": core, "oracle": oracle}
names = json.loads(sys.argv[1])
missing = [f"{m}.{n}" for m, ns in names["modules"].items() for n in ns.split()
           if not hasattr(modules[m], n)]
classes = {"Nfa": nfa.Nfa, "ConfigAutomaton": configsets.ConfigAutomaton,
           "Rule": core.Rule, "UpdsSpec": core.UpdsSpec}
missing += [f"{c}.{n}" for c, ns in names["classes"].items() for n in ns.split()
            if not hasattr(classes[c], n)]
print(json.dumps(missing))
"""


def test_names_of_the_core_modules_still_resolve():
    proc = subprocess.run(
        [sys.executable, "-c", _NAMES_RUN,
         json.dumps({"modules": _MODULE_NAMES, "classes": _CLASS_MEMBERS})],
        env=subprocess_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(proc.stdout) == []


def test_moved_names_run_from_their_old_places(e1):
    from upstack import compaction, configsets, core, nfa, oracle
    from upstack.commands import oracle as oracle_command

    a = nfa.from_words([("a",), ("a", "b")])
    b = nfa.from_words([("b",)])
    both = nfa.union([a, b])
    assert both.words_up_to(2) == [("a",), ("b",), ("a", "b")]
    assert nfa.intersection(both, a).compact().same(a.compact())
    assert nfa._identity(3) == 3 and nfa.DFA_STATE_BUDGET > 0
    assert nfa._coreachable(a._edges, a.finals) == set(a.nodes())
    # The algebra, as methods of an automaton built by the core alone.
    loop = nfa.Nfa(["s"], ["t"])
    loop.add_edge("s", nfa.EPSILON, "t")
    loop.add_edge("t", "a", "s")
    loop.add_edge("u", "b", "t")
    assert loop.has_edge("t", "a", "s") and loop.labels() == ["a", "b"]
    assert list(loop.out_edges("t")) == [("a", "s")] and loop.targets("u", "b") == ("t",)
    assert loop.edge_count() == 3 and loop.eps_closure(["s"]) == {"s", "t"}
    assert loop.step(["t"], "a") == {"s", "t"} and loop._advance({"t"}, "a") == {"s", "t"}
    assert loop.run(["a", "a"]) == {"s", "t"} and loop.accepts(["a"])
    assert loop.reachable(["u"]) == {"u", "s", "t"} and loop.shortest_word() == ()
    assert not loop.is_empty() and loop.copy().same(loop) and not loop.same(a)
    assert loop.reverse().reverse().same(loop)
    assert loop.trim().nodes() == ["s", "t"]
    assert loop._free_row("s") == ({"a": {"s": None}}, True)
    assert nfa.EPSILON not in {label for _, label, _ in loop.eps_eliminate().edges()}
    assert loop.compact().words_up_to(2) == [(), ("a",), ("a", "a")]
    grown = nfa.Nfa().embed(a, lambda n: ("x", n), lambda label: label * 2)
    assert ("x", "w") in grown.nodes() and grown.labels() == ["aa", "bb"]
    grown.saturate(lambda: [(("x", "w"), "c", ("x", "w"))])
    assert grown.has_edge(("x", "w"), "c", ("x", "w"))
    assert a.map_labels(str.upper).labels() == ["A", "B"]
    assert set(a.map_nodes(str).nodes()) == {str(n) for n in a.nodes()}
    assert len(a.relabel().nodes()) == len(a.nodes())
    assert list(a.walk(1, lambda word, label: word + label, "")) == ["a"]
    # The set algebra, from `configsets`.
    c1 = configsets.ConfigAutomaton(e1.alphabet, {"p": nfa.from_words([("x", "bot")])})
    other = configsets.ConfigAutomaton(e1.alphabet, {"p2": nfa.from_words([("bot",)])})
    start = core.Configuration("p", (), ("x", "bot"))
    assert c1.accepts(start) and not other.accepts(start) and not c1.is_empty()
    assert c1.compact().same(c1.compact()) and not c1.same(other)
    assert configsets.union_sets(c1, other).states() == ["p", "p2"]
    assert configsets.intersect_sets(c1, other).is_empty()
    assert configsets.config_word(start) == ("x", "bot")
    assert configsets.union is compaction.union
    configsets.check_alphabets(("a", "b"), ("b", "a"))
    # The bounded closure, from `oracle` and the package.
    assert oracle.oracle_post is oracle_command.oracle_post
    assert oracle.oracle_post(e1, [start], 1, 3) == {start, core.Configuration("p", (), ("a", "bot"))}


def _forward_tables() -> dict[str, dict[str, str]]:
    """Each module of the package that calls `_forward`, with the names
    its table serves and the home each loads, read from the source."""
    package = Path(upstack.__file__).parent
    tables: dict[str, dict[str, str]] = {}
    for path in sorted(package.rglob("*.py")):
        module = ".".join(path.relative_to(package).with_suffix("").parts)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_forward"):
                continue
            table = tables.setdefault(module, {})
            for keyword in node.keywords:
                value = ast.literal_eval(keyword.value)
                homes = value if keyword.arg is None else {keyword.arg: value}
                for home, names in homes.items():
                    for name in names.split():
                        assert name not in table, f"{module}.{name}"
                        table[name] = home
    return tables


def test_each_old_path_is_pinned_and_serves_its_home():
    # A moved name keeps its old import path only where a pinned contract
    # imports it from there: `_MODULE_NAMES`, or the imports of
    # test_acceptance.py.
    acceptance = Path(__file__).with_name("test_acceptance.py").read_text(encoding="utf-8")
    pinned = {(module, name) for module, names in _MODULE_NAMES.items() for name in names.split()}
    pinned |= {
        (node.module.removeprefix("upstack."), alias.name)
        for node in ast.walk(ast.parse(acceptance))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("upstack.")
        for alias in node.names
    }
    tables = _forward_tables()
    assert tables
    for module, table in tables.items():
        old = import_module(f"upstack.{module}")
        for name, home in table.items():
            assert (module, name) in pinned, f"{module}.{name} is not pinned"
            # The module's own names would shadow the table's.
            assert name not in vars(old), f"{module}.{name}"
            defined = vars(import_module(f"upstack.{home}"))
            assert name in defined, f"{home} defines no {name}"
            assert getattr(old, name) is defined[name], f"{module}.{name}"
