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
# in sys.argv[1] (JSON), run in this order.
_LOADED_PER_STEP = """
import contextlib, io, json, sys

def loaded():
    return sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("upstack."))

import upstack
steps = {"import": loaded()}
from upstack.cli import main
from upstack.fixtures import fixture_path
for argv in json.loads(sys.argv[1]):
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


def test_each_command_loads_only_what_it_runs():
    loaded = _loaded_per_step(
        ["member", "e1.upds", "--init", "C1", "--config", "p2: a ^ bot"],
        ["check-read", "relocate.upds", "--init", "Boot", "--symbol", "secret"],
        ["check-overflow", "e1.upds", "-m", "1", "--lower", "x (y x)* bot"],
        ["pre-under", "e2.upds", "--target", "C2", "-k", "2", "--config", "p: b ^ c c"],
    )
    assert loaded["import"] == set()
    assert "oracle" in loaded["member"]
    assert not loaded["member"] & {
        "checkers", "compaction", "kphase", "upperapprox", "pds", "dot", "grammar"
    }
    # The checkers ran (so the sets below are not trivially small), yet
    # neither the grammar nor the DOT renderer was loaded. Both answers
    # are Unsafe: a hit decides them, so the over-approximation is never
    # loaded.
    assert {"checkers", "compaction", "kphase", "oracle"} <= loaded["check-read"]
    assert "upperapprox" not in loaded["check-read"]
    assert "upperapprox" not in loaded["check-overflow"]
    assert not loaded["check-overflow"] & {"grammar", "dot"}
    # The phases saturate nothing, so `pre*` does not load the lower-stack
    # saturation.
    assert "kphase" in loaded["pre-under"]
    for command in ("check-read", "check-overflow", "pre-under"):
        assert "pds" not in loaded[command], command
    # A Safe answer has no hit to replay: it loads the over-approximation
    # and not the replay.
    safe = _loaded_per_step(["check-read", "relocate.upds", "--init", "Boot", "--symbol", "ret"])
    assert {"checkers", "kphase", "upperapprox"} <= safe["check-read"]
    assert "oracle" not in safe["check-read"]
    # A set's DOT needs neither a search, an over-approximation nor a grammar.
    dot = _loaded_per_step(["export-dot", "e1.upds", "--set", "C1"])["export-dot"]
    assert "dot" in dot
    assert not dot & {"oracle", "grammar", "upperapprox"}


# The upstack syntax-tree nodes that a call compiles, summed over the
# modules it loads (`ast.walk` of each file, the package's __init__
# included), and a ceiling for each: the count when it was set, plus 3%.
# Compile time follows the size of the syntax tree, not the number of
# lines, and the CLI compiles the package from source on every call, so a
# ceiling that fails means that code moved onto a command's path.
_COMPILED_NODE_CEILINGS = {
    # kind: (argv, ceiling); the counts were 11719, 16154, 18855, 16279,
    # 14626, 10793 and 13639.
    "member": (["member", "e1.upds", "--init", "C1", "--config", "p2: a ^ bot"], 12070),
    "check-read-unsafe": (
        ["check-read", "relocate.upds", "--init", "Boot", "--symbol", "secret"], 16638
    ),
    "check-read-safe": (
        ["check-read", "relocate.upds", "--init", "Boot", "--symbol", "ret"], 19420
    ),
    "check-overflow": (
        ["check-overflow", "e1.upds", "-m", "1", "--lower", "x (y x)* bot"], 16767
    ),
    "post-over": (["post-over", "e2.upds", "--init", "C2", "--config", "p: a ^ c b"], 15064),
    "export-dot-set": (["export-dot", "e1.upds", "--set", "C1"], 11116),
    "pre-under": (
        ["pre-under", "e2.upds", "--target", "C2", "-k", "2", "--config", "p: b ^ c c"], 14048
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
