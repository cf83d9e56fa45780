"""The three workloads: seeded inputs, set-up, one query, and the check
of every answer against the independent reference.

Each workload is a class with:
- inputs(seed, warm): the generated model texts and the query list; made
  without importing upstack;
- setup(inputs): import upstack, parse the models and compile their sets
  (this is what setup_s times);
- answer(prepared, index, inputs): one query through the public API or
  the CLI;
- check(inputs, answers): raise reference.WrongAnswer on a wrong answer;
- pass_seconds: how long one pass child typically took when the
  benchmark was defined, which sets how many passes fit in a run
  (run.passes_for).

Why these workloads:
- membership: nearly all time goes to grammar construction and the
  derivation search. Reachable probes can stop early, unreachable ones
  exhaust the search, the wide start set inflates the single-origin
  funnel, and random probes add variety.
- checkers: phase-bounded pre* dominates and automaton compaction is
  heavy. The verdict mix exercises pre* plus replay (Unsafe) and the
  over-approximation (Safe, Unknown).
- cli: users pay interpreter start-up and the package import on every
  call; the only workload where a fixed cost per call shows.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import reference as ref
from reference import Lang, WrongAnswer, ZoneSet

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = SRC / "upstack" / "fixtures"
SCRATCH = ROOT / ".bench_build" / "perfbench"


def fixture(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


# The fixtures' sets, transcribed for the reference.
C1 = ZoneSet("p", Lang(), Lang(("x",), (("y", "x"),), ("bot",)))
C2 = ZoneSet("p", Lang((), (("a", "b"),), ()), Lang(("c",)))
BOOT = ZoneSet("boot", Lang(), Lang(("ret", "bot")))
WIDE = ZoneSet("p", Lang(), Lang((), (("x",), ("y",), ("a",), ("b",)), ("bot",)))

TOP_SENTINEL, FILLER = "@top", "@fill"
SAFE_SEARCH_CAP = 6  # total stack size of the bounded counterexample search
SAFE_SEARCH_LIMIT = 4000  # configurations per Safe verdict


def config_text(config) -> str:
    state, upper, lower = config
    return f"{state}: {' '.join((*upper, '^', *lower))}"


@dataclass
class System:
    states: list
    symbols: list
    rules: list
    start: ZoneSet

    def text(self) -> str:
        lines = ["states " + " ".join(self.states), "alphabet " + " ".join(self.symbols)]
        lines += [f"rule {f} {r} -> {' '.join((t, *w))}" for f, r, t, w in self.rules]
        lines.append(self.start.line("I"))
        return "\n".join(lines) + "\n"


def random_lang(rng: random.Random, symbols) -> Lang:
    loop = tuple(rng.choice(symbols) for _ in range(rng.randint(1, 2)))
    return Lang((rng.choice(symbols),), (loop,), (rng.choice(symbols),))


def random_system(rng: random.Random, max_states: int, max_symbols: int, max_rules: int) -> System:
    """States, symbols and rules each drawn up to the given maxima; rule
    arities weighted 1:2:2 for pop:switch:push. Start set I is q0 with an
    empty upper zone and lower words a (w)* d."""
    states = [f"q{i}" for i in range(rng.randint(1, max_states))]
    symbols = [f"g{i}" for i in range(rng.randint(1, max_symbols))]
    rules: list = []
    for _ in range(rng.randint(1, max_rules)):
        arity = rng.choice((0, 1, 1, 2, 2))
        rule = (
            rng.choice(states),
            rng.choice(symbols),
            rng.choice(states),
            tuple(rng.choice(symbols) for _ in range(arity)),
        )
        if rule not in rules:
            rules.append(rule)
    return System(states, symbols, rules, ZoneSet(states[0], Lang(), random_lang(rng, symbols)))


def random_probe(rng: random.Random, system: System, sizes):
    """A configuration of a total size drawn from `sizes`: half the time
    one met on a random run from the start set, otherwise uniformly
    random."""
    size = rng.choice(sizes)
    if rng.random() < 0.5:
        by_head = ref.index_rules(system.rules)
        starts = system.start.members(4)
        config = rng.choice(starts)
        met = []
        for _ in range(40):
            moves = list(ref.successors(by_head, config))
            if not moves:
                break
            config = rng.choice(moves)[1]
            if ref.size(config) == size:
                met.append(config)
        if met:
            return rng.choice(met)
    upper_len = rng.randint(0, size - 1)
    word = lambda n: tuple(rng.choice(system.symbols) for _ in range(n))
    return (rng.choice(system.states), word(upper_len), word(size - upper_len))


def explored(system: System, probe, limit: int) -> int:
    """How many configurations the reference search for the probe meets,
    counting at most `limit`."""
    cap = ref.size(probe)
    return sum(1 for _ in ref.explore(system.rules, system.start.members(cap), cap, limit))


def stream(seed: int, purpose: str) -> random.Random:
    return random.Random(f"{seed}:{purpose}")


DEFINITE = {"true", "false", "Safe", "Unsafe", "dot"}


class Membership:
    name = "membership"
    warm_up = True
    pass_seconds = 2.5  # a typical pass child on a 2-vCPU host, Python 3.11, pure kernel
    # p2: a^(n+1) b^n ^ bot and the unreachable x a^n b^n, and the wide
    # set. Larger n take over half a second each and would make the
    # passes too few for each query's best time to settle.
    family = range(4)
    wide = range(2)
    # Random probes on 4/4/14 systems (count, total sizes, explore cap): a
    # corpus drawn from a fixed seed and as many seeded ones (see
    # Checkers.corpus for why). The cost of a probe is heavy-tailed and
    # follows how many configurations the reference search meets: most
    # probes take about 3 ms at the reference speed, one meeting 500 to
    # 1000 configurations 15 to 60 ms. The few heaviest probes of a seed
    # set the run's p90, so size-6 and heavy probes are all in the
    # corpus, which every run measures alike, and a seeded probe whose
    # reference search meets more than 100 configurations is drawn again
    # (about one in nine is). Over ten seeds this cut the spread of p90
    # from 8% to 1% of its median.
    corpus_probes = (100, (5, 6), None)
    seeded_probes = (100, (5,), 100)

    def inputs(self, seed: int, warm: bool = False):
        e1 = fixture("e1.upds") + WIDE.line("Wide") + "\n"
        models = [e1]
        rules = [ref.parse_rules(e1)]
        queries = []  # (model index, set name, reference set, probe)
        for n in range(3) if warm else self.family:
            queries.append((0, "C1", C1, ("p2", ("a",) * (n + 1) + ("b",) * n, ("bot",))))
            queries.append((0, "C1", C1, ("p2", ("x",) + ("a",) * n + ("b",) * n, ("bot",))))
        for n in range(1) if warm else self.wide:
            queries.append((0, "Wide", WIDE, ("p2", ("a",) * (n + 1) + ("b",) * n, ("bot",))))
        if warm:
            groups = ((stream(seed, "warm-membership"), (5, (5,), None)),)
        else:
            groups = ((random.Random("membership-corpus"), self.corpus_probes),
                      (stream(seed, "membership"), self.seeded_probes))
        for rng, (count, sizes, cap) in groups:
            for _ in range(count):
                while True:
                    system = random_system(rng, 4, 4, 14)
                    probe = random_probe(rng, system, sizes)
                    if cap is None or explored(system, probe, cap + 1) <= cap:
                        break
                models.append(system.text())
                rules.append(tuple(system.rules))
                queries.append((len(models) - 1, "I", system.start, probe))
        return {"models": models, "rules": rules, "queries": queries}

    def setup(self, inputs):
        import upstack

        models = [upstack.parse_model(text) for text in inputs["models"]]
        sets = {}
        prepared = []
        for index, set_name, _, probe in inputs["queries"]:
            key = (index, set_name)
            if key not in sets:
                sets[key] = models[index].config_set(set_name)
            spec = models[index].spec
            prepared.append((spec, sets[key], upstack.parse_config_literal(spec, config_text(probe))))
        return upstack, prepared

    def answer(self, prepared, index, inputs):
        upstack, queries = prepared
        spec, start_set, probe = queries[index]
        try:
            return ("true",) if upstack.is_reachable(spec, start_set, probe) else ("false",)
        except upstack.UpstackError as err:
            return ("failed", type(err).__name__)

    def check(self, inputs, answers) -> str:
        checked = 0
        for (index, _, start, probe), answer in zip(inputs["queries"], answers):
            if answer[0] == "failed":
                continue
            expected = ref.reachable(inputs["rules"][index], start.members(ref.size(probe)), probe)
            if (answer[0] == "true") != expected:
                raise WrongAnswer(f"member {config_text(probe)}: got {answer[0]}, reference {expected}")
            checked += 1
        return f"{checked} membership answers match the reference search"


def check_verdict(rules, initial_contains, starts, forbidden, verdict, witness, trace, what):
    """Unsafe: the witness is initial and the replayed trace ends forbidden.
    Safe: a bounded search finds no forbidden configuration."""
    if verdict == "Unsafe":
        if not initial_contains(witness):
            raise WrongAnswer(f"{what}: witness {config_text(witness)} is not initial")
        final = ref.replay(rules, witness, trace)
        if not forbidden(final):
            raise WrongAnswer(f"{what}: trace ends in {config_text(final)}, not forbidden")
    elif verdict == "Safe":
        found = ref.counterexample(rules, starts, forbidden, SAFE_SEARCH_CAP, SAFE_SEARCH_LIMIT)
        if found is not None:
            raise WrongAnswer(f"{what}: Safe, but {config_text(found)} is reachable")


def overflow_initial(states, lower: Lang, m: int):
    upper = (TOP_SENTINEL,) + (FILLER,) * m
    contains = lambda c: c[0] in states and c[1] == upper and lower.matches(c[2])
    starts = [(q, upper, l) for q in states for l in lower.words(SAFE_SEARCH_CAP - len(upper))]
    return contains, starts


class Checkers:
    """Run by name or with --workload all, but not listed in BENCHMARK.json:
    its figures depend on the seed more than the benchmark's bounds allow
    for. With times scaled to the reference speed (run.HostSpeed) and
    only the seeded systems changing, ten seeds spread wall_s by 6%,
    latency_ms.p50 by 10% and p90 by 8% of their medians (IQR), more
    than a third of the 0.25 bound before any noise of the host. A few
    seeded systems carry much of a pass and decide where the median
    falls. The cli workload still runs both checkers and every layer
    under them on each check-read/check-overflow call.
    """

    name = "checkers"
    warm_up = True
    pass_seconds = 6.5
    k = 3
    m = 1
    # (max states, symbols, rules, systems). Random systems differ widely
    # in cost, so a corpus drawn from a fixed seed carries most of the
    # time and keeps runs on different seeds comparable; the seeded
    # systems make the inputs differ per seed.
    corpus = ((4, 4, 14, 32), (6, 6, 30, 2))
    seeded = ((4, 4, 14, 6),)

    def inputs(self, seed: int, warm: bool = False):
        if warm:
            groups = ((stream(seed, "warm-checkers"), ((4, 4, 14, 2),)),)
        else:
            groups = ((random.Random("checkers-corpus"), self.corpus),
                      (stream(seed, "checkers"), self.seeded))
        systems, queries = [], []
        for rng, sizes in groups:
            for s, a, r, count in sizes:
                for _ in range(count):
                    system = random_system(rng, s, a, r)
                    systems.append(system)
                    index = len(systems) - 1
                    symbols = rng.sample(system.symbols, min(2, len(system.symbols)))
                    queries += [(index, "read", symbol) for symbol in symbols]
                    queries.append((index, "overflow", random_lang(rng, system.symbols)))
        return {"models": [s.text() for s in systems], "systems": systems, "queries": queries}

    def setup(self, inputs):
        import upstack

        models = [upstack.parse_model(text) for text in inputs["models"]]
        return upstack, [(model, model.config_set("I")) for model in models]

    def answer(self, prepared, index, inputs):
        upstack, models = prepared
        system_index, kind, arg = inputs["queries"][index]
        model, initial = models[system_index]
        try:
            if kind == "read":
                verdict = upstack.check_upper_read(model, initial, arg, k=self.k)
            else:
                verdict = upstack.check_stack_overflow(model, self.m, arg.regex(), k=self.k)
        except upstack.UpstackError as err:
            return ("failed", type(err).__name__)
        witness = verdict.witness
        if witness is not None:
            witness = (witness.state, tuple(witness.upper), tuple(witness.lower))
        trace = None
        if verdict.trace is not None:
            trace = tuple((r.from_state, r.read_symbol, r.to_state, tuple(r.written)) for r in verdict.trace)
        return (verdict.outcome, witness, trace)

    def check(self, inputs, answers) -> str:
        counts = {"Unsafe": 0, "Safe": 0}
        for (index, kind, arg), answer in zip(inputs["queries"], answers):
            if answer[0] not in counts:
                continue
            system = inputs["systems"][index]
            if kind == "read":
                contains = system.start.contains
                starts = system.start.members(SAFE_SEARCH_CAP)
                forbidden = ref.upper_ends_with(arg)
                what = f"check-read {arg}"
            else:
                contains, starts = overflow_initial(system.states, arg, self.m)
                forbidden = ref.upper_lacks(TOP_SENTINEL)
                what = f"check-overflow {arg.regex()}"
            check_verdict(system.rules, contains, starts, forbidden, *answer, what)
            counts[answer[0]] += 1
        return (f"{counts['Unsafe']} Unsafe traces replayed, {counts['Safe']} Safe verdicts "
                f"searched for counterexamples (size <= {SAFE_SEARCH_CAP})")


E1 = "src/upstack/fixtures/e1.upds"
E2 = "src/upstack/fixtures/e2.upds"
RELOCATE = "src/upstack/fixtures/relocate.upds"
SETS = {(E1, "C1"): C1, (E2, "C2"): C2, (RELOCATE, "Boot"): BOOT}

# Commands from the README, with its printed output, and from the
# relocate fixture's comments.
README = (
    (("member", E1, "--init", "C1", "--config", "p2: a ^ bot"), (0, "true\n")),
    (("check-read", E1, "--init", "C1", "--symbol", "a"),
     (1, "verdict: Unsafe (k=3)\nwitness: p: ^ x bot\ntrace: p x -> p a; p a -> p\n")),
    (("check-overflow", E1, "-m", "1", "--lower", "x (y x)* bot"),
     (1, "verdict: Unsafe (k=3)\nwitness: p: @top @fill ^ x bot\n"
         "trace: p x -> p a; p a -> p a b; p a -> p a b\n")),
    (("pre-under", E2, "--target", "C2", "-k", "2", "--config", "p: b ^ c c"), (0, "true\n")),
    (("post-over", E2, "--init", "C2", "--config", "p: a ^ c b"), (0, "true\n")),
    (("post-over", E2, "--init", "C2", "--config", "p: a ^ b c"), (1, "false\n")),
)
FIXTURE_COMMANDS = (
    ("member", RELOCATE, "--init", "Boot", "--config", "pivot: secret ^ ret bot"),
    ("post-over", RELOCATE, "--init", "Boot", "--config", "pivot: canary ^ ret bot"),
    ("check-read", RELOCATE, "--init", "Boot", "--symbol", "secret"),
    ("check-read", RELOCATE, "--init", "Boot", "--symbol", "ret"),
    ("export-dot", E1, "--set", "C1"),
    ("export-dot", E1, "--set", "C1", "-o", "@out"),
    ("export-dot", E1, "--trace", "C1"),
    ("export-dot", E2, "--grammar", "C2"),
    # Unknown at k=3: the over-approximation is not tight enough.
    ("check-read", E2, "--init", "C2", "--symbol", "c"),
    ("check-read", RELOCATE, "--init", "Boot", "--symbol", "canary"),
    ("check-overflow", RELOCATE, "-m", "1", "--lower", "ret bot"),
)
DOT_HEADS = {"--set": "digraph configuration_set {", "--trace": "digraph automaton {",
             "--grammar": "digraph grammar {"}


def family_probe(n: int, reachable: bool) -> str:
    upper = ["a"] * (n + 1) + ["b"] * n if reachable else ["x"] + ["a"] * n + ["b"] * n
    return f"p2: {' '.join(upper)} ^ bot"


def variant_commands():
    """Variants of the fixture commands. Those answering Unknown are in
    FIXTURE_COMMANDS."""
    pool = []
    for n in range(3):
        for reachable in (True, False):
            pool.append(("member", E1, "--init", "C1", "--config", family_probe(n, reachable)))
            pool.append(("post-over", E1, "--init", "C1", "--config", family_probe(n, reachable)))
    pool += [("check-read", E1, "--init", "C1", "--symbol", s) for s in ("a", "b", "x", "y", "bot")]
    pool += [("check-read", E2, "--init", "C2", "--symbol", s) for s in ("a", "b")]
    pool += [("check-read", RELOCATE, "--init", "Boot", "--symbol", "bot")]
    pool += [("check-overflow", E1, "-m", str(m), "--lower", lower)
             for m in (0, 1, 2) for lower in ("x (y x)* bot", "x bot", "y x bot")]
    pool += [("check-overflow", E2, "-m", str(m), "--lower", "c") for m in (0, 1, 2)]
    pool += [("check-overflow", RELOCATE, "-m", "0", "--lower", "ret bot")]
    return pool


class Cli:
    name = "cli"
    warm_up = False  # users pay the cold start on every call
    pass_seconds = 18.0
    # Each variant runs this many times, which makes 116 calls: enough
    # for a p90. The seed sets the order of the calls. It does not pick
    # them: calls differ in cost by up to 2.5x, and a seeded pick changed
    # the p90 by more than the host's noise does.
    variant_repeats = 3

    def inputs(self, seed: int, warm: bool = False):
        commands = [argv for argv, _ in README] + list(FIXTURE_COMMANDS)
        commands += variant_commands() * self.variant_repeats
        stream(seed, "cli").shuffle(commands)
        return {"queries": commands}

    def setup(self, inputs):
        import upstack

        for path in (E1, E2, RELOCATE):
            model = upstack.parse_model((ROOT / path).read_text(encoding="utf-8"))
            for name in model.set_names():
                model.config_set(name)
        SCRATCH.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        return [sys.executable, "-m", "upstack"], env

    def answer(self, prepared, index, inputs):
        program, env = prepared
        argv = list(inputs["queries"][index])
        out_file = SCRATCH / "cli-out.dot"
        if "@out" in argv:
            argv[argv.index("@out")] = str(out_file)
            out_file.unlink(missing_ok=True)
        done = subprocess.run(program + argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120)
        written = out_file.read_text(encoding="utf-8") if "-o" in argv else None
        return classify(argv, done.returncode, done.stdout, written)

    def check(self, inputs, answers) -> str:
        goldens = dict(README)
        checked = 0
        dot_by_source = {}
        for argv, answer in zip(inputs["queries"], answers):
            kind, code, stdout, written = answer
            what = " ".join(argv)
            if argv in goldens:
                if (code, stdout) != goldens[argv]:
                    raise WrongAnswer(f"upstack {what}: got {(code, stdout)!r}, README says {goldens[argv]!r}")
            elif kind == "failed":
                continue
            elif kind == "dot":
                text = written if written is not None else stdout
                if not text.startswith(DOT_HEADS[argv[2]]) or not text.endswith("}\n"):
                    raise WrongAnswer(f"upstack {what}: not a {DOT_HEADS[argv[2]]} graph")
                if dot_by_source.setdefault(argv[1:4], text) != text:
                    raise WrongAnswer(f"upstack {what}: -o output differs from stdout")
            else:
                check_cli_answer(argv, kind, code, stdout, what)
            checked += 1
        return f"{checked} CLI calls match the README goldens or the reference"


def classify(argv, code, stdout, written):
    """(kind, exit code, stdout, written file). Exit 3 is a failed call."""
    if code == 3:
        return ("failed", code, stdout, written)
    if argv[0] == "export-dot":
        return ("dot", code, stdout, written)
    if argv[0] in ("check-read", "check-overflow"):
        head = stdout.split("\n", 1)[0].split()
        return (head[1] if len(head) > 1 else "?", code, stdout, written)
    return (stdout.strip(), code, stdout, written)


def check_cli_answer(argv, kind, code, stdout, what):
    model_path = argv[1]
    rules = ref.parse_rules((ROOT / model_path).read_text(encoding="utf-8"))
    expected_code = {"true": 0, "false": 1, "Safe": 0, "Unsafe": 1, "Unknown": 2}.get(kind)
    if expected_code is None or code != expected_code:
        raise WrongAnswer(f"upstack {what}: exit {code} with output {stdout!r}")
    if argv[0] in ("member", "post-over"):
        zone = SETS[(model_path, argv[3])]
        probe = ref.parse_config(argv[5])
        truth = ref.reachable(rules, zone.members(ref.size(probe)), probe)
        # member is exact; post-over may only err towards true.
        if (kind == "true") != truth and (argv[0] == "member" or truth):
            raise WrongAnswer(f"upstack {what}: printed {kind}, reference {truth}")
        return
    fields = dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line)
    witness = ref.parse_config(fields["witness"]) if "witness" in fields else None
    trace = ref.parse_trace(fields["trace"]) if "trace" in fields else None
    if argv[0] == "check-read":
        zone = SETS[(model_path, argv[3])]
        contains, starts = zone.contains, zone.members(SAFE_SEARCH_CAP)
        forbidden = ref.upper_ends_with(argv[5])
    else:
        states = {r[0] for r in rules} | {r[2] for r in rules}
        contains, starts = overflow_initial(states, cli_lower(argv[5]), int(argv[3]))
        forbidden = ref.upper_lacks(TOP_SENTINEL)
    check_verdict(rules, contains, starts, forbidden, kind, witness, trace, f"upstack {what}")


def cli_lower(text: str) -> Lang:
    """The --lower expressions the cli workload uses, as reference languages."""
    return {
        "x (y x)* bot": C1.lower,
        "x bot": Lang(("x", "bot")),
        "y x bot": Lang(("y", "x", "bot")),
        "c": Lang(("c",)),
        "ret bot": BOOT.lower,
    }[text]


WORKLOADS = {w.name: w for w in (Membership(), Checkers(), Cli())}
