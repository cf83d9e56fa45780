"""upstack benchmark: end-to-end metrics per workload, per-layer metrics
in a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload membership --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Workloads (see workloads.py for why each was chosen): membership
(is_reachable), checkers (check_upper_read and check_stack_overflow; not
in BENCHMARK.json, see workloads.Checkers) and cli (`python -m upstack`
subprocesses). Inputs come from --seed. A run
answers the workload's query list in passes, closed-loop, one query at a
time; each pass runs in a fresh child process (set-up, a warm-up on other
inputs except for cli, then the timed pass). The number of passes depends
only on --seconds and the workload (passes_for), never on how fast the
program under test is.

--trace 0 prints the end-to-end metrics:
  setup_s          median over fresh processes of importing upstack,
                   parsing the models and compiling their sets
  wall_s           time to answer the query list once: the sum over the
                   queries of each query's median time over the passes
  latency_ms.p50   over the queries, each at its median time over the
  latency_ms.p90   passes (every list has at least 100 queries)
  decided_ratio    definite answers (true/false, Safe/Unsafe, DOT output)
                   over queries
  peak_rss_mb      high-water mark of a pass's process and its children,
                   median over the passes
Times are scaled to a reference host speed (see HostSpeed), which takes
out the shared host's swings between a fast and a slow mode; the times
as measured are printed too. A pass never sees another pass's state, so
nothing is cached across them. failed_ratio (errors and budget hits over
attempts) is printed too; it is not a JSON metric because it is
normally zero.

--trace 1 runs one fresh process with an untraced pass, a traced pass
and another untraced pass, and prints the per-layer metrics of the
traced pass (tracing.py): times are inclusive, in ms; the table also
gives self time. trace.overhead_ms is the traced pass minus the mean of
the untraced ones. The traced pass must give the same answers.

Every answer is checked against reference.py, an explicit-state stepper
that shares no code with upstack, and every pass must give the same
answers. A wrong answer ends the run with exit code 1. The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import reference
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 6  # timed set-ups before the passes, and as many after
RUN_TIMEOUT_S = 170
CLI_PROBES = 10
UNITS = {"setup_s": "s", "wall_s": "s", "latency_ms.p50": "ms", "latency_ms.p90": "ms",
         "decided_ratio": "ratio", "peak_rss_mb": "MB"}


def commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_child(args, timeout) -> dict:
    """Run a child role and return the JSON object it prints last. On a
    timeout the child's whole process group is killed and reaped."""
    argv = [sys.executable, str(HERE / "run.py"), *args]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as child:
        try:
            out, err = child.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            raise SystemExit(f"perfbench: {' '.join(args)} took longer than {timeout:.0f} s")
    if child.returncode != 0 or not out.strip():
        sys.stderr.write(err)
        raise SystemExit(f"perfbench: {' '.join(args)} exited {child.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def quantile(values, q: int) -> float:
    """The q-th decile (5 = median, 9 = p90)."""
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


# -- host speed -------------------------------------------------------------

# A shared host runs this benchmark's single thread in a fast or a slow
# mode: on the 2-vCPU host where the benchmark was defined, the probe
# below took about 0.5 ms or 0.8 to 1 ms, in spells of 0.3 to 3 s and
# sometimes for a whole run. So a probe runs before the first query and
# after each one, and every query's time is divided by the probe's time
# around it (see scaled) and multiplied by REFERENCE_PROBE_S, the
# probe's time in the fast mode of that host. Times are thus seconds at
# that host's fast speed. The probe is a fixed search of reference.py
# (upstack's kind of work: tuples, sets and a breadth-first queue, and
# nothing of upstack), so any change in the program shows in full.
REFERENCE_PROBE_S = 0.0005
SPEED_WINDOW = 5


class HostSpeed:
    """Callable: how many times faster than the reference host the host
    runs now, from the best of two runs of the fixed probe."""

    def __init__(self):
        rules = reference.parse_rules(workloads.fixture("e1.upds"))
        probe = ("p2", ("a",) * 4 + ("b",) * 3, ("bot",))
        self.args = (rules, workloads.C1.members(reference.size(probe)), probe)
        for _ in range(3):
            self()

    def __call__(self) -> float:
        # Without the collector, so that the size of upstack's heap does
        # not change the probe's time.
        collecting = gc.isenabled()
        gc.disable()
        try:
            best = float("inf")
            for _ in range(2):
                t0 = time.perf_counter()
                reference.reachable(*self.args)
                best = min(best, time.perf_counter() - t0)
        finally:
            if collecting:
                gc.enable()
        return REFERENCE_PROBE_S / best


def scaled(latencies, speeds):
    """Each measured time in seconds at the reference host's speed. The
    speed at a query is the median of the probes around it: the two
    that bracket it and SPEED_WINDOW more on each side, which passes over
    a single probe that a stray interrupt slowed."""
    return [seconds * statistics.median(speeds[max(0, i - SPEED_WINDOW):i + 2 + SPEED_WINDOW])
            for i, seconds in enumerate(latencies)]


# -- child roles ------------------------------------------------------------

def role_setup(workload, seed: int) -> dict:
    """One fresh-process set-up: import, parse, compile."""
    inputs = workload.inputs(seed)
    speed = HostSpeed()
    speeds = [speed() for _ in range(SPEED_WINDOW)]
    start = time.perf_counter()
    workload.setup(inputs)
    measured = time.perf_counter() - start
    speeds += [speed() for _ in range(SPEED_WINDOW)]
    return {"setup_s": measured * statistics.median(speeds), "measured_s": measured}


def timed_pass(workload, prepared, inputs, tracer=None, speed=None):
    """Answer every query once. With `speed`, the host's speed is read
    before the first query and after each one (speeds[i] and
    speeds[i + 1] bracket query i)."""
    answers, latencies, speeds = [], [], []
    clock = time.perf_counter
    if speed is not None:
        speeds.append(speed())
    start = clock()
    for index in range(len(inputs["queries"])):
        if tracer is not None:
            tracer.query = index
        t0 = clock()
        answers.append(workload.answer(prepared, index, inputs))
        latencies.append(clock() - t0)
        if speed is not None:
            speeds.append(speed())
    return answers, latencies, clock() - start, speeds


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def role_pass(workload, seed: int, trace: bool, check: bool) -> dict:
    """One timed pass (with trace: untraced, traced, untraced), then the
    reference check if asked."""
    inputs = workload.inputs(seed)
    prepared = workload.setup(inputs)
    speed = None if trace else HostSpeed()
    if workload.warm_up:
        warm = workload.inputs(seed, warm=True)
        timed_pass(workload, workload.setup(warm), warm, speed=speed)
    answers, latencies, wall, speeds = timed_pass(workload, prepared, inputs, speed=speed)
    out = {"backend": backend(), "answers": answers, "latencies": latencies, "speeds": speeds,
           "peak_rss_mb": peak_rss_mb(), "lines": [], "correct": True}
    try:
        if trace:
            traced_answers, layers, traced_wall = traced_pass(workload, inputs, out["lines"])
            again = timed_pass(workload, prepared, inputs)
            if traced_answers != answers or again[0] != answers:
                raise reference.WrongAnswer("the traced pass and the untraced ones disagree")
            untraced = (wall + again[2]) / 2
            layers["trace.overhead_ms"] = 1000 * (traced_wall - untraced)
            out["layers"] = layers
            out["lines"].append(f"tracing overhead: {traced_wall - untraced:.3f} s (traced pass "
                                f"{traced_wall:.3f} s, untraced passes {untraced:.3f} s on average)")
        if check:
            out["lines"].append("check: " + workload.check(inputs, answers))
    except reference.WrongAnswer as wrong:
        out["lines"].append(f"WRONG ANSWER: {wrong}")
        out["correct"] = False
    return out


def backend() -> str:
    try:
        from upstack._kernel import BACKEND
    except ImportError:
        return "none"
    return BACKEND


def traced_pass(workload, inputs, lines):
    """One traced pass: its answers, per-layer metrics and wall time."""
    if workload.name == "cli":
        answers, tracer, wall, layers = traced_cli_pass(workload, inputs)
    else:
        tracer = tracing.Tracer()
        tracer.install()
        tracer.query = "setup"
        prepared = workload.setup(inputs)
        answers, _, wall, _ = timed_pass(workload, prepared, inputs, tracer)
        tracer.uninstall()
        layers = {"cli.interpreter_ms": 0.0, "cli.import_ms": 0.0}
    layers.update(tracing.layer_metrics(tracer))
    lines.append("layers (traced pass):")
    lines.extend(tracing.layer_table(tracer, wall))
    write_spans(workload, tracer)
    return answers, layers, wall


def write_spans(workload, tracer) -> None:
    workloads.SCRATCH.mkdir(parents=True, exist_ok=True)
    path = workloads.SCRATCH / f"spans-{workload.name}.json"
    path.write_text(json.dumps(tracer.dump()))


def traced_cli_pass(workload, inputs):
    """Each CLI call runs under clihook.py, which records spans in the
    called process; bare interpreter start and the import are timed with
    separate processes."""
    _, env = workload.setup(inputs)
    hook = [sys.executable, str(HERE / "clihook.py")]
    dumps, answers = [], []
    start = time.perf_counter()
    for index in range(len(inputs["queries"])):
        spans_file = workloads.SCRATCH / f"cli-spans-{index}.json"
        answers.append(workload.answer((hook + [str(spans_file), str(index)], env), index, inputs))
        dumps.append(json.loads(spans_file.read_text()))
        spans_file.unlink()
    wall = time.perf_counter() - start

    def median_start_ms(code):
        times = []
        for _ in range(CLI_PROBES):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            times.append(time.perf_counter() - t0)
        return 1000 * statistics.median(times)

    bare = median_start_ms("pass")
    layers = {"cli.interpreter_ms": bare, "cli.import_ms": median_start_ms("import upstack") - bare}
    return answers, tracing.merge(dumps), wall, layers


# -- parent -----------------------------------------------------------------

def passes_for(workload, seconds: float) -> int:
    """How many passes fit in --seconds at the speed of the commit that
    defined the benchmark: a constant for the workload, so that a slower
    or faster program is measured with as many passes."""
    return max(1, int(seconds // workload.pass_seconds))


def run_workload(workload, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + RUN_TIMEOUT_S
    common = ["--workload", workload.name, "--seed", str(seed)]

    def child(*args):
        return run_child([*args, *common], max(1.0, deadline - time.monotonic()))

    def setup_probe():
        return child("--role", "setup")

    setup_probe()  # writes the bytecode caches; not timed
    # Probes before and after the passes, so that one slow spell of a
    # shared machine does not set the median.
    setups = [setup_probe() for _ in range(SETUP_PROBES)]
    passes = [child("--role", "pass", "--trace", str(trace), "--check", str(int(i == 0)))
              for i in range(1 if trace else passes_for(workload, seconds))]
    setups += [setup_probe() for _ in range(SETUP_PROBES)]

    first = passes[0]
    lines = list(first["lines"])
    correct = first["correct"]
    if any(p["answers"] != first["answers"] for p in passes[1:]):
        lines.append("WRONG ANSWER: the passes gave different answers")
        correct = False
    count = len(first["answers"])

    def per_query(samples):
        """Each query's median over the passes."""
        return [statistics.median(column) for column in zip(*samples)]

    measured = per_query([p["latencies"] for p in passes])
    # The traced run reports layers, not these.
    times = measured if trace else per_query([scaled(p["latencies"], p["speeds"]) for p in passes])
    kinds = Counter(answer[0] for answer in first["answers"])
    return {
        "backend": first["backend"],
        "lines": lines,
        "correct": correct,
        "passes": len(passes),
        "queries": count,
        "attempted": count * len(passes),
        "failed": kinds["failed"] * len(passes),
        "mix": dict(kinds),
        "layers": first.get("layers"),
        "setup_s": statistics.median(probe["setup_s"] for probe in setups),
        "wall_s": sum(times),
        "latency_ms.p50": 1000 * quantile(times, 5),
        "latency_ms.p90": 1000 * quantile(times, 9),
        "measured": (statistics.median(probe["measured_s"] for probe in setups), sum(measured),
                     1000 * quantile(measured, 5), 1000 * quantile(measured, 9)),
        "decided_ratio": sum(kinds[k] for k in workloads.DEFINITE) / count,
        "failed_ratio": kinds["failed"] / count,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def unit_of(key: str) -> str:
    if key.endswith("_ms"):
        return "ms"
    if key.endswith("_per_s"):
        return "1/s"
    if key.endswith("_ratio") or key.endswith("_shrink"):
        return "ratio"
    return "count"


def report(name: str, result: dict, trace: int) -> dict:
    for line in result["lines"]:
        print(f"[{name}] {line}")
    n = result["queries"]
    print(f"[{name}] backend {result['backend']}; answer mix {result['mix']}; "
          f"{result['passes']} pass(es) of {n} queries")
    if trace:
        metrics = {key: {"value": value, "unit": unit_of(key)}
                   for key, value in result["layers"].items()}
    else:
        metrics = {key: {"value": result[key], "unit": unit} for key, unit in UNITS.items()}
    for key, metric in metrics.items():
        samples = f" (n={n})" if key.startswith("latency") else ""
        print(f"[{name}] {key} = {metric['value']:.6g} {metric['unit']}{samples}")
    print(f"[{name}] failed_ratio = {result['failed_ratio']:.6g} ratio (n={n})")
    if not trace:
        print(f"[{name}] as measured, before scaling to the reference host's speed: setup_s "
              "{:.4g} s, wall_s {:.4g} s, latency_ms.p50 {:.4g} ms, latency_ms.p90 {:.4g} ms"
              .format(*result["measured"]))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "pass"), help=argparse.SUPPRESS)
    parser.add_argument("--check", type=int, choices=(0, 1), default=1, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "upstack" / "__init__.py").is_file():
        print(f"perfbench: no upstack sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.role is None and hasattr(os, "sched_setaffinity"):
        # One CPU for the whole run, children and CLI calls included: the
        # speed probes then read the CPU that the work they scale runs
        # on. On a 2-vCPU host this cut the spread of cli times between
        # passes by a third.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.role == "setup":
        print(json.dumps(role_setup(workloads.WORKLOADS[args.workload], args.seed)))
        return 0
    if args.role == "pass":
        workload = workloads.WORKLOADS[args.workload]
        print(json.dumps(role_pass(workload, args.seed, bool(args.trace), bool(args.check))))
        return 0

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    print(f"commit {commit()}; python {platform.python_version()}; nproc {os.cpu_count()}; "
          f"seed {args.seed}; seconds {args.seconds:g}; trace {args.trace}")
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        result = run_workload(workloads.WORKLOADS[name], args.seed, args.seconds, args.trace)
        shown = report(name, result, args.trace)
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + key: value for key, value in shown.items()})
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
