"""phenotrail batch benchmark.

Usage (from the root of a checkout):
    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Each workload's commands run as a user runs them, ``python -m
phenotrail.cli <cmd>`` with ``src`` on PYTHONPATH, in a closed loop: one
command at a time, each started when the previous one has exited.  Inputs
are generated from the seed (set-up, timed on its own and repeated
SETUP_REPEATS times); then whole passes over the workload's commands repeat
until the next one would end after ``--seconds``.  Every pass's outputs are
checked against the benchmark's own recomputation.

The last line of stdout is the result.  With ``--trace 0`` it holds the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` the per-layer
metrics, from passes in which each command runs under bench/tracer.py.
Work files go to ``.bench_work/<workload>/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import TARGETS  # noqa: E402
from workloads import TABLES, WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
IMPORT_PROBES = 5
TIME_LIMIT_S = 170.0
SPAWN = os.path.join(HERE, "spawn.py")
TRACER = os.path.join(HERE, "tracer.py")


class Runner:
    """Runs CLI commands as child processes and measures each one."""

    def __init__(self, root: str, work: str, deadline: float):
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.work = work
        self.deadline = deadline
        self.tracing = False
        self.history: list[dict] = []
        self.log_path = os.path.join(work, "commands.log")

    def spawn(self, argv: list[str]) -> dict:
        """Run one child through bench/spawn.py; wall and CPU time, peak RSS."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("benchmark time limit reached")
        result_path = os.path.join(self.work, "spawn.json")
        with open(self.log_path, "a", encoding="utf-8") as log:
            log.write(f"$ {' '.join(argv)}\n")
            log.flush()
            proc = subprocess.Popen(
                [sys.executable, SPAWN, result_path, *argv], env=self.env,
                stdout=log, stderr=log, stdin=subprocess.DEVNULL,
                start_new_session=True,
            )
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise TimeoutError(f"{argv} killed at the benchmark time limit") from None
        if proc.returncode:
            raise RuntimeError(f"could not start {argv[:3]}")
        with open(result_path, encoding="utf-8") as handle:
            result = json.load(handle)
        os.remove(result_path)
        return result

    def cli(self, label: str, args: list[str], setup: bool = False) -> dict:
        """Run one CLI command; under tracing the result carries its trace."""
        result = {"label": label}
        if self.tracing:
            trace_path = os.path.join(self.work, "last_trace.json")
            result.update(self.spawn([sys.executable, TRACER, trace_path, *args]))
            if os.path.exists(trace_path):
                with open(trace_path, encoding="utf-8") as handle:
                    result["trace"] = json.load(handle)
                os.remove(trace_path)
        else:
            result.update(self.spawn([sys.executable, "-m", "phenotrail.cli", *args]))
        if setup and result["code"]:
            raise RuntimeError(f"set-up command {args[0]} exited {result['code']}")
        self.history.append(result)
        return result


def run_pass(workload, runner: Runner, serial_only: bool = False) -> list[dict]:
    """One pass over the workload's commands, then its output checks."""
    shutil.rmtree(workload.out, ignore_errors=True)
    results = [
        runner.cli(label, args)
        for label, workers, args in workload.commands()
        if not (serial_only and workers > 1)
    ]
    labels = [r["label"] for r in results]
    try:
        errors = workload.check(labels)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        errors = {label: [f"output check failed: {exc!r}"] for label in labels}
    for r in results:
        r["errors"] = [f"exit code {r['code']}"] * bool(r["code"]) + errors.get(r["label"], [])
    return results


def measure(workload, runner: Runner, seconds: float, serial_only: bool = False):
    """Whole passes until the next one would end after ``seconds``."""
    passes, start = [], time.perf_counter()
    while True:
        passes.append(run_pass(workload, runner, serial_only))
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def digest(directory: str) -> str:
    sha = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(directory)):
        dirs.sort()
        for name in sorted(files):
            sha.update(name.encode())
            with open(os.path.join(base, name), "rb") as handle:
                sha.update(handle.read())
    return sha.hexdigest()


def wall(results: list[dict], labels=None) -> float:
    return sum(r["wall_s"] for r in results if labels is None or r["label"] in labels)


def end_to_end(workload, runner, seed, seconds):
    setup_times, digests = [], set()
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workload.inputs, ignore_errors=True)
        start = time.perf_counter()
        workload.setup(runner, seed)
        setup_times.append(time.perf_counter() - start)
        digests.add(digest(workload.inputs))
    passes = measure(workload, runner, seconds)
    walls = [wall(p) for p in passes]
    metrics = {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": max(r["rss_mb"] for p in passes for r in p),
        "setup_s": statistics.median(setup_times),
    }
    setup_errors = [] if len(digests) == 1 else ["set-up output differs between repeats"]
    info = {
        "passes": len(passes),
        "pass_wall_s": walls,
        "setup_s": setup_times,
        "command_wall_s": {
            r["label"]: statistics.median(x["wall_s"] for p in passes for x in p
                                          if x["label"] == r["label"])
            for r in passes[0]
        },
        "input": workload.properties(),
    }
    return metrics, passes, setup_errors, info


def _import_probe(runner: Runner) -> float:
    times = []
    for _ in range(IMPORT_PROBES):
        result = runner.spawn([sys.executable, "-c", "import phenotrail.cli"])
        if result["code"]:
            raise RuntimeError("import phenotrail.cli failed")
        times.append(result["wall_s"])
    return statistics.median(times)


def _layer_totals(traces: list[dict]) -> tuple[dict, dict]:
    """Function name -> [calls, self_s], and counters, summed over traces."""
    functions = {
        f"{mod}.{target.rsplit('.', 1)[-1]}": [0, 0.0]
        for mod, targets in TARGETS.items() for target in targets
    }
    counters: dict[str, int] = {}
    for trace in traces:
        for _parent, name, calls, _total, self_s in trace["edges"]:
            functions[name][0] += calls
            functions[name][1] += self_s
        for key, value in trace["counters"].items():
            counters[key] = counters.get(key, 0) + value
    return functions, counters


def per_layer(workload, runner, seed, seconds):
    shutil.rmtree(workload.inputs, ignore_errors=True)
    runner.tracing = True
    workload.setup(runner, seed)
    setup_traces = [r["trace"] for r in runner.history if "trace" in r]
    runner.tracing = False
    plain = run_pass(workload, runner)
    runner.tracing = True
    traced_passes = measure(workload, runner, seconds, serial_only=True)
    runner.tracing = False
    pass_traces = [[r["trace"] for r in p if "trace" in r] for p in traced_passes]

    totals = [_layer_totals(traces) for traces in pass_traces]
    functions, counters = totals[0]
    metrics: dict[str, float] = {}
    for name, (calls, _self) in functions.items():
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = statistics.median(t[0][name][1] for t in totals)
    metrics["synth.generate.self_s"] = _layer_totals(setup_traces)[0]["synth.generate"][1]
    for key in ("lexicon.mentions", "cohort.presence_entries"):
        metrics[key] = counters.get(key, 0)
    notes = counters.get("textproc.notes", 0)
    metrics["textproc.segments_per_note"] = (
        functions["textproc.segment_sentences"][0] / notes if notes else 0.0)
    classify_calls = functions["assertion.classify"][0]
    metrics["assertion.yes_ratio"] = (
        counters.get("assertion.yes", 0) / classify_calls if classify_calls else 0.0)

    by_label = {r["label"]: r for r in plain}
    for label in ("curate", "curate_parallel", "eval", "coexpr", *TABLES):
        metrics[f"proc.{label}.cpu_s"] = by_label[label]["cpu_s"] if label in by_label else 0.0
    curate = by_label.get("curate", {}).get("wall_s", 0.0)
    parallel = by_label.get("curate_parallel", {}).get("wall_s", 0.0)
    props = workload.properties()
    metrics.update({
        "cmd.curate_s": curate,
        "cmd.curate_parallel_s": parallel,
        "cmd.tables_s": wall(plain, TABLES),
        "cmd.notes_per_s": props["notes"] / curate if curate else 0.0,
        "cohort.pool_speedup": curate / parallel if parallel else 0.0,
        "cli.import_s": _import_probe(runner),
    })
    traced_labels = {r["label"] for r in traced_passes[0]}
    metrics["trace.overhead_s"] = (
        statistics.median(wall(p) for p in traced_passes) - wall(plain, traced_labels))
    metrics.update({f"input.{key}": value for key, value in props.items()})

    with open(os.path.join(runner.work, "trace.json"), "w", encoding="utf-8") as handle:
        json.dump({"setup": setup_traces, "passes": pass_traces}, handle)
    info = {"passes": len(traced_passes), "trace_file": os.path.join(runner.work, "trace.json")}
    return metrics, [plain, *traced_passes], [], info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, help="input seed (default: the workload's)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "phenotrail", "cli.py")):
        print("error: run from the root of a phenotrail checkout (src/phenotrail missing)",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    work = os.path.join(root, ".bench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    workload = WORKLOADS[args.workload](work)
    seed = workload.default_seed if args.seed is None else args.seed
    runner = Runner(root, work, time.monotonic() + TIME_LIMIT_S)
    collect = per_layer if args.trace else end_to_end
    try:
        metrics, passes, errors, info = collect(workload, runner, seed, args.seconds)
    except (RuntimeError, TimeoutError) as exc:
        print(f"error: {exc}; see {runner.log_path}", file=sys.stderr)
        return 1

    results = [r for p in passes for r in p]
    failed = sum(1 for r in results if r["errors"]) + len(errors)
    errors += [f"{r['label']}: {e}" for r in results for e in r["errors"]]
    for line in errors[:20]:
        print(f"check: {line}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": seed, **info}))
    print(json.dumps({
        "correct": not errors,
        "attempted": len(results) + (0 if args.trace else 1),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
