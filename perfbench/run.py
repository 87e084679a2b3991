"""Benchmark of the shrira CLI, end to end and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload ground_state --seed 1 --seconds 30 --trace 0

--trace 0 times the CLI as users run it: one fresh `python -m shrira.cli`
process per command, one at a time, so each timing includes interpreter start
and import.  The workload's commands run in order, over and over, until
--seconds is used up; wall_s sums each command's median time.

--trace 1 reports the per-layer metrics instead: one CLI round (per-command
times, kernel row order, the off-node kernel probe), fresh `import shrira`
processes, then traced in-process passes over the same inputs, alternating
spans on and off (see tracing.py).

Set-up generates the seeded inputs in a fresh process (inputs.py) three times;
setup_s is the median, and the three input sets must be byte-identical.  Every
command's output is checked (checks.py).  The last line of standard output is
the JSON result; the line before it is the run's provenance.  A full record
(per-command samples, counts, recorded outputs, problems) is written to
.perfbench/results/, and the trace run's spans next to it.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
EXACT_COUNTS = ("iterations.", "steps.", "points.", "spectrum_bytes.")
THREAD_ENV = ("SHRIRA_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
CLI_KINDS = ("solve", "verify", "sweep", "evolve", "kernel", "lizorkin")


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, no BENCHMARK.json, failed set-up)."""


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(root: Path) -> dict:
    """Environment of every child: this checkout's sources, at most nproc kernel workers.

    SHRIRA_THREADS keeps its default (one worker per CPU) unless the CPU count
    exceeds the CPUs this process may run on; it is never pinned to 1, so the
    CLI's process pool runs as users get it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("SHRIRA_THREADS", None)
    if (os.cpu_count() or 1) > _nproc():
        env["SHRIRA_THREADS"] = str(_nproc())
    return env


def _tree_sha256(src: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(src.rglob("*.py")):
        h.update(p.relative_to(src).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def provenance(root: Path, env: dict) -> dict:
    """Machine, versions and thread settings; git_sha is None outside a git work tree."""
    sha = None
    if (root / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": _nproc(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "platform": platform.platform(),
        "git_sha": sha,
        "src_sha256": _tree_sha256(root / "src"),
        "thread_env": {k: env.get(k) for k in THREAD_ENV},
        "kernel_workers": int(env["SHRIRA_THREADS"]) if "SHRIRA_THREADS" in env else os.cpu_count(),
    }


def run_child(argv: list, env: dict, log) -> tuple:
    """Run one child process; returns (wall s, cpu s, max RSS MiB, exit code).

    CPU time and max RSS come from wait4, so they include the child's own
    reaped children (the kernel command's worker processes).
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=log, stderr=log, stdin=subprocess.DEVNULL)
    _, status, ru = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, proc.returncode


def _same_tree(a: Path, b: Path) -> bool:
    fa = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    fb = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    return fa == fb and all((a / p).read_bytes() == (b / p).read_bytes() for p in fa)


def setup(workload: str, seed: int, work: Path, env: dict, log) -> tuple:
    """Generate the inputs SETUP_REPEATS times; returns (inputs dir, times, problems)."""
    times, problems, dirs = [], [], []
    for i in range(SETUP_REPEATS):
        out = work / f"setup{i}"
        wall, _, _, code = run_child(
            [sys.executable, str(HERE / "inputs.py"), "--workload", workload, "--seed", str(seed),
             "--out", str(out)], env, log)
        if code != 0:
            raise BenchError(f"input generation failed with exit code {code} (see {log.name})")
        times.append(wall)
        dirs.append(out)
    if not all(_same_tree(dirs[0], d) for d in dirs[1:]):
        problems.append("setup: the same seed gave different inputs")
    return dirs[0], times, problems


def run_command(cmd: wl.Command, env: dict, log) -> dict:
    shutil.rmtree(cmd.out, ignore_errors=True)
    cmd.out.mkdir(parents=True)
    wall, cpu, rss, code = run_child([sys.executable, "-m", "shrira.cli", *cmd.args], env, log)
    if code != 0:
        problems, info = [f"{cmd.name}: exit code {code}"], {}
    else:
        try:
            problems, info = cmd.check()
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            problems, info = [f"{cmd.name}: unreadable output ({exc!r})"], {}
    return {"name": cmd.name, "kind": cmd.kind, "wall_s": wall, "cpu_s": cpu, "rss_mb": rss,
            "code": code, "problems": problems, "info": info}


def count_mismatches(count_sets: list) -> list:
    """Exact counters that differ between runs of a command or between passes (never averaged)."""
    bad = []
    keys = sorted({k for c in count_sets for k in c if k.startswith(EXACT_COUNTS)})
    for k in keys:
        vals = [c[k] for c in count_sets if k in c]
        if len(set(vals)) > 1:
            bad.append(f"{k}: {vals}")
    return bad


def _tally(results: list) -> dict:
    problems = [p for r in results for p in r["problems"]]
    return {"attempted": len(results), "failed": sum(1 for r in results if r["problems"]), "problems": problems}


def measure_cli(commands: list, seconds: float, env: dict, log) -> dict:
    """Run the commands in order, cycling, until the next one would overrun `seconds`.

    Every command runs at least once.  wall_s is the workload's commands, each
    at its median over its runs.
    """
    samples = [[] for _ in commands]
    t0 = time.perf_counter()
    i = 0
    while i < len(commands) or time.perf_counter() - t0 + samples[i % len(commands)][-1]["wall_s"] <= seconds:
        samples[i % len(commands)].append(run_command(commands[i % len(commands)], env, log))
        i += 1
    results = [r for runs in samples for r in runs]
    return {
        "metrics": {"wall_s": sum(statistics.median(r["wall_s"] for r in runs) for runs in samples),
                    "peak_rss_mb": max(r["rss_mb"] for r in results)},
        "runs_per_command": [len(runs) for runs in samples],
        "results": results,
        "mismatches": count_mismatches([r["info"] for r in results]),
        **_tally(results),
    }


def import_times(env: dict, log) -> list:
    return [run_child([sys.executable, "-c", "import shrira"], env, log)[0] for _ in range(IMPORT_REPEATS)]


def measure_layers(workload: str, commands: list, inputs: Path, work: Path, seconds: float, env: dict,
                   log, spans_path: Path) -> dict:
    """One CLI round, import probes, then traced passes: a warm-up with spans off,
    then (on, off) pairs until `seconds` is used up (at least one pair)."""
    t0 = time.perf_counter()
    results = [run_command(c, env, log) for c in commands]
    probe = None
    if workload == "kernel":
        probe = run_command(wl.offnode_probe(inputs, work / "cli"), env, log)
    imports = import_times(env, log)

    sys.path.insert(0, env["PYTHONPATH"])
    import shrira
    import tracing

    if not Path(shrira.__file__).resolve().is_relative_to(Path(env["PYTHONPATH"]).resolve()):
        raise BenchError(f"imported shrira from {shrira.__file__}, not from this checkout")
    run_pass = tracing.PASSES[workload]
    passes = {True: [], False: []}
    pass_dir = work / "passes"
    pass_dir.mkdir(parents=True)

    def one(enabled: bool):
        tr = tracing.Tracer(enabled)
        p0 = time.perf_counter()
        res = run_pass(tr, inputs, pass_dir)
        passes[enabled].append((time.perf_counter() - p0, tr, res))

    one(False)  # warm-up: caches, FFT plans, first-touch memory
    warm = passes[False].pop()
    while True:
        q0 = time.perf_counter()
        one(True)
        one(False)
        if (time.perf_counter() - t0) + (time.perf_counter() - q0) > seconds:
            break

    for i, (_, tr, _) in enumerate(passes[True]):
        tr.write(spans_path, i)
    per_pass = [tracing.layer_metrics(tr, res) for _, tr, res in passes[True]]
    metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    on = statistics.median(t for t, _, _ in passes[True])
    off = statistics.median(t for t, _, _ in passes[False])
    cli_kinds = {k: [r["wall_s"] for r in results if r["kind"] == k] for k in CLI_KINDS}
    counts = {k: v for r in results for k, v in r["info"].items()}
    metrics.update({f"cli.{k}_s": statistics.median(v) if v else 0.0 for k, v in cli_kinds.items()})
    metrics["import.shrira_s"] = statistics.median(imports)
    metrics["kernels.rows_out_of_order"] = sum(v for k, v in counts.items() if k.startswith("rows_out_of_order."))
    metrics["kernels.offnode_rows_over_tol"] = probe["info"].get("rows_over_tol.offnode", 0) if probe else 0
    metrics["trace.overhead_pct"] = (on - off) / off * 100.0
    all_passes = [warm] + passes[True] + passes[False]
    mismatches = count_mismatches([counts] + [res.counts for _, _, res in all_passes])
    metrics["counts.mismatches"] = len(mismatches)
    tally = _tally(results)
    for _, _, res in all_passes:
        tally["attempted"] += res.attempted
        tally["failed"] += res.failed
        tally["problems"] += res.problems
    return {
        "metrics": metrics,
        "results": results + ([probe] if probe else []),
        "import_s": imports,
        "pass_s": {"on": [t for t, _, _ in passes[True]], "off": [t for t, _, _ in passes[False]]},
        "outputs": passes[True][0][2].outputs,
        "mismatches": mismatches,
        **tally,
    }


def _declared(root: Path) -> dict:
    try:
        bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchError(f"BENCHMARK.json: {exc}") from exc
    return {"0": bench["end_to_end"], "1": bench["per_layer"]}


def _emit(declared: list, values: dict) -> dict:
    """The declared metrics with their units; the measured and declared names must agree."""
    names = {m["name"] for m in declared}
    if names != set(values):
        raise BenchError(f"measured and declared metrics differ: {sorted(names ^ set(values))}")
    return {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in declared}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="shrira CLI benchmark")
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    args = ap.parse_args(argv)

    root = Path.cwd()
    try:
        if not (root / "src" / "shrira" / "cli.py").is_file():
            raise BenchError(f"no shrira source tree under {root / 'src'}; run from a checkout's root")
        declared = _declared(root)[args.trace]
        tag = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
        results_dir = root / ".perfbench" / "results"
        work = root / ".perfbench" / "work" / tag
        results_dir.mkdir(parents=True, exist_ok=True)
        work.mkdir(parents=True)
        env = child_env(root)
        prov = provenance(root, env)
        try:
            with open(results_dir / f"{tag}.log", "w", encoding="utf-8") as log:
                inputs, setup_times, setup_problems = setup(args.workload, args.seed, work, env, log)
                cmds = wl.commands(args.workload, inputs, work / "cli")
                if args.trace == "0":
                    run = measure_cli(cmds, args.seconds, env, log)
                    run["metrics"]["setup_s"] = statistics.median(setup_times)
                else:
                    run = measure_layers(args.workload, cmds, inputs, work, args.seconds, env, log,
                                         results_dir / f"{tag}.spans.jsonl")
            metrics = _emit(declared, run.pop("metrics"))
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    run["attempted"] += 1  # the set-up
    run["failed"] += bool(setup_problems)
    run["problems"] = setup_problems + run["problems"]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": int(args.trace),
              "provenance": prov, "setup_s": setup_times, "metrics": metrics, **run}
    (results_dir / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    for p in run["problems"] + [f"count did not repeat: {m}" for m in run["mismatches"]]:
        print(f"perfbench: {p}", file=sys.stderr)
    print(json.dumps({"provenance": prov}))
    print(json.dumps({"correct": run["failed"] == 0, "attempted": run["attempted"], "failed": run["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
