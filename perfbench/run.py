"""torustrace benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load model: a closed loop with one client.  This process starts one command
at a time and waits for it to exit before starting the next, so at most one
torustrace process runs (plus OpenBLAS's own threads).

--trace 0 measures the end-to-end metrics with tracing off:
  setup_s      median time of a fresh process that only imports torustrace.cli
  session_s    time of one pass, each command a fresh
               `python -m torustrace.cli ...` process: the sum over the
               commands of each one's median process time
  cmd_p50_s    median over the commands of their median process time
  cmd_tail_s   per-command process time at a fixed percentile that leaves
               at least ten samples beyond it (percentile and sample count are
               recorded)
  compute_s    the same pass in one process through torustrace.cli.main(argv),
               after start-up and import: the sum of per-command medians
  peak_rss_mb  largest ru_maxrss of any command process (os.wait4)
--trace 1 runs traced in-process passes instead and reports the per-layer
metrics (tracer.py), plus the tracing overhead against an untraced pass.

Every time above is in reference seconds: the host's speed drifts by tens of
percent, so each timed process or in-process command runs between two runs of
a fixed reference task (reference.py) and its wall time is scaled by
REF_*_S over the mean of the two.  The raw wall times are in the run record.

Rounds repeat until --seconds have elapsed (at least MIN_ROUNDS).  Every
command's output is checked against numpy oracles (checks.py) and across
repeats for byte identity; a failed check or a wrong exit code counts in
"failed".  Inputs are generated from --seed before any timing.  The last
stdout line is the result object; the line before it is the run record.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import numpy as np

import workloads

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
REFERENCE = ROOT / "perfbench" / "reference.py"
# Round figures of the reference task's times, as a process and called
# in-process, on the 2-core Intel Xeon VM of the first baseline.  They fix the
# unit of every reported time; changing them changes every metric.
REF_PROCESS_S = 0.25
REF_INPROCESS_S = 0.05
MIN_ROUNDS = 3
SETUP_PER_ROUND = 2
TAIL_BEYOND = 10
COMMAND_TIMEOUT_S = 60.0


class BenchmarkError(Exception):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # Bytecode for every module goes to one cache inside the build directory,
    # filled by the first import, so start-up cost does not depend on whether
    # the caller's environment allows or already holds compiled files.
    env["PYTHONPYCACHEPREFIX"] = str(BUILD / "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("SOURCE_DATE_EPOCH", None)  # reports must carry a null timestamp to compare bytes
    return env


def run_process(argv: list[str], cwd: Path, env: dict, stem: str) -> tuple[float, float, int, str, str]:
    """Run one process to completion: (wall s, peak RSS MB, exit code, stdout, stderr)."""
    out_path, err_path = cwd / f"{stem}.out", cwd / f"{stem}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: stop the child and reap it before leaving
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            watchdog.cancel()
        wall = perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return (wall, usage.ru_maxrss / 1024.0, code,
            out_path.read_text(encoding="utf-8", errors="replace"),
            err_path.read_text(encoding="utf-8", errors="replace"))


class Paced:
    """Runs processes one at a time with the reference task before and after each.

    ``run`` returns the process's wall time in reference seconds, the wall time
    times REF_PROCESS_S over the mean of its two flanking reference times, so a
    phase in which the host is slow scales both and cancels.  Each reference
    run is shared by the process before it and the one after it.
    """

    def __init__(self, work: Path, env: dict):
        self.work, self.env = work, env
        self.refs: list[float] = []
        self.before = self._reference()

    def _reference(self) -> float:
        wall, _, code, _, err = run_process([sys.executable, str(REFERENCE)], self.work, self.env, "reference")
        if code != 0:
            raise BenchmarkError(f"reference task failed with exit code {code}: {err.strip()[-500:]}")
        self.refs.append(wall)
        return wall

    def run(self, argv: list[str], stem: str) -> tuple[float, float, float, int, str, str]:
        """(reference s, wall s, peak RSS MB, exit code, stdout, stderr)"""
        wall, rss, code, out, err = run_process(argv, self.work, self.env, stem)
        after = self._reference()
        scaled = wall * REF_PROCESS_S / ((self.before + after) / 2)
        self.before = after
        return scaled, wall, rss, code, out, err


def scale_in_process(times: list[float], refs: list[float]) -> list[float]:
    """In-process command times in reference seconds; refs[i] and refs[i + 1] flank times[i]."""
    return [t * REF_INPROCESS_S / ((a + b) / 2) for t, a, b in zip(times, refs, refs[1:])]


class Outcomes:
    """Checks every command execution and remembers the first stdout of each command."""

    def __init__(self, commands: list[workloads.Command], work: Path):
        self.commands = commands
        self.work = work
        self.reference: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, index: int, code: int, stdout: str, stderr: str, where: str) -> None:
        cmd = self.commands[index]
        self.attempted += 1
        if code != 0:
            problems = [f"exit code {code}: {stderr.strip()[-300:]}"]
        else:
            problems = cmd.check(stdout, self.work)
            ref = self.reference.setdefault(cmd.name, stdout)
            if stdout != ref:
                problems.append("stdout differs from the first run of the same command")
        if problems:
            self.failures.append(f"{cmd.name} ({where}): {'; '.join(problems)}")


def subprocess_pass(commands, paced: Paced, outcomes) -> tuple[list[float], list[float], list[float]]:
    """One pass, each command a fresh CLI process; checks run after the pass is timed.

    Returns the commands' times in reference seconds, their wall times and peak RSS.
    """
    results = [paced.run([sys.executable, "-m", "torustrace.cli", *cmd.argv], f"cmd{i}")
               for i, cmd in enumerate(commands)]
    for i, (_, _, _, code, out, err) in enumerate(results):
        outcomes.record(i, code, out, err, "process")
    return [r[0] for r in results], [r[1] for r in results], [r[2] for r in results]


def worker_pass(commands, paced: Paced, outcomes, trace: bool, spans: Path | None = None) -> dict:
    """One in-process pass in a fresh worker process (worker.py)."""
    work = paced.work
    plan, result = work / "plan.json", work / "result.json"
    plan.write_text(json.dumps({"commands": [list(c.argv) for c in commands], "trace": trace,
                                "spans": str(spans) if spans else None}), encoding="utf-8")
    result.unlink(missing_ok=True)
    *_, code, _, err = paced.run([sys.executable, str(ROOT / "perfbench" / "worker.py"), str(plan), str(result)],
                                 "worker")
    if code != 0 or not result.exists():
        raise BenchmarkError(f"worker failed with exit code {code}: {err.strip()[-500:]}")
    doc = json.loads(result.read_text(encoding="utf-8"))
    where = "traced" if trace else "in-process"
    for i in range(len(commands)):
        outcomes.record(i, doc["codes"][i], doc["stdout"][i], doc["stderr"][i], where)
    return doc


def tail_percentile(n_commands: int) -> float:
    """Highest percentile leaving TAIL_BEYOND samples beyond it at the minimum sample count.

    Fixed per workload, so runs with different numbers of passes report the
    same percentile; with more samples, more than TAIL_BEYOND lie beyond it.
    """
    n = n_commands * MIN_ROUNDS
    if n <= TAIL_BEYOND:
        raise BenchmarkError(f"{n} command samples cannot leave {TAIL_BEYOND} beyond a percentile")
    return (n - 1 - TAIL_BEYOND) / (n - 1)


def quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def time_import(paced: Paced) -> float:
    scaled, _, _, code, _, err = paced.run([sys.executable, "-c", "import torustrace.cli"], "setup")
    if code != 0:
        raise BenchmarkError(f"import torustrace.cli failed: {err.strip()[-500:]}")
    return scaled


def warm_up(work: Path, env: dict) -> None:
    """Fill the bytecode cache (numpy's modules included) before anything is timed."""
    _, _, code, _, err = run_process([sys.executable, "-c", "import torustrace.cli"], work, env, "warmup")
    if code != 0:
        raise BenchmarkError(f"import torustrace.cli failed: {err.strip()[-500:]}")


def end_to_end(commands, work, env, outcomes, seconds: int) -> tuple[dict, dict]:
    """Rounds of: SETUP_PER_ROUND fresh imports, one pass of CLI processes, one in-process pass.

    Each command's time is the median over the run's rounds of its time in
    reference seconds; a pass time is the sum of those medians.
    """
    warm_up(work, env)
    paced = Paced(work, env)
    setup, rss, process, raw, inproc, inproc_raw, inproc_refs = [], [], [], [], [], [], []
    deadline = perf_counter() + seconds
    while len(process) < MIN_ROUNDS or perf_counter() < deadline:
        setup += [time_import(paced) for _ in range(SETUP_PER_ROUND)]
        times, walls, peaks = subprocess_pass(commands, paced, outcomes)
        process.append(times)
        raw.append(walls)
        rss += peaks
        doc = worker_pass(commands, paced, outcomes, trace=False)
        inproc.append(scale_in_process(doc["times"], doc["refs"]))
        inproc_raw.append(doc["times"])
        inproc_refs += doc["refs"]
    per_command = [statistics.median(col) for col in zip(*process)]
    samples = [t for times in process for t in times]
    q = tail_percentile(len(commands))
    metrics = {
        "session_s": sum(per_command),
        "cmd_p50_s": statistics.median(per_command),
        "cmd_tail_s": quantile(samples, q),
        "compute_s": sum(statistics.median(col) for col in zip(*inproc)),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(rss),
    }
    detail = {
        "rounds": len(process),
        "reference_process_s": statistics.median(paced.refs),
        "reference_in_process_s": statistics.median(inproc_refs),
        "raw_session_s": sum(statistics.median(col) for col in zip(*raw)),
        "raw_compute_s": sum(statistics.median(col) for col in zip(*inproc_raw)),
        "pass_wall_s": [sum(walls) for walls in raw],
        "in_process_pass_s": [sum(times) for times in inproc_raw],
        "setup_s": setup,
        "command_median_s": {c.name: round(t, 4) for c, t in zip(commands, per_command)},
        "cmd_samples": len(samples),
        "cmd_tail_percentile": round(100 * q, 2),
        "cmd_samples_beyond_tail": sum(1 for t in samples if t > metrics["cmd_tail_s"]),
    }
    return metrics, detail


def traced(commands, work, env, outcomes, seconds: int, spans: Path) -> tuple[dict, dict]:
    """Alternate untraced and traced in-process passes until ``seconds`` have elapsed.

    The overhead ratio compares the two in reference seconds, so a change in
    the host's speed between the passes does not read as tracing cost.
    """
    warm_up(work, env)
    paced = Paced(work, env)
    base, passes = [], []
    deadline = perf_counter() + seconds
    while not passes or perf_counter() < deadline:
        base.append(worker_pass(commands, paced, outcomes, trace=False))
        passes.append(worker_pass(commands, paced, outcomes, trace=True, spans=spans))
    metrics = {key: statistics.median(p["metrics"][key] for p in passes) for key in passes[0]["metrics"]}
    traced_s = statistics.median(p["pass_s"] for p in passes)
    ratio = (statistics.median(sum(scale_in_process(p["times"], p["refs"])) for p in passes)
             / statistics.median(sum(scale_in_process(b["times"], b["refs"])) for b in base))
    unattributed = statistics.median(p["unattributed_s"] for p in passes)
    metrics["trace.traced_pass_s"] = traced_s
    metrics["trace.overhead_ratio"] = ratio
    metrics["trace.unattributed_s"] = unattributed
    detail = {
        "passes": len(passes),
        "untraced_pass_s": [b["pass_s"] for b in base],
        "traced_pass_s": [p["pass_s"] for p in passes],
        # Module self times must account for the traced pass up to the tracing
        # overhead; 1% of the pass is the floor, since the overhead is a
        # ratio of two noisy pass times and can read below 1.
        "self_time_coverage_ok": abs(unattributed) <= max((ratio - 1) * traced_s, 0.01 * traced_s),
        "absent": passes[0]["absent"],
        "spans_file": str(spans.relative_to(ROOT)),
    }
    return metrics, detail


def machine_record(seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "git_commit": commit,
        "seed": seed,
    }


def load_definition() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "torustrace" / "cli.py").is_file():
        sys.stderr.write(f"error: no torustrace sources under {ROOT / 'src'}; run from a full checkout\n")
        return 2
    definition = load_definition()
    wanted = definition["per_layer" if args.trace else "end_to_end"]

    work = BUILD / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        commands, inputs = workloads.build(args.workload, args.seed, work)
        outcomes = Outcomes(commands, work)
        if args.trace:
            spans = BUILD / "spans" / f"{args.workload}-seed{args.seed}.json"
            spans.parent.mkdir(parents=True, exist_ok=True)
            metrics, detail = traced(commands, work, child_env(), outcomes, args.seconds, spans)
        else:
            metrics, detail = end_to_end(commands, work, child_env(), outcomes, args.seconds)
    except BenchmarkError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        sys.stderr.write(f"error: metrics not measured: {missing}\n")
        return 1
    failed = len(outcomes.failures)
    record = {
        "workload": args.workload,
        "trace": bool(args.trace),
        "machine": machine_record(args.seed),
        "inputs": inputs,
        "commands": [c.name for c in commands],
        "error_rate": failed / outcomes.attempted,
        "failures": outcomes.failures[:20],
        "detail": detail,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": outcomes.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
