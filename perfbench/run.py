"""magiccount benchmark: seeded streams of CLI jobs, one at a time.

Usage (from the repository root):

    python3 perfbench/run.py --workload count --seed 1 --seconds 15 --trace 0

One closed-loop client runs one job at a time, and every job is a fresh
``python -m magiccount.cli ...`` process, as a user pays it: interpreter
start, import and cold caches on every command.  The job list is a deck
(``workloads.deck``), a pure function of (workload, seed), replayed
round after round until ``--seconds`` have passed; the last round is
always finished, so each run measures whole rounds of the same mix, and
at least enough rounds that ten jobs lie beyond the 90th percentile.

Every job's stdout is checked after the timed region, at tolerance zero,
against an independent answer (``answers.check``); a wrong exit status,
a timeout or a wrong answer is a failed job.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the jobs
through ``launch.py``, which wraps the library's layers from outside,
and prints the per-layer metrics instead; traced and untraced rounds
alternate, so the run also reports what tracing costs.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

JOB_TIMEOUT_S = 60.0
#: Set-up probes run before the first round ...
PROBES_AT_START = 3
#: ... and after the first job that ends this much stream time after the last probe.
PROBE_INTERVAL_S = 0.3
#: The tail percentile, the same on every workload and at every speed.
TAIL_PERCENTILE = 90
#: Jobs that must lie beyond the tail percentile; sets the minimum round count.
TAIL_BEYOND = 10


class BenchError(RuntimeError):
    """The benchmark cannot produce a valid result."""


# -- running one job -------------------------------------------------------------


@dataclass
class JobResult:
    argv: tuple[str, ...]
    spawned: float
    wall_s: float
    status: int | None  # exit status; None when killed on timeout
    maxrss_kb: int
    stdout: bytes
    stderr: bytes
    trace: dict | None = None
    failure: str | None = None


class Runner:
    """Starts jobs untraced (``python -m magiccount.cli``) or traced (``launch.py``).

    Jobs are started by a small helper process (``spawner.py``) so that
    each job's max RSS is its own; ``close`` stops the helper.
    """

    def __init__(self) -> None:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.helper = subprocess.Popen([sys.executable, "-S", str(HERE / "spawner.py")], env=env,
                                       stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.trace_dir = OUT / f"spans-{os.getpid()}"
        self.count = 0

    def run(self, argv: tuple[str, ...], traced: bool) -> JobResult:
        self.count += 1
        if traced:
            self.trace_dir.mkdir(parents=True, exist_ok=True)
            trace_file = self.trace_dir / f"job{self.count}.json"
            cmd = [sys.executable, str(HERE / "launch.py"), str(trace_file), *argv]
        else:
            cmd = [sys.executable, "-m", "magiccount.cli", *argv]
        self.helper.stdin.write(json.dumps({"cmd": cmd, "timeout": JOB_TIMEOUT_S}).encode() + b"\n")
        self.helper.stdin.flush()
        head = json.loads(self.helper.stdout.readline() or "null")
        if head is None:
            raise BenchError("the job spawner exited")
        out = self.helper.stdout.read(head["stdout"])
        err = self.helper.stdout.read(head["stderr"])
        result = JobResult(argv, head["spawned"], head["wall_s"], head["status"], head["maxrss_kb"], out, err)
        if traced:
            try:
                result.trace = json.loads(trace_file.read_text())
                trace_file.unlink()
            except (OSError, ValueError):
                result.trace = None
        return result

    def close(self) -> None:
        self.helper.stdin.close()
        self.helper.wait()
        self.helper.stdout.close()
        if self.trace_dir.is_dir():
            for leftover in self.trace_dir.iterdir():
                leftover.unlink()
            self.trace_dir.rmdir()


# -- checking ---------------------------------------------------------------------


def check_all(results: list[JobResult], expects: dict[tuple[str, ...], dict]) -> None:
    """Mark each result's ``failure``; each distinct output is checked once."""
    import answers

    verdicts: dict[tuple, str | None] = {}
    for r in results:
        if r.status is None:
            r.failure = f"timed out after {JOB_TIMEOUT_S:.0f} s"
            continue
        if r.status != 0:
            r.failure = f"exit status {r.status}: {r.stderr.decode(errors='replace').strip()[-200:]}"
            continue
        key = (r.argv, hashlib.sha256(r.stdout).digest())
        if key not in verdicts:
            try:
                text = r.stdout.decode()
            except UnicodeDecodeError:
                verdicts[key] = "stdout is not UTF-8"
            else:
                verdicts[key] = answers.check(r.argv, expects[r.argv], text)
        r.failure = verdicts[key]


# -- metrics ----------------------------------------------------------------------


def min_rounds(deck_size: int) -> int:
    """Rounds after which at least ``TAIL_BEYOND`` jobs lie beyond the tail percentile."""
    return -(-TAIL_BEYOND * 100 // (deck_size * (100 - TAIL_PERCENTILE)))


def tail(latencies_ms: list[float]) -> float:
    """Nearest-rank ``TAIL_PERCENTILE`` latency; an error with fewer than ``TAIL_BEYOND`` jobs beyond it."""
    n = len(latencies_ms)
    rank = -(-TAIL_PERCENTILE * n // 100)  # ceil(p/100 n), 1-based
    if n - rank < TAIL_BEYOND:
        raise BenchError(f"{n} jobs leave fewer than {TAIL_BEYOND} beyond p{TAIL_PERCENTILE}")
    return sorted(latencies_ms)[rank - 1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "platform": platform.platform()}


# -- the run ----------------------------------------------------------------------


def run_stream(runner: Runner, jobs: list, seconds: float, trace: bool) -> tuple[list, list[float], list]:
    """Replay the deck round after round until the rounds add up to ``seconds``.

    At least ``min_rounds`` rounds run, so the tail percentile always has
    ``TAIL_BEYOND`` jobs beyond it.  Returns the results of each round,
    the wall time of each round's jobs, and the set-up probes.  Probes run
    before the first round and then between jobs, one every
    ``PROBE_INTERVAL_S`` of stream time, so that their median spans the
    whole run; their time is not in the round walls.  With ``trace`` even
    rounds are traced and odd ones not, at least one of each, and the
    probes are traced.
    """
    from workloads import SETUP_PROBE

    if not jobs:
        raise BenchError("the workload has no jobs")
    runner.run(SETUP_PROBE, trace)  # fills the bytecode cache, untimed
    probes = [runner.run(SETUP_PROBE, trace) for _ in range(PROBES_AT_START)]
    rounds: list[list[JobResult]] = []
    walls: list[float] = []
    at_least = max(min_rounds(len(jobs)), 2 if trace else 1)
    elapsed = next_probe = 0.0
    hard_stop = time.perf_counter() + 3 * seconds + 60
    while len(rounds) < at_least or elapsed < seconds:
        traced = trace and len(rounds) % 2 == 0
        results = []
        wall = 0.0
        for job in jobs:
            if time.perf_counter() > hard_stop:
                raise BenchError(f"round {len(rounds)} overran {3 * seconds + 60:.0f} s")
            t0 = time.perf_counter()
            results.append(runner.run(job.argv, traced))
            wall += time.perf_counter() - t0
            if elapsed + wall >= next_probe:
                probes.append(runner.run(SETUP_PROBE, trace))
                next_probe = elapsed + wall + PROBE_INTERVAL_S
        walls.append(wall)
        elapsed += wall
        rounds.append(results)
    return rounds, walls, probes


def probe_ok(results: list[JobResult]) -> bool:
    """The no-work job prints h(0) = 1 for the loop-free one-vertex ring."""
    return all(r.status == 0 and r.stdout.split() == [b"s", b"count", b"0", b"1"] for r in results)


def end_to_end(probes: list[JobResult], results: list[JobResult], stream_wall: float) -> tuple[dict, list[str]]:
    latencies = [r.wall_s * 1000 for r in results]
    correct = sum(r.failure is None for r in results)
    tail_ms = tail(latencies)
    metrics = {
        "setup_s": metric(statistics.median(r.wall_s for r in probes), "s"),
        "jobs_per_s": metric(correct / stream_wall, "jobs/s"),
        "job_p50_ms": metric(statistics.median(latencies), "ms"),
        "job_tail_ms": metric(tail_ms, "ms"),
        "peak_rss_mb": metric(max(r.maxrss_kb for r in results + probes) / 1024, "MB"),
    }
    notes = [
        f"job_tail_ms is p{TAIL_PERCENTILE} over {len(results)} jobs; setup_s is the median of {len(probes)} probes",
        f"failed_ratio: {len(results) - correct}/{len(results)}",
    ]
    return metrics, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "magiccount" / "cli.py").is_file():
        print(f"error: no magiccount sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import magiccount
    import workloads

    if Path(magiccount.__file__).resolve().parent != (SRC / "magiccount").resolve():
        print(f"error: imported magiccount from {magiccount.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    jobs = workloads.deck(args.workload, args.seed)
    expects = {j.argv: j.expect for j in jobs}
    digest = workloads.deck_digest(jobs)
    OUT.mkdir(exist_ok=True)
    runner = Runner()
    try:
        rounds, walls, probes = run_stream(runner, jobs, args.seconds, trace=bool(args.trace))
    finally:
        runner.close()

    results = [r for rnd in rounds for r in rnd]
    if not results:
        raise BenchError("the workload ran zero jobs")
    check_all(results, expects)
    failures = [r for r in results if r.failure is not None]
    correct = not failures and probe_ok(probes)

    print(f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs per round, "
          f"{len(rounds)} rounds, deck digest {digest}")
    print("environment: " + json.dumps(environment()))
    for r in failures[:10]:
        print(f"FAILED {' '.join(r.argv)}: {r.failure}")
    if not probe_ok(probes):
        print("FAILED the set-up probe did not print h(0) = 1")

    if args.trace:
        import report

        traced = [r for i, rnd in enumerate(rounds) if i % 2 == 0 for r in rnd]
        untraced = [r for i, rnd in enumerate(rounds) if i % 2 == 1 for r in rnd]
        walls_traced = sum(w for i, w in enumerate(walls) if i % 2 == 0)
        walls_untraced = sum(w for i, w in enumerate(walls) if i % 2 == 1)
        metrics, notes = report.per_layer(probes, traced, len(traced) // len(jobs),
                                          len(traced) / walls_traced, len(untraced) / walls_untraced)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        report.write_spans(trace_path, args.workload, args.seed, digest, environment(), probes + traced)
        notes.append(f"spans written to {trace_path.relative_to(ROOT)}")
    else:
        metrics, notes = end_to_end(probes, results, sum(walls))
    for note in notes:
        print(note)
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(results), "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
