"""The benchmark's own tests.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import answers
import report
import run
import spawner
import tracing
import workloads
from magiccount import count_cycle, count_line

BENCH = Path(run.__file__).resolve().parent
REPO = BENCH.parent


# -- the generator --------------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_deck_is_a_pure_function_of_workload_and_seed(workload):
    first, again = workloads.deck(workload, 11), workloads.deck(workload, 11)
    assert [j.argv for j in first] == [j.argv for j in again]
    assert [j.expect for j in first] == [j.expect for j in again]
    assert workloads.deck_digest(first) == workloads.deck_digest(again)
    assert workloads.deck_digest(workloads.deck(workload, 12)) != workloads.deck_digest(first)


def test_deck_digest_does_not_depend_on_the_process():
    code = "import workloads; print(workloads.deck_digest(workloads.deck('count', 5)))"
    digests = {
        subprocess.run([sys.executable, "-c", code], cwd=BENCH, capture_output=True, text=True, check=True,
                       env=dict(os.environ, PYTHONHASHSEED=str(hash_seed))).stdout.strip()
        for hash_seed in (1, 2)
    }
    assert digests == {workloads.deck_digest(workloads.deck("count", 5))}


def test_deck_sizes_put_the_median_and_p90_inside_one_job():
    # odd multiples of five: see the comment above the deck builders
    for workload in workloads.WORKLOADS:
        size = len(workloads.deck(workload, 1))
        assert size % 10 == 5, (workload, size)


def test_benchmark_json_matches_the_workloads_and_metrics():
    doc = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [(w, workloads.WHY[w]) for w in workloads.WORKLOADS]
    assert {m["name"] for m in doc["end_to_end"]} == {"setup_s", "jobs_per_s", "job_p50_ms", "job_tail_ms",
                                                      "peak_rss_mb"}
    probe = _fake_traced_job()
    metrics, _ = report.per_layer([probe], [probe], 1, 1.0, 1.0)
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == {k: v["unit"] for k, v in metrics.items()}


# -- the independent routes -----------------------------------------------------------------


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_prefix_sum_step_is_the_comb_transfer_matrix(k):
    rng = random.Random(k)
    for s in range(7):
        vec = [rng.randint(-5, 9) for _ in range(s + 1)]
        matrix = answers.transfer_matrix(k, s)
        assert answers.apply_transfer(vec, k) == [sum(a * b for a, b in zip(row, vec)) for row in matrix]


def test_trace_route_agrees_with_the_library_dp():
    for loops in [(0,), (3,), (2, 0), (1, 0, 3), (2, 2, 2, 2), (0, 1, 2, 3, 0)]:
        for s in range(9):
            assert answers.cycle_trace(loops, s) == count_cycle(len(loops), loops, s)
    for m in range(4):
        assert answers.line_moments(m, 6, 5) == [count_line(n, m, 6) for n in range(6)]


def test_simplex_series_and_numerators_have_known_values():
    assert answers.simplex_series(1, 4) == [1, 1, 2, 2, 3]  # 1 / ((1-t)(1-t^2))
    assert answers.numerator("cycle", 5)[:5] == [1, 72, 878, 3304, 4995]


# -- the exact-answer gate ----------------------------------------------------------------


@pytest.fixture(scope="module")
def interactive_results():
    """Every job of one interactive deck, run once as a real CLI process."""
    jobs = workloads.deck("interactive", 3)
    runner = run.Runner()
    try:
        results = [runner.run(job.argv, traced=False) for job in jobs]
    finally:
        runner.close()
    return jobs, results


def _corrupt_digit(stdout: bytes, rng: random.Random) -> bytes:
    positions = [i for i, c in enumerate(stdout) if chr(c).isdigit()]
    i = rng.choice(positions)
    digit = int(chr(stdout[i]))
    return stdout[:i] + str((digit + rng.randint(1, 9)) % 10).encode() + stdout[i + 1:]


def test_every_output_of_a_deck_passes_the_gate(interactive_results):
    jobs, results = interactive_results
    run.check_all(results, {j.argv: j.expect for j in jobs})
    assert [(r.argv, r.failure) for r in results if r.failure] == []


def test_a_corrupted_digit_is_a_failed_job(interactive_results):
    jobs, results = interactive_results
    expects = {j.argv: j.expect for j in jobs}
    rng = random.Random(0)
    for victim in range(len(results)):
        for _ in range(3):
            tampered = [run.JobResult(**vars(r)) for r in results]
            tampered[victim].stdout = _corrupt_digit(results[victim].stdout, rng)
            run.check_all(tampered, expects)
            failed = [r.argv for r in tampered if r.failure]
            assert failed == [results[victim].argv], tampered[victim].stdout.decode()[:300]
            three_rounds = tampered * 3  # enough jobs for the tail percentile
            metrics, notes = run.end_to_end(tampered, three_rounds, 1.0)
            assert f"failed_ratio: 3/{len(three_rounds)}" in notes
            assert metrics["jobs_per_s"]["value"] == len(three_rounds) - 3


def test_wrong_exit_status_and_timeout_are_failures(interactive_results):
    jobs, results = interactive_results
    bad = [run.JobResult(**vars(r)) for r in results[:2]]
    bad[0].status, bad[1].status = 2, None
    run.check_all(bad, {j.argv: j.expect for j in jobs})
    assert bad[0].failure.startswith("exit status 2") and bad[1].failure.startswith("timed out")


def test_spawn_reports_exit_status_output_and_timeout():
    code = "import sys; print(7); sys.stderr.write('e'); sys.exit(3)"
    _, wall, status, rss, out, err = spawner.spawn([sys.executable, "-c", code], os.environ, 30)
    assert (status, out, err) == (3, b"7\n", b"e") and wall > 0 and rss > 0
    _, wall, status, _, _, _ = spawner.spawn([sys.executable, "-c", "import time; time.sleep(30)"], os.environ, 0.5)
    assert status is None and wall < 10


def test_peak_rss_is_the_jobs_own_not_the_benchmarks():
    ballast = bytearray(200 << 20)  # the benchmark process holding 200 MB of outputs
    runner = run.Runner()
    try:
        result = runner.run(workloads.SETUP_PROBE, traced=False)
    finally:
        runner.close()
    assert result.status == 0 and 5 << 10 < result.maxrss_kb < 100 << 10
    assert runner.helper.returncode == 0
    del ballast


# -- zero jobs, missing program ----------------------------------------------------------


def test_a_workload_that_ran_zero_jobs_is_an_error(monkeypatch):
    monkeypatch.setattr(workloads, "deck", lambda workload, seed: [])
    with pytest.raises(run.BenchError):
        run.main(["--workload", "count", "--seed", "1", "--seconds", "1"])
    with pytest.raises(run.BenchError):
        run.end_to_end([], [], 1.0)


def test_without_the_program_the_benchmark_fails_and_prints_no_result(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "count", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tail_needs_ten_jobs_beyond_the_percentile():
    assert run.tail([float(i) for i in range(150)]) == 134.0
    assert run.tail([float(i) for i in range(100)]) == 89.0
    with pytest.raises(run.BenchError):
        run.tail([float(i) for i in range(99)])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tail_is_the_same_percentile_of_the_same_job_at_any_round_count(workload):
    # a faster program completes more rounds of the deck; the tail must still read the same job
    size = len(workloads.deck(workload, 1))
    costs = [float(slot) for slot in range(size)]
    least = run.min_rounds(size)
    assert size * least * (100 - run.TAIL_PERCENTILE) / 100 >= run.TAIL_BEYOND
    readings = {run.tail(costs * rounds) for rounds in range(least, least + 12)}
    assert len(readings) == 1


def test_run_makes_the_minimum_rounds_and_probes_between_jobs():
    runner = run.Runner()
    jobs = workloads.deck("interactive", 1)[:5]
    try:
        rounds, walls, probes = run.run_stream(runner, jobs, 0.0, trace=False)
    finally:
        runner.close()
    assert len(rounds) == len(walls) == run.min_rounds(len(jobs)) == 20
    assert len(probes) > run.PROBES_AT_START + 1
    assert all(r.argv == workloads.SETUP_PROBE for r in probes)


def test_environment_records_python_nproc_and_cpu():
    env = run.environment()
    assert env["python"] and env["nproc"] >= 1 and env["cpu"]


# -- tracing ---------------------------------------------------------------------------


def _fake_traced_job():
    spans = [
        (0, -1, "cli.main", 1.0, 2.0, 0, 0),
        (1, 0, "cli.build_parser", 1.0, 1.1, 0, 0),
        (2, 0, "matrices.det", 1.2, 1.5, 0, 4),
        (3, 0, "labelings.count_cycle", 1.5, 1.9, 1, 0),
    ]
    trace = {"t_enter": 0.5, "t_import": 0.5, "t_imported": 0.9, "t_done": 2.0, "spans": spans,
             "family_cache": {"gf_numerator": [3, 1], "gf_denominator": [0, 0]}}
    return run.JobResult(("x",), 0.0, 2.5, 0, 1, b"abc", b"", trace)


def test_self_time_is_the_span_minus_its_children():
    summary = tracing.summarise_job(_fake_traced_job().trace["spans"])
    assert summary["layers"]["cli"]["self_s"] == pytest.approx(0.2)
    assert summary["layers"]["setup"]["self_s"] == pytest.approx(0.1)
    assert summary["layers"]["labelings"]["errors"] == 1
    assert summary["functions"]["matrices.det"]["work_max"] == 4


def test_per_layer_metrics_add_up():
    job = _fake_traced_job()
    metrics, _ = report.per_layer([job], [job], 1, 2.0, 3.0)
    value = {k: v["value"] for k, v in metrics.items()}
    assert value["setup.interpreter_s"] == pytest.approx(0.5)
    assert value["setup.import_s"] == pytest.approx(0.4)
    shares = sum(value[f"{layer}.share"] for layer in report.LAYERS) + value["trace.unattributed_share"]
    assert shares == pytest.approx(1.0)
    assert value["recurrences.family_cache_hit_ratio"] == pytest.approx(0.75)
    assert (value["trace.jobs_per_s"], value["trace.untraced_jobs_per_s"]) == (2.0, 3.0)


def test_launcher_traces_a_real_job(tmp_path):
    runner = run.Runner()
    runner.trace_dir = tmp_path
    result = runner.run(("fit", "-n", "3", "-k", "1,1,1"), traced=True)
    assert result.status == 0 and b"MATCH" in result.stdout
    names = {span[2] for span in result.trace["spans"]}
    assert {"cli.main", "cli.build_parser", "genfun.fit_cycle", "genfun.quasipoly_fit",
            "labelings.count_cycle", "matrices.solve_exact"} <= names
    assert not names & tracing.LEAVES
    assert result.trace["t_enter"] > result.spawned
