"""Seeded job decks for the four benchmark workloads.

A deck is the list of CLI jobs one round of a workload runs.  It is a
pure function of (workload, seed): the same pair always gives the same
argv lists in the same order, and ``deck_digest`` fingerprints it.  A run
replays its deck round after round, so every round has the same mix.

Every job is a valid input whose stdout the project keeps byte-stable,
and each one carries an ``expect`` record that tells ``answers.check``
which independent route its output must agree with.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

WORKLOADS = ("count", "certify", "geometry", "interactive")

#: Why each workload is in the benchmark (mirrored in BENCHMARK.json).
WHY = {
    "count": "labelings DP dominates: count, table, fit and series jobs with mixed loop vectors, s up to 80",
    "certify": "matrices and poly dominate: verify over the catalog and single ids, n-max 12..30, y-series",
    "geometry": "polytope enumeration and cli formatting dominate: polytope jobs at n up to 21, outputs up to ~1.4 MB",
    "interactive": "interpreter start and import dominate: many tiny jobs of every subcommand, brute-force included",
}

#: The identity catalog, by id.  A job naming an id the program lost exits 2 and fails.
CATALOG_IDS = (
    "mirror1-diff-eq-mirror2-sum",
    "inv-step-via-mirror2",
    "inv-eq-mirror1",
    "inv-from-mirror2",
    "mirror2-only-rec",
    "inv-only-rec",
    "inv-eq-signed-det",
    "det-only-rec",
    "form-rec-via-det",
    "form-sum-eq-mirror2",
    "det-diff-eq-form-sum",
    "form-only-rec",
    "series-bridge",
)

#: The no-work job whose wall time is the set-up cost of one command.
SETUP_PROBE = ("count", "--cycle", "-n", "1", "-k", "0", "--s-max", "0")

FORMATS = ("text", "csv", "json")


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    expect: dict = field(compare=False, hash=False)


def _fmt_args(fmt: str) -> tuple[str, ...]:
    return () if fmt == "text" else ("--format", fmt)


def _loops_arg(loops: list[int]) -> str:
    return ",".join(map(str, loops))


def _mixed_loops(rng: random.Random, n: int) -> list[int]:
    """A seeded arrangement of 0..3 loops per vertex, one vertex loop-free.

    The multiset of loop counts is fixed for each n, so the cost of a
    count hardly depends on the seed while the answer does.
    """
    loops = [0, 3, 1, 2, 2, 1, 3, 1][:n]
    rng.shuffle(loops)
    return loops


# -- job constructors ---------------------------------------------------------


def count_cycle(rng: random.Random, n: int, loops: list[int], s_max: int) -> Job:
    fmt = rng.choice(FORMATS)
    argv = ("count", "--cycle", "-n", str(n), "-k", _loops_arg(loops), "--s-max", str(s_max))
    return Job(argv + _fmt_args(fmt), {"kind": "count", "shape": "cycle", "n": n, "loops": loops,
                                       "s_max": s_max, "fmt": fmt})


def count_line(rng: random.Random, n: int, m: int, s_max: int) -> Job:
    fmt = rng.choice(FORMATS)
    argv = ("count", "--line", "-n", str(n), "-m", str(m), "--s-max", str(s_max))
    return Job(argv + _fmt_args(fmt), {"kind": "count", "shape": "line", "n": n, "loops": [m] * n,
                                       "s_max": s_max, "fmt": fmt})


def count_brute(rng: random.Random, shape: str, n: int, loops: list[int], s_max: int) -> Job:
    fmt = rng.choice(FORMATS)
    if shape == "line":
        argv = ("count", "--line", "-n", str(n), "-m", str(loops[0]), "--s-max", str(s_max), "--brute")
    else:
        argv = ("count", "--cycle", "-n", str(n), "-k", _loops_arg(loops), "--s-max", str(s_max), "--brute")
    return Job(argv + _fmt_args(fmt), {"kind": "count", "shape": shape, "n": n, "loops": loops,
                                       "s_max": s_max, "fmt": fmt})


def table(rng: random.Random, shape: str, ns: list[int], single: bool) -> Job:
    fmt = rng.choice(FORMATS)
    flag = "--el" if shape == "line" else "--ec"
    sel = ("-n", str(ns[0])) if single else ("--n-max", str(ns[-1]))
    return Job(("table", flag) + sel + _fmt_args(fmt), {"kind": "table", "shape": shape, "ns": ns, "fmt": fmt})


def fit(rng: random.Random, n: int, loops: list[int]) -> Job:
    fmt = rng.choice(FORMATS)
    argv = ("fit", "--cycle", "-n", str(n), "-k", _loops_arg(loops))
    return Job(argv + _fmt_args(fmt), {"kind": "fit", "n": n, "loops": loops, "holdout": 10, "fmt": fmt})


def series_in_s(rng: random.Random, n: int, loops: list[int], order: int) -> Job:
    fmt = rng.choice(FORMATS)
    argv = ("series", "--cycle", "-n", str(n), "-k", _loops_arg(loops), "--order", str(order))
    return Job(argv + _fmt_args(fmt), {"kind": "series_s", "n": n, "loops": loops, "order": order, "fmt": fmt})


def series_in_y(rng: random.Random, shape: str, s: int, order: int) -> Job:
    fmt = rng.choice(FORMATS)
    argv = ("series", "--" + shape, "-s", str(s), "--order", str(order))
    return Job(argv + _fmt_args(fmt), {"kind": "series_y", "shape": shape, "s": s, "order": order, "fmt": fmt})


def verify(rng: random.Random, ids: list[str] | None, n_max: int) -> Job:
    fmt = rng.choice(FORMATS)
    if ids is None:
        sel: tuple[str, ...] = ("--all",) if rng.random() < 0.5 else ()
        ids = list(CATALOG_IDS)
    else:
        sel = tuple(a for i in ids for a in ("--id", i))
    argv = ("verify",) + sel + ("--n-max", str(n_max))
    return Job(argv + _fmt_args(fmt), {"kind": "verify", "ids": ids, "n_max": n_max, "fmt": fmt})


def polytope(rng: random.Random, n: int, mode: str, fmt: str, order: int = 0) -> Job:
    extra = {"vertices": (), "stable": ("--stable",), "hyperplane": ("--hyperplane",),
             "series": ("--series", str(order))}[mode]
    argv = ("polytope", "-n", str(n)) + extra + _fmt_args(fmt)
    return Job(argv, {"kind": "polytope", "mode": mode, "n": n, "order": order, "fmt": fmt})


# -- decks --------------------------------------------------------------------


# Sizes are fixed per deck slot; the seed picks loop vectors, identities,
# formats, small orders and the job order, so every seed's round costs
# about the same.  Deck sizes are odd multiples of five (15, 25, 45): with
# R rounds the median and the 90th percentile then fall in the middle of
# one job's R replicas instead of on the edge between two jobs.


def _deck_count(rng: random.Random) -> list[Job]:
    jobs = [count_cycle(rng, 6, _mixed_loops(rng, 6), 46) for _ in range(3)]
    jobs.append(count_cycle(rng, 3, _mixed_loops(rng, 3), 76))
    jobs.append(count_cycle(rng, 2, _mixed_loops(rng, 2), 80))
    jobs.append(count_cycle(rng, 7, [2] * 7, 36))
    jobs.append(count_cycle(rng, 5, [2] * 5, 40))
    jobs += [count_line(rng, 10, m, 80) for m in (1, 3)]
    jobs.append(table(rng, "cycle", [7], single=True))
    jobs.append(table(rng, "line", list(range(7)), single=False))
    jobs += [fit(rng, 5, rng.sample([1, 2, 3, 2, 1], 5)) for _ in range(2)]
    jobs += [series_in_s(rng, 5, _mixed_loops(rng, 5), 42) for _ in range(2)]
    return jobs


def _deck_certify(rng: random.Random) -> list[Job]:
    jobs = [verify(rng, None, n_max) for n_max in (12, 20, 30)]
    jobs += [verify(rng, [identity], 26) for identity in CATALOG_IDS]
    for shape in ("line",) * 5 + ("cycle",) * 4:
        jobs.append(series_in_y(rng, shape, rng.randint(30, 33), rng.randint(30, 33)))
    return jobs


def _deck_geometry(rng: random.Random) -> list[Job]:
    def any_fmt(*fmts: str) -> str:
        return rng.choice(fmts or FORMATS)

    jobs = [
        polytope(rng, 21, "hyperplane", any_fmt()),
        polytope(rng, 19, "stable", any_fmt()),
        polytope(rng, 19, "vertices", any_fmt("text", "csv")),
        polytope(rng, 18, "stable", any_fmt()),
        polytope(rng, 18, "vertices", any_fmt("text", "csv")),
        polytope(rng, 17, "stable", any_fmt()),
        polytope(rng, 16, "vertices", any_fmt()),
    ]
    for n in (9, 10, 11, 12, 13):
        jobs.append(polytope(rng, n, "stable", any_fmt()))
        jobs.append(polytope(rng, n, "vertices", any_fmt()))
    for n in (9, 11, 13, 15, 17, 19, 21, 21):
        jobs.append(polytope(rng, n, "series", any_fmt(), order=rng.randint(20, 60)))
    return jobs


def _deck_interactive(rng: random.Random) -> list[Job]:
    jobs = []
    for n, s_max in ((1, 8), (2, 6), (3, 5), (4, 4), (2, 8), (3, 3)):
        jobs.append(count_cycle(rng, n, _mixed_loops(rng, n), s_max))
    for n, m, s_max in ((1, 0, 8), (2, 1, 6), (3, 2, 5), (4, 0, 4)):
        jobs.append(count_line(rng, n, m, s_max))
    for n, s_max in ((1, 6), (2, 5), (3, 4)):
        loops = [1, 0, 2][:n]
        rng.shuffle(loops)
        jobs.append(count_brute(rng, "cycle", n, loops, s_max))
    for n, m, s_max in ((1, 1, 6), (2, 0, 5), (3, 1, 4)):
        jobs.append(count_brute(rng, "line", n, [m] * n, s_max))
    for n_max in (5, 6, 7, 8, 6):
        jobs.append(verify(rng, [rng.choice(CATALOG_IDS)], n_max))
    for n_max in (6, 8):
        jobs.append(verify(rng, None, n_max))
    for shape, ns, single in (("line", [2], True), ("cycle", [3], True),
                              ("line", [0, 1, 2], False), ("cycle", [0, 1, 2, 3], False)):
        jobs.append(table(rng, shape, ns, single))
    for n in (1, 2, 3, 2):
        jobs.append(fit(rng, n, [rng.randint(1, 2) for _ in range(n)]))
    for shape, s, order in (("line", 2, 6), ("line", 5, 10), ("cycle", 3, 8), ("cycle", 6, 4)):
        jobs.append(series_in_y(rng, shape, s, order))
    for n, order in ((2, 6), (3, 9), (4, 12)):
        jobs.append(series_in_s(rng, n, _mixed_loops(rng, n), order))
    for mode, n, order in (("vertices", 7, 0), ("stable", 9, 0), ("hyperplane", 5, 0), ("series", 7, 8),
                           ("vertices", 5, 0), ("stable", 3, 0), ("series", 9, 12)):
        jobs.append(polytope(rng, n, mode, rng.choice(FORMATS), order=order))
    return jobs


_DECKS = {
    "count": _deck_count,
    "certify": _deck_certify,
    "geometry": _deck_geometry,
    "interactive": _deck_interactive,
}


def deck(workload: str, seed: int) -> list[Job]:
    """The jobs of one round of ``workload``, in their seeded order."""
    if workload not in _DECKS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"magiccount-bench:{workload}:{seed}")
    jobs = _DECKS[workload](rng)
    rng.shuffle(jobs)
    return jobs


def deck_digest(jobs: list[Job]) -> str:
    """sha256 over the argv lists, in order: equal digests mean equal streams."""
    payload = json.dumps([list(j.argv) for j in jobs], separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()
