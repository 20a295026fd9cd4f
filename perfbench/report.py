"""Per-layer metrics of a traced run, and the span file it leaves behind.

Layers are the modules ``cli``, ``labelings``, ``genfun``,
``recurrences``, ``matrices``, ``poly`` and ``polytope``, plus
``setup``: interpreter start (spawn to the launcher's first line),
``import magiccount.cli``, and ``build_parser``.

Units of the numbers:

* ``setup.interpreter_s``, ``setup.import_s``, ``setup.parser_s``: medians
  over the no-work set-up probes, seconds per job;
* every other time, call count, byte count and returned count: total
  over the traced rounds divided by their number, i.e. per replay of the
  deck;
* ``*_max_*`` and ``max_result_bits``: the largest value seen;
* ``<layer>.share``: the layer's self time over the traced jobs' summed
  wall time; ``trace.unattributed_share`` is the rest (launcher, span
  dump, interpreter exit);
* ``<layer>.errors``: spans of that layer that raised, over the whole
  run; ``cli.errors`` adds jobs with a nonzero exit status and
  ``setup.errors`` jobs that left no trace.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

import tracing

LAYERS = ("setup",) + tracing.LAYERS

#: (metric, function, field): per-function counters reported per round.
FUNCTION_METRICS = (
    ("labelings.count_cycle_s", "labelings.count_cycle", "s"),
    ("labelings.count_cycle_calls", "labelings.count_cycle", "calls"),
    ("labelings.count_line_s", "labelings.count_line", "s"),
    ("labelings.count_line_calls", "labelings.count_line", "calls"),
    ("labelings.brute_force_s", "labelings.brute_force_count", "s"),
    ("labelings.brute_force_calls", "labelings.brute_force_count", "calls"),
    ("genfun.quasipoly_fit_s", "genfun.quasipoly_fit", "s"),
    ("genfun.ehrhart_numerator_s", "genfun.ehrhart_numerator", "s"),
    ("recurrences.verify_identity_s", "recurrences.verify_identity", "s"),
    ("recurrences.verify_identity_calls", "recurrences.verify_identity", "calls"),
    ("matrices.det_s", "matrices.det", "s"),
    ("matrices.det_calls", "matrices.det", "calls"),
    ("matrices.char_poly_calls", "matrices.char_poly", "calls"),
    ("matrices.det_identity_minus_y_calls", "matrices.det_identity_minus_y", "calls"),
    ("matrices.adjugate_allones_form_calls", "matrices.adjugate_allones_form", "calls"),
    ("matrices.solve_exact_s", "matrices.solve_exact", "s"),
    ("poly.interpolate_s", "poly.interpolate", "s"),
    ("poly.interpolate_calls", "poly.interpolate", "calls"),
    ("poly.series_quotient_s", "poly.series_quotient", "s"),
    ("polytope.stable_sets_s", "polytope.stable_sets", "s"),
    ("polytope.stable_sets_returned", "polytope.stable_sets", "work_sum"),
    ("polytope.vertices_s", "polytope.vertices", "s"),
)

#: (metric, function): largest per-call work value.
MAX_METRICS = (
    ("labelings.max_result_bits", ("labelings.count_cycle", "labelings.count_line", "labelings.brute_force_count")),
    ("matrices.det_max_order", ("matrices.det",)),
)


def _unit(name: str) -> str:
    if name.endswith("jobs_per_s"):
        return "jobs/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_bits"):
        return "bit"
    if name.endswith(("share", "ratio")):
        return "ratio"
    if name.endswith("_order"):
        return "order"
    return "count"


def _setup_split(job) -> tuple[float, float, float]:
    """(interpreter, import, parser) seconds of one traced job."""
    t = job.trace
    parser = sum(end - start for _sid, _p, name, start, end, _r, _w in t["spans"] if name in tracing.SETUP_SPANS)
    return t["t_enter"] - job.spawned, t["t_imported"] - t["t_import"], parser


def per_layer(probes: list, traced: list, rounds: int, traced_jps: float, untraced_jps: float) -> tuple[dict, list[str]]:
    splits = [_setup_split(p) for p in probes if p.trace]
    values: dict[str, float] = {
        "setup.interpreter_s": statistics.median(s[0] for s in splits) if splits else 0.0,
        "setup.import_s": statistics.median(s[1] for s in splits) if splits else 0.0,
        "setup.parser_s": statistics.median(s[2] for s in splits) if splits else 0.0,
    }
    self_s = dict.fromkeys(LAYERS, 0.0)
    errors = dict.fromkeys(LAYERS, 0)
    functions: dict[str, dict] = {}
    hits = lookups = 0
    wall = attributed = 0.0
    for job in traced:
        wall += job.wall_s
        if job.status != 0:
            errors["cli"] += 1
        if not job.trace:
            errors["setup"] += 1
            continue
        interp, imp, _parser = _setup_split(job)
        self_s["setup"] += interp + imp
        attributed += interp + imp
        summary = tracing.summarise_job(job.trace["spans"])
        for layer, agg in summary["layers"].items():
            self_s[layer] += agg["self_s"]
            errors[layer] += agg["errors"]
            attributed += agg["self_s"]
        for name, agg in summary["functions"].items():
            total = functions.setdefault(name, {"s": 0.0, "calls": 0, "work_sum": 0, "work_max": 0})
            for key in ("s", "calls", "work_sum"):
                total[key] += agg[key]
            total["work_max"] = max(total["work_max"], agg["work_max"])
        for h, m in job.trace["family_cache"].values():
            hits += h
            lookups += h + m
    per_round = 1 / rounds
    for layer in LAYERS:
        if layer != "setup":
            values[f"{layer}.self_s"] = self_s[layer] * per_round
        values[f"{layer}.share"] = self_s[layer] / wall
        values[f"{layer}.errors"] = errors[layer]
    values["cli.stdout_bytes"] = sum(len(j.stdout) for j in traced) * per_round
    for name, fn, key in FUNCTION_METRICS:
        values[name] = functions.get(fn, {}).get(key, 0) * per_round
    for name, fns in MAX_METRICS:
        values[name] = max((functions[f]["work_max"] for f in fns if f in functions), default=0)
    values["recurrences.family_cache_lookups"] = lookups * per_round
    values["recurrences.family_cache_hit_ratio"] = hits / lookups if lookups else 0.0
    values["trace.jobs_per_s"] = traced_jps
    values["trace.untraced_jobs_per_s"] = untraced_jps
    values["trace.unattributed_share"] = (wall - attributed) / wall
    metrics = {name: {"value": values[name], "unit": _unit(name)} for name in sorted(values)}
    shares = ", ".join(f"{layer} {values[layer + '.share']:.1%}" for layer in LAYERS)
    notes = [
        f"self-time shares of {len(traced)} traced jobs ({wall:.2f} s wall): {shares}, "
        f"unattributed {values['trace.unattributed_share']:.1%}",
        f"tracing overhead: traced {traced_jps:.3f} jobs/s against untraced {untraced_jps:.3f} jobs/s "
        f"(untraced/traced {untraced_jps / traced_jps:.3f})",
        f"recurrence-family cache: {hits} hits of {lookups} lookups",
    ]
    return metrics, notes


def write_spans(path: Path, workload: str, seed: int, digest: str, env: dict, jobs: list) -> None:
    """All spans of the run, one list per span: [job, id, parent, name, start, end, raised, work]."""
    spans = []
    records = []
    for job_id, job in enumerate(jobs):
        records.append({"job": job_id, "argv": list(job.argv), "spawned": job.spawned, "wall_s": job.wall_s,
                        "status": job.status, "maxrss_kb": job.maxrss_kb,
                        **({k: job.trace[k] for k in ("t_enter", "t_import", "t_imported", "t_done")}
                           if job.trace else {})})
        if job.trace:
            spans.extend([job_id, *span] for span in job.trace["spans"])
    doc = {"workload": workload, "seed": seed, "deck_digest": digest, "environment": env,
           "jobs": records, "spans": spans}
    path.write_text(json.dumps(doc, separators=(",", ":")))
