"""Run one magiccount command with spans around its layers.

Usage: python3 perfbench/launch.py TRACE_FILE ARGV...

Imports ``magiccount.cli`` (timing the import), wraps the layer modules
from outside (see ``tracing``), calls ``magiccount.cli.main(ARGV)`` and,
once it returns, writes the spans and the recurrence-family cache
statistics to TRACE_FILE as JSON.  The exit status is main's.
"""

import time

T_ENTER = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    t_import = time.perf_counter()
    import magiccount.cli

    t_imported = time.perf_counter()
    import tracing

    recorder = tracing.Recorder()
    originals = tracing.install(recorder)
    code = 1
    try:
        code = magiccount.cli.main(argv)
    finally:
        sys.stdout.flush()
        t_done = time.perf_counter()
        caches = {name: list(originals[f"recurrences.{name}"].cache_info()[:2])
                  for name in ("gf_numerator", "gf_denominator")}
        record = {
            "t_enter": T_ENTER,
            "t_import": t_import,
            "t_imported": t_imported,
            "t_done": t_done,
            "exit": code,
            "spans": recorder.spans,
            "family_cache": caches,  # [hits, misses]
        }
        with open(trace_file, "w") as fh:
            json.dump(record, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main())
