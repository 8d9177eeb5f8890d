"""Run one ``qmodes`` command in this fresh interpreter and record its cost.

Usage: ``python3 child.py RESULT_JSON TRACE -- QMODES_ARGS...``

The import of ``qmodes.cli`` comes first, so the stamp taken after it,
compared with the spawn time the parent took on the same system-wide
monotonic clock, is the set-up time.  ``main`` is then timed until it
returns.  With TRACE = 1 the layer functions are wrapped in spans first.
The result (exit code, error, clock stamps, peak RSS, spans and counts) is
written to RESULT_JSON as the interpreter's last act.
"""

import sys
import time

import qmodes.cli

IMPORTED_NS = time.monotonic_ns()

import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def main() -> int:
    result_path, trace, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py RESULT_JSON TRACE -- QMODES_ARGS...")
    recorder = None
    missing: list[str] = []
    if trace == "1":
        from spans import SpanRecorder

        recorder = SpanRecorder()
        missing = recorder.install()

    code = None
    error = None
    start = time.monotonic_ns()
    try:
        if recorder is None:
            code = qmodes.cli.main(argv)
        else:
            code = recorder.call("cli.main", qmodes.cli.main, argv)
    except (Exception, SystemExit):
        error = traceback.format_exc()
    end = time.monotonic_ns()

    result = {
        "code": code,
        "error": error,
        "imported_ns": IMPORTED_NS,
        "main_start_ns": start,
        "main_end_ns": end,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": recorder.spans if recorder else [],
        "counts": dict(recorder.counts) if recorder else {},
        "unwrapped": missing,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
