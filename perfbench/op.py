"""Run one kolmobench command in this fresh process, as the console script does.

    python3 perfbench/op.py TIMING_FILE TRACE_FILE|- -- ARGV...

Imports `kolmobench.cli` from the checkout's `src/` and exits with the code
`cli.main(ARGV)` returns. When the op ends it writes to TIMING_FILE, as JSON,
the `time.perf_counter()` reading taken just before entering `cli.main` and
this process's peak RSS. On Linux that clock is system-wide, so the benchmark
subtracts it from its own reading at spawn to get the op's set-up time. The
peak RSS is read from /proc (VmHWM) because `ru_maxrss` of a child also counts
the pages it shared with its parent before exec. With a TRACE_FILE other than
`-`, the functions listed in `tracer.TRACED` are wrapped first and the op's
spans are written to TRACE_FILE when the op ends.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def _peak_rss_kb() -> int:
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))


def main() -> int:
    timing_path, trace_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: op.py TIMING_FILE TRACE_FILE|- -- ARGV...")
    from kolmobench import cli

    tracer = None
    if trace_path != "-":
        from tracer import Tracer

        tracer = Tracer(Path(trace_path).stem)
        tracer.install()
    entered = time.perf_counter()
    try:
        return cli.main(argv)
    finally:
        Path(timing_path).write_text(
            json.dumps({"entered": entered, "peak_rss_kb": _peak_rss_kb()})
        )
        if tracer is not None:
            tracer.dump(Path(trace_path))


if __name__ == "__main__":
    sys.exit(main())
