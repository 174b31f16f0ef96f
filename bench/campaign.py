"""Run one `saris run` campaign in this fresh interpreter and report timings.

    python3 bench/campaign.py --src SRC --import-only
    python3 bench/campaign.py --src SRC --report REPORT.json [--trace] -- run ...

The first form times `import saris.cli` and prints {"import_s": ...}. The
second also calls `saris.cli.main` with the arguments after `--` and writes
REPORT.json with the import time, the time spent in `main`, its exit code, the
process's peak RSS and, with --trace, the spans recorded by `tracer.Tracer`.
The caller pins BLAS to one thread in the environment; the check below
refuses to run unpinned so every measurement uses one core.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter

PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def main() -> int:
    argv = sys.argv[1:]
    cli_args = argv[argv.index("--") + 1:] if "--" in argv else []
    own = argv[: argv.index("--")] if "--" in argv else argv
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--report")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--import-only", action="store_true")
    args = parser.parse_args(own)

    unpinned = [name for name in PINNED if os.environ.get(name) != "1"]
    if unpinned:
        print(f"error: {', '.join(unpinned)} must be 1", file=sys.stderr)
        return 2

    t0 = perf_counter()
    import saris.cli

    import_s = perf_counter() - t0
    src = Path(args.src).resolve()
    if src not in Path(saris.__file__).resolve().parents:
        print(f"error: saris imported from {saris.__file__}, not from {src}", file=sys.stderr)
        return 2
    if args.import_only:
        print(json.dumps({"import_s": import_s}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    t0 = perf_counter()
    if tracer is None:
        code = saris.cli.main(cli_args)
    else:
        code = tracer.call("cli.main", saris.cli.main, cli_args)
    main_s = perf_counter() - t0

    report = {
        "import_s": import_s,
        "main_s": main_s,
        "exit_code": code,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": tracer.spans if tracer else None,
    }
    Path(args.report).write_text(json.dumps(report))
    return 0 if code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
