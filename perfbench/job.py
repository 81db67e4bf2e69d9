"""One cobcalc CLI job in this interpreter: ``cli.main(argv)``, timed.

Usage: python3 perfbench/job.py RESULT_JSON SPANS_TSV|- -- CLI_ARGS...

The job's stdout and exit status are the CLI's.  RESULT_JSON receives the
exit status and the wall time of ``cli.main`` (after import).  When SPANS_TSV is not
``-`` the job runs traced: spans go to SPANS_TSV and the per-function stats
into RESULT_JSON.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"


def main(args) -> int:
    result_path, spans_path, sep, *argv = args
    if sep != "--":
        raise SystemExit("usage: job.py RESULT_JSON SPANS_TSV|- -- CLI_ARGS...")
    import cobcalc.cli as cli

    if SRC not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"cobcalc imported from {cli.__file__}, not from {SRC}")
    tracer = None
    if spans_path != "-":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        start = perf_counter()
        status = cli.main(argv)
        sys.stdout.flush()
        job_s = perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    record = {"status": status, "job_s": job_s}
    if tracer is not None:
        record["restored"] = tracer.restored()
        record["layers"] = tracer.summary()
        tracer.write_spans(spans_path)
    Path(result_path).write_text(json.dumps(record))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
