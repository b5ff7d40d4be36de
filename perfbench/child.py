"""One repetition: the torusflow CLI in this process, timed from outside.

    python3 child.py <record.json> <trace 0|1> <torusflow cli arguments...>

PERFBENCH_SPAWN_T holds the parent's time.monotonic() at spawn.  The
record gets setup_s (spawn until the pipeline call starts, i.e. until
torusflow is imported and the config parsed), run_s (the pipeline call)
and, when traced, every span and count.  With PERFBENCH_SETUP_ONLY set,
the process exits with 0 at the pipeline call, after set-up only.
"""

import json
import os
import sys
import time


def main(argv) -> int:
    record_path, traced, cli_args = argv[0], argv[1] == "1", argv[2:]
    spawn_t = float(os.environ["PERFBENCH_SPAWN_T"])

    import torusflow.cli as cli
    import tracer as tr

    tracer = tr.Tracer(run_id=os.path.basename(record_path).split(".")[0])
    marks = {}

    def mark_start(t, args, kwargs):
        marks["start"] = time.monotonic()
        if os.environ.get("PERFBENCH_SETUP_ONLY"):
            raise SystemExit(0)

    def mark_end(t, args, kwargs, out):
        marks["end"] = time.monotonic()

    module, attr, name, _, _ = tr.RUN_TARGET
    targets = [(module, attr, name, mark_start, mark_end)]
    if traced:
        targets += tr.LAYER_TARGETS
    tr.install(tracer, targets)
    try:
        code = cli.main(cli_args)
    finally:
        record = {"setup_s": marks["start"] - spawn_t if "start" in marks else None}
        if "end" in marks:
            record["run_s"] = marks["end"] - marks["start"]
        if traced:
            record["trace"] = tracer.dump()
        with open(record_path, "w") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
