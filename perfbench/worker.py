"""One in-process pass: ``torustrace.cli.main(argv)`` for every command of a plan.

Usage: python3 perfbench/worker.py PLAN.json RESULT.json

The plan is {"commands": [[arg, ...], ...], "trace": bool, "spans": path | null}.
The worker runs in the work directory, so relative file arguments resolve
there.  Interpreter start-up and ``import torustrace.cli`` happen before the
timed pass; the import time is reported separately.  With "trace" the tracer
is installed after the import and the pass's per-layer metrics are returned.

The reference task (reference.py) runs before the first command and after
each one, and its times are returned as "refs", so that run.py can express
each command's time against the host's speed at that moment.  The pass time
is the sum of the command times and leaves the reference runs out.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import traceback
from time import perf_counter


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    start = perf_counter()
    import torustrace.cli  # noqa: F401  (timed: what a fresh library user pays)

    import_s = perf_counter() - start
    cli = sys.modules["torustrace.cli"]
    import reference

    reference.work()  # warm-up: BLAS threads and buffers

    def time_reference() -> float:
        t0 = perf_counter()
        reference.work()
        return perf_counter() - t0

    tracer = None
    if plan["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()

    codes, stdouts, stderrs, times = [], [], [], []
    refs = [time_reference()]
    for i, argv in enumerate(plan["commands"]):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.command = i
        t0 = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except Exception:  # a crash is a failed command, reported with its traceback
                traceback.print_exc(file=err)
                code = -1
        times.append(perf_counter() - t0)
        codes.append(code)
        stdouts.append(out.getvalue())
        stderrs.append(err.getvalue())
        refs.append(time_reference())
    pass_s = sum(times)

    result = {"import_s": import_s, "pass_s": pass_s, "times": times, "refs": refs, "codes": codes,
              "stdout": stdouts, "stderr": stderrs}
    if tracer is not None:
        result["metrics"] = tracing.layer_metrics(tracer, import_s)
        self_s, _ = tracer.self_times()
        result["unattributed_s"] = pass_s - sum(self_s.values())
        result["absent"] = tracer.absent
        if plan.get("spans"):
            tracer.write(plan["spans"])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
