"""One quatlink experiment in a fresh interpreter.

    python3 perfbench/child.py REPORT TRACE -- run [quatlink flags...]

Calls `quatlink.cli.main` with the flags after `--` and writes a JSON report
to REPORT: perf_counter marks at the entry to `cli.main`, at the entry to
`run_experiment` and after the outputs are written, plus peak resident
memory.  perf_counter reads the system-wide monotonic clock, so the parent
can subtract its own spawn time from these marks.  With TRACE=1 the layer
wrappers of tracer.py are installed first and the spans go into the report.

Only `sys` and `time` are imported before `quatlink`, so the set-up time the
parent measures is the interpreter's and the package's own.
"""

import sys
import time


def main(argv) -> int:
    report_path, trace = argv[0], argv[1] == "1"
    quatlink_argv = argv[argv.index("--") + 1 :]
    import quatlink.cli as cli

    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    marks = {}
    run_experiment = cli.run_experiment

    def timed_run_experiment(*args, **kwargs):
        marks["run_experiment"] = time.perf_counter()
        return run_experiment(*args, **kwargs)

    cli.run_experiment = timed_run_experiment
    marks["main"] = time.perf_counter()
    if tracer is None:
        code = cli.main(quatlink_argv)
    else:
        span = tracer.open("cli.main")
        try:
            code = cli.main(quatlink_argv)
        finally:
            tracer.close(span)
    marks["end"] = time.perf_counter()

    import json
    import resource

    # ru_maxrss is in KiB on Linux; the children are the harness's pool workers
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    report = {"exit_code": code, "marks": marks, "peak_rss_mb": peak_kib / 1024.0, "module": cli.__file__}
    if tracer is not None:
        report["spans"] = tracer.spans
        report["counts"] = dict(tracer.counts)
    with open(report_path, "w", encoding="utf-8") as stream:
        json.dump(report, stream)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
