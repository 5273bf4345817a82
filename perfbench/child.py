"""One fresh interpreter running one pass of a workload.

Usage: ``python3 child.py SRC_DIR`` with the job as JSON on stdin:
``{"ops": [{"argv": [...], "sha256": "..."}], "trace": false,
"spans_path": null}``.  The working directory is the pass's own fresh
directory.  The child times the import of ``squarefibers.cli`` (set-up),
then calls ``squarefibers.cli.run(argv)`` for each operation in order,
captures its stdout and checks the SHA-256 of it.  It prints one JSON
object with the timings on its own stdout.

Only ``sys`` and ``time`` are imported before the timed import, so that
the modules the CLI pulls in are charged to its set-up.
"""

import sys
import time


def run_op(cli, argv: list[str]) -> tuple[float, str, str | None]:
    """Time one CLI call; return (seconds, stdout digest, error or None)."""
    import contextlib
    import hashlib
    import io

    out, err = io.StringIO(), io.StringIO()
    error = None
    t = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code
    except Exception as exc:  # a crash is a failed op, not a failed pass
        code, error = None, f"raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t
    if error is None and code != 0:
        error = f"exit {code}: {err.getvalue().strip()[:200]}"
    return seconds, hashlib.sha256(out.getvalue().encode()).hexdigest(), error


def main() -> None:
    job_text = sys.stdin.read()
    src = sys.argv[1]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import squarefibers.cli as cli

    setup_s = time.perf_counter() - t0

    import json
    import os
    import resource

    if os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__))) != os.path.abspath(src):
        raise SystemExit(f"squarefibers was imported from {cli.__file__}, not from {src}")
    job = json.loads(job_text)
    tracer = None
    if job["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    ops = []
    for i, op in enumerate(job["ops"]):
        if tracer is not None:
            tracer.op_begin(i)
        seconds, digest, error = run_op(cli, op["argv"])
        if tracer is not None:
            tracer.op_end()
        if error is None and digest != op["sha256"]:
            error = "stdout digest differs from the recorded one"
        ops.append({"seconds": seconds, "sha256": digest, "error": error})
    result = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": ops,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_stats()
        if job.get("spans_path"):
            tracer.write(job["spans_path"])
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
