"""Child entry point of the benchmark: one process of a workload.

    python3 bench/child.py setup                 import algebroids.cli, exit
    python3 bench/child.py cli <argv...>         one `algebroid <argv>` run
    python3 bench/child.py session <json argv list>

`cli` does what the `algebroid` console script does (`sys.exit(main())`),
so its stdout, stderr and exit code are those of the command.  `session`
runs every command through `algebroids.cli.main` in this one process,
captures each command's stdout and stderr, and prints one JSON object
with the per-command results.

With BENCH_TRACE_FILE set, the functions listed in spans.py are traced
after the import and the trace is written to that file at exit.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _import_cli():
    start = time.perf_counter()
    import algebroids.cli as cli
    import_s = time.perf_counter() - start
    expected = os.path.join(ROOT, "src", "algebroids", "")
    if not cli.__file__.startswith(expected):
        sys.exit(f"bench: algebroids imported from {cli.__file__}, "
                 f"not from {expected}")
    return cli, import_s


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _exit_code(exc: SystemExit) -> int:
    if exc.code is None:
        return 0
    return exc.code if isinstance(exc.code, int) else 1


def run_session(cli, commands):
    results = []
    cpu0, t0 = _cpu_s(), time.perf_counter()
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = _exit_code(exc)
            except Exception:
                # what the interpreter does with an uncaught exception
                traceback.print_exc()
                code = 1
        results.append({"exit": code, "stdout": out.getvalue(),
                        "stderr": err.getvalue(),
                        "wall_s": time.perf_counter() - start})
    return {"wall_s": time.perf_counter() - t0, "cpu_s": _cpu_s() - cpu0,
            "commands": results}


def main(args):
    mode = args[0] if args else ""
    if mode not in ("setup", "cli", "session"):
        sys.exit("usage: child.py setup | cli <argv...> | session <json>")
    cli, import_s = _import_cli()
    if mode == "setup":
        return 0
    trace_file = os.environ.get("BENCH_TRACE_FILE")
    tracer = None
    if trace_file:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        if mode == "cli":
            return cli.main(args[1:])
        result = run_session(cli, json.loads(args[1]))
        result["import_s"] = import_s
        json.dump(result, sys.stdout)
        return 0
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(trace_file, import_s=import_s)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
