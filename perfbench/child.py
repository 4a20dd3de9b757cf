"""One benchmark round: run an op list in-process through ``sepsets.cli.main``.

Usage:
    python3 child.py --setup
    python3 child.py OPS_JSON OUT_DIR|- TRACE

The package must be importable (the parent puts ``src`` on PYTHONPATH).  The
first thing done is importing ``sepsets.cli``; the monotonic clock right
after it is the end of set-up.  Each op's stdout is kept in memory while
the op runs; after its timer stops it is hashed and, given OUT_DIR, saved as
``OUT_DIR/<index>.out``.  stderr is kept for the error message.  An
exception ends the op, never the round.  A fixed loop is timed just before
and just after each op, outside its timer, to give the machine's speed at
that moment.  The last line of stdout is one JSON object with the results.
"""

import sys
import time

import sepsets.cli

READY = time.monotonic()

import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402


class _Sink:
    """Write-only text stream that keeps the bytes written to it."""

    def __init__(self) -> None:
        self.data = bytearray()

    def write(self, text: str) -> int:
        self.data += text.encode()
        return len(text)

    def flush(self) -> None:
        pass


def _probe() -> float:
    """Seconds taken by a fixed pure-Python loop: the machine's speed now."""
    start = perf_counter()
    acc = 0
    for i in range(20000):
        acc += i % 7
    return perf_counter() - start


def _run_op(argv: list[str], out_path) -> list:
    before = _probe()
    sink, err = _Sink(), io.StringIO()
    real_out, real_err = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = sink, err
    start = perf_counter()
    try:
        code = sepsets.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crashing op is a failed op, the round goes on
        code = f"{type(exc).__name__}: {exc}"[:200]
    elapsed = perf_counter() - start
    sys.stdout, sys.stderr = real_out, real_err
    if out_path is not None:
        out_path.write_bytes(sink.data)
    digest = hashlib.sha256(sink.data).hexdigest()
    probe = (before + _probe()) / 2
    return [elapsed, code, digest, len(sink.data), err.getvalue()[-200:], probe]


def main(argv: list[str]) -> int:
    report = {
        "ready": READY,
        "backend": sepsets.kernel_backend(),
        "python": platform.python_version(),
        "package": str(Path(sepsets.__file__).resolve().parent),
    }
    if argv == ["--setup"]:
        print(json.dumps(report))
        return 0
    ops_path, out_dir, trace = argv
    ops = json.loads(Path(ops_path).read_text())
    tracer = None
    if trace == "1":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    results = []
    try:
        for i, op in enumerate(ops):
            out_path = None if out_dir == "-" else Path(out_dir) / f"{i}.out"
            results.append(_run_op(op["argv"], out_path))
    finally:
        if tracer is not None:
            tracer.remove()
    report["results"] = results
    report["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report["trace"] = tracer.counters() if tracer is not None else None
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
