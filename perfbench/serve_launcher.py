"""Start ``repro-spam serve`` with the benchmark's span recorders.

Usage: ``serve_launcher.py SPANS_JSON serve --world ... --socket ...``

Installs the wrappers of ``layers.make_tracer`` and a ``gc.callbacks``
hook, then runs ``repro.cli.main`` on the remaining arguments.  SIGUSR1
installs the wrappers and SIGUSR2 removes them, so the client can
alternate traced and untraced blocks of requests against one server.
When SIGTERM drains the server, the spans are written to SPANS_JSON.
"""

from __future__ import annotations

import gc
import signal
import sys
import time
from pathlib import Path


def main(argv) -> int:
    spans_path = Path(argv[0])
    from layers import make_tracer
    import repro.cli

    tracer = make_tracer()
    started = {}

    def on_gc(phase, info) -> None:
        now = time.perf_counter()
        if phase == "start":
            started["at"] = now
        elif "at" in started:
            tracer.record("py.gc", started.pop("at"), now,
                          {"generation": info["generation"]})

    signal.signal(signal.SIGUSR1, lambda *_: tracer.install())
    signal.signal(signal.SIGUSR2, lambda *_: tracer.uninstall())
    gc.callbacks.append(on_gc)
    tracer.install()
    try:
        return repro.cli.main(argv[1:])
    finally:
        tracer.uninstall()
        gc.callbacks.remove(on_gc)
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
