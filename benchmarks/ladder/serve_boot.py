"""Start ``repro serve`` with the ladder's instruments on signals.

    python serve_boot.py [--trace-out spans.json] [--bursts-out bursts.json]
                         [repro serve options]

The daemon starts without them.  With ``--trace-out``, ``SIGUSR1``
installs the wrappers of :data:`tracing.SPANS` (the daemon prints
``ladder: tracing on``), so a warm-up session can run first without
being recorded; on shutdown (``SIGINT``) the tracer's aggregates and
raw spans are written to ``--trace-out`` as JSON.  With
``--bursts-out``, ``SIGUSR2`` starts a :class:`refclock.ReferenceClock`
in the daemon, where the sessions are simulated (``ladder: reference
clock on``), and a second ``SIGUSR2`` stops it and writes its bursts to
``--bursts-out`` (``ladder: reference clock off``).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from refclock import ReferenceClock  # noqa: E402
from tracing import Tracer, install  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", type=Path)
    parser.add_argument("--bursts-out", type=Path)
    args, daemon_args = parser.parse_known_args(argv)

    from repro.serve import daemon

    tracer = Tracer()
    installed = []
    clocks: list[ReferenceClock] = []

    def start_tracing(signum, frame) -> None:
        if not installed:
            installed.append(install(tracer))
            print("ladder: tracing on", flush=True)

    def toggle_clock(signum, frame) -> None:
        if not clocks:
            clocks.append(ReferenceClock().__enter__())
            print("ladder: reference clock on", flush=True)
            return
        clock = clocks.pop()
        clock.__exit__(None, None, None)
        args.bursts_out.write_text(json.dumps(clock.bursts), encoding="utf-8")
        print("ladder: reference clock off", flush=True)

    if args.trace_out:
        signal.signal(signal.SIGUSR1, start_tracing)
    if args.bursts_out:
        signal.signal(signal.SIGUSR2, toggle_clock)
    try:
        return daemon.main(daemon_args)
    finally:
        for handle in installed:
            handle.remove()
        if args.trace_out:
            args.trace_out.write_text(json.dumps(tracer.to_dict()), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
