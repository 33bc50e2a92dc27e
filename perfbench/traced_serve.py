"""Run ``repro serve`` with the benchmark's span wrappers installed.

Usage: ``python traced_serve.py <trace-out.json> serve --snapshot ... ``.
Everything after the output path is handed to the ``repro`` command line
unchanged; when the daemon drains, the span summary is written to the output
path.  The serve stage of a traced benchmark run starts its daemon this way.
"""

from __future__ import annotations

import sys
from pathlib import Path

import bench_layers
from bench_spans import Tracer


def main(argv: list[str]) -> int:
    out_path, cli_args = Path(argv[0]), argv[1:]
    from repro.cli import main as repro_main

    tracer = Tracer()
    tracer.stage = "serve"
    bench_layers.instrument(tracer)
    try:
        return repro_main(cli_args)
    finally:
        tracer.uninstall()
        tracer.write(out_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
