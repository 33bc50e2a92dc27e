"""Where benchmark result files (``BENCH_*.json``) are written.

By default every benchmark writes its JSON under ``.bench_build/results/`` in
the repository (ignored by git), so a plain test run never rewrites the
tracked records.  ``REPRO_BENCH_DIR`` redirects the whole suite — CI jobs
point it at a scratch directory they upload as an artifact, and a deliberate
run updates the tracked records at the repository root::

    REPRO_BENCH_DIR=. PYTHONPATH=src python -m pytest benchmarks/

The directory is created on first use.  Relative paths resolve against the
current working directory.
"""

from __future__ import annotations

import os
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
_DEFAULT_DIR = _REPO_ROOT / ".bench_build" / "results"


def bench_dir() -> Path:
    """The directory results go to: ``$REPRO_BENCH_DIR`` or ``.bench_build/results``."""
    override = os.environ.get("REPRO_BENCH_DIR", "").strip()
    return Path(override).resolve() if override else _DEFAULT_DIR


def results_path(name: str) -> Path:
    """Absolute path for one result file, creating the directory if needed."""
    directory = bench_dir()
    directory.mkdir(parents=True, exist_ok=True)
    return directory / name
