"""Benchmark result files stay out of the tracked tree unless asked for."""

from __future__ import annotations

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _bench_paths():
    spec = importlib.util.spec_from_file_location(
        "bench_paths", REPO_ROOT / "benchmarks" / "bench_paths.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_default_results_go_under_bench_build(monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_DIR", raising=False)
    path = _bench_paths().results_path("BENCH_x.json")
    assert path.is_relative_to(REPO_ROOT / ".bench_build")
    assert path.name == "BENCH_x.json"


def test_env_override_redirects_results(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
    assert _bench_paths().results_path("BENCH_x.json") == tmp_path / "BENCH_x.json"
