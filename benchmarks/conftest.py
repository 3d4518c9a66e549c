"""Benchmark-harness plumbing.

Each ``bench_e*.py`` file reproduces one table or figure from the paper
(see DESIGN.md's experiment index).  Benchmarks time the real pipelines with
pytest-benchmark and emit the paper-style rows through :func:`report_table`,
which prints them in the terminal summary (so they survive pytest's output
capture).  Benchmarks write no file in the checkout; EXPERIMENTS.md holds
the committed tables.
"""

from __future__ import annotations

from typing import Dict, List

import pytest

_TABLES: List[str] = []


def report_table(title: str, rows: List[Dict[str, object]]) -> str:
    """Format ``rows`` with the library's table renderer and queue the block
    for the terminal summary.  Returns the formatted text."""
    from repro.experiments import format_table

    text = format_table(rows)
    _TABLES.append(f"\n=== {title} ===\n{text}\n")
    return text


@pytest.fixture
def table():
    """Fixture handle for benchmarks to publish result tables."""
    return report_table


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _TABLES:
        return
    terminalreporter.section("paper-table reproductions")
    for block in _TABLES:
        terminalreporter.write(block)
