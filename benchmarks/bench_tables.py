"""Shared helpers for the benchmark harness.

Each ``benchmarks/test_eN_*.py`` pairs one experiment with a benchmark of
the computation that drives it: the experiment's tables are generated
once and printed (even under pytest's capture, so the regenerated rows
always appear in ``bench_output.txt``), and pytest-benchmark times the
core routine.

The module has its own name rather than living in a ``conftest.py``:
``tests/conftest.py`` is imported as the top-level module ``conftest``,
and a second one here would shadow it when ``pytest tests benchmarks``
collects both directories in one session.
"""

from __future__ import annotations

from typing import List

from repro.analysis.reporting import Table


def show_tables(capsys, tables: List[Table]) -> None:
    """Print experiment tables, bypassing pytest output capture."""
    with capsys.disabled():
        print()
        for table in tables:
            print(table.format())
            print()
