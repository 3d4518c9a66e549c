"""Experiment harness: programmatic regeneration of the paper's tables.

The benchmarks under ``benchmarks/`` are thin pytest wrappers around this
subpackage; users can run the same comparisons from their own code:

>>> from repro.experiments import run_method_comparison
>>> rows = run_method_comparison("oag_like", ["prone+", "lightne"],
...                              ratios=(0.1,), dimension=16, window=3,
...                              multiplier=1.0)   # doctest: +SKIP
"""

from repro.experiments.runner import format_table, run_method_comparison

__all__ = ["format_table", "run_method_comparison"]
