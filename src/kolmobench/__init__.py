"""Desk-scale workbench for approximating plain Kolmogorov complexity
with exhaustively enumerated small Turing machines."""

__version__ = "0.1.0"

# Not a re-export: callers import from the modules. Loading these first compiles
# halting.py, the largest module, before cli loads argparse, json, fractions and
# cache. That lowers the peak RSS of a run from source with no bytecode cache:
# `bb 2 --verify` on a 250k slice peaked at 16.0-16.3 MB, and at 16.8-17.1 MB
# with the line removed (CPython 3.11, x86-64 Linux).
from . import enumeration, estimator, halting, tm_core
