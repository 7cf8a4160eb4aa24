"""Desk-scale workbench for approximating plain Kolmogorov complexity
with exhaustively enumerated small Turing machines."""

__version__ = "0.1.0"

from .enumeration import (
    MachineRange,
    cantor_pair,
    cantor_unpair,
    index_to_machine,
    machine_count,
    machine_to_index,
    nat_to_str,
    str_to_nat,
    strlen_of_nat,
)
from .estimator import PhiResult, ProgramPair, applicable_set, phi, phi_profile, upper_bound_C
from .halting import BBRecord, analyze_table, bb_table, verify_certificate
from .tm_core import Machine, encode_index, decode_program, run, u_run

__all__ = [
    "BBRecord",
    "Machine",
    "MachineRange",
    "PhiResult",
    "ProgramPair",
    "analyze_table",
    "applicable_set",
    "bb_table",
    "cantor_pair",
    "cantor_unpair",
    "decode_program",
    "encode_index",
    "index_to_machine",
    "machine_count",
    "machine_to_index",
    "nat_to_str",
    "phi",
    "phi_profile",
    "run",
    "str_to_nat",
    "strlen_of_nat",
    "u_run",
    "upper_bound_C",
    "verify_certificate",
]
