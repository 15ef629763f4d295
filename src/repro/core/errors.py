"""Process exit codes — the CLI's stable shell contract, as an enum.

Every ``repro`` subcommand maps its typed failures
(:mod:`repro.net.errors`) onto these codes; scripts and CI jobs branch on
them, so the numbers are frozen across releases.  They were previously
scattered as module constants in :mod:`repro.cli`; consolidating them
here gives the service layer (``repro serve``) and the tests one shared
spelling.

========  =====================================================
Code      Meaning
========  =====================================================
0         success
2         invalid configuration (``ConfigError``; argparse usage
          errors also exit 2)
3         phase-ordering violation (``PhaseOrderError``)
4         failed supervised task or unhandled injected fault
          (``TaskFailure``, ``FaultError``)
5         structural invariant violation (``repro validate``,
          ``ValidationError``)
6         control-service failure (``repro serve``, ``ServeError``)
7         retired; never reused
========  =====================================================
"""

from __future__ import annotations

from enum import IntEnum

__all__ = ["ExitCode"]


class ExitCode(IntEnum):
    """Stable CLI exit codes (see the table in the module docstring)."""

    OK = 0
    CONFIG = 2
    PHASE_ORDER = 3
    TASK_FAILURE = 4
    VALIDATION = 5
    SERVE = 6

    def __str__(self) -> str:  # "2", not "ExitCode.CONFIG", in messages
        return str(self.value)
