"""Test doubles shipped with the library.

:class:`~repro.testing.encoder_service.LoopbackEncoderService` is an
in-process HTTP encoding service that runs a real local backend behind
the TokenArray wire format — what integration tests (and the CI fleet
smoke) point the ``"remote"`` encoder backend at.
:class:`~repro.testing.encoder_service.FleetHarness` stands up several of
them (one optionally slow or fault-injected) behind a single context
manager for fleet-scheduling tests without real hosts.  Import both from
:mod:`repro.testing.encoder_service`: this package does not import that
module, so ``python -m repro.testing.encoder_service`` runs it once, as
``__main__``.
:class:`~repro.testing.chaos.ChaosPlan` composes every fault injector —
scheduler worker crashes, replica transport faults, torn cache
writes, parent kill-points — into one seeded, replayable plan, and
:func:`~repro.testing.chaos.assert_sweep_invariant` states the contract
chaos tests check: every sweep completes, degrades with named failures,
or resumes bit-identically — never hangs, never silently drops a cell.
"""

from repro.testing.chaos import (
    ChaosPlan,
    assert_sweep_invariant,
    count_journal_cells,
    count_service_cells,
    kill_when_journal_reaches,
    kill_when_service_reaches,
)

__all__ = [
    "ChaosPlan",
    "assert_sweep_invariant",
    "count_journal_cells",
    "count_service_cells",
    "kill_when_journal_reaches",
    "kill_when_service_reaches",
]
