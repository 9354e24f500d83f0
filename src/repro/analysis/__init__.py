"""reprolint: project-specific static analysis and a dynamic lock checker.

Run the linter over the package (exit 0 = clean, 1 = findings)::

    python -m repro.analysis                # lints src/repro
    python -m repro.analysis path.py dir/   # explicit targets
    python -m repro.analysis --select lock-discipline,determinism
    python -m repro.analysis --list-rules

The rules guard invariants no other gate checks; unused imports,
annotations and ``__all__`` resolution are CI's ``ruff`` and
``mypy --strict``, docstrings and export lists ``tests/test_docstrings.py``.

Per-module rules (see each ``rules_*`` module for the rationale):

======================  =================================================
``lock-discipline``     attributes mutated under ``with self._lock`` are
                        only touched under it
``exception-taxonomy``  ``repro/db/`` raises only ``DatabaseError``
                        subclasses; no bare/broad excepts outside the
                        sanctioned resilience fallback sites
``determinism``         no unseeded randomness, wall-clock reads, or
                        set-order iteration on the match path
======================  =================================================

Whole-program rules (built on the call graph in
:mod:`repro.analysis.callgraph`; see :mod:`repro.analysis.rules_interproc`):

=========================  ==============================================
``blocking-under-lock``    no call under ``with self.<lock>:`` may
                           transitively reach blocking I/O
``deadline-propagation``   deadline/timeout/budget parameters flow into
                           every callee that accepts one
``resource-leak``          sockets/fds released or handed off on all
                           paths; semaphore tokens never silently dropped
``durability-ordering``    ``db/wal.py`` append/fsync discipline (COMMIT
                           then fsync; checkpoint writes then inner sync)
=========================  ==============================================

The package exports nothing: the linter lives in
:mod:`repro.analysis.framework` (whose ``registry()`` imports the rule
modules on first use) and the dynamic half —
:class:`~repro.analysis.debuglock.DebugLock`, enabled by
``REPRO_DEBUG_LOCKS=1`` — in :mod:`repro.analysis.debuglock`, the one
module the engine imports.
"""
