"""Invariant lint plane: static enforcement of the repo's contracts.

Every hard-won guarantee in this reproduction — bitwise digest anchors
for the ViFi medium, disjoint named RNG streams for the fault plane,
content-addressed store keys that must flip on any config-field
change, first-writer-wins lock discipline in the service — is backed
at runtime by tests that catch violations *after* they corrupt a run.
This package catches the same violations *before* they run, as
machine-checked rules over the AST (stdlib :mod:`ast`, no third-party
dependencies):

``RNG-DISCIPLINE``
    No ad-hoc RNG construction (``np.random.default_rng``,
    ``random.Random()``, module-level ``np.random.*``) anywhere in the
    simulation surface — all randomness flows through
    :mod:`repro.sim.rng` named streams, the invariant that keeps
    ``faults=None`` bitwise-identical to the committed digest anchors.
``WALL-CLOCK``
    No wall-clock or entropy reads (``time.time``, ``datetime.now``,
    ``uuid.uuid4``, ``os.urandom``, ``secrets``) in sim-core modules;
    only ``repro.service`` / ``repro.gateway`` (and tools, which are
    not part of the package) may touch real time.
``LOCK-GUARDED``
    Attributes annotated ``# guarded-by: _lock`` may only be read or
    written inside ``with self._lock`` — a static race detector for
    the class of bug PR 9 fixed at runtime.
``STORE-TOKEN``
    Config dataclasses on the result-store key surface must be
    per-field tokenizable (or define ``cache_token()``), so a new
    config field can never silently fail to flip a cache key.
``SILENT-EXCEPT``
    Broad exception handlers (bare / ``Exception`` / ``BaseException``)
    must re-raise or carry an allow pragma naming why degradation is
    safe at that site.
``BLOCKING-IN-ASYNC``
    No blocking calls (``time.sleep``, ``open``, sockets, subprocess)
    inside ``async def`` without ``asyncio.to_thread``.

Run it as ``python -m repro lint`` (``--json`` for tooling).  Findings
are suppressed per line with a mandatory-reason pragma::

    risky_line()  # repro-lint: allow[RULE-ID] why this is safe here

or grandfathered in a committed baseline file (``LINT_BASELINE.json``,
maintained with ``--write-baseline``).  ``INVARIANTS.md`` at the repo
root maps each rule to the runtime guard that backs it.
"""
