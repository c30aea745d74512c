"""repro.lint — the project's AST-based invariant checker.

PRs 1–5 built the system's correctness story on *conventions*: one
cache-key derivation, bit-identical worker pools, frozen configs,
declarative experiment specs.  This package checks those conventions
mechanically so the ROADMAP's "refactor freely" policy stays safe — a
refactor that would silently break a cache key, reintroduce
nondeterminism or reach past the public surface fails ``repro-lint``
(and therefore tier-1, via ``tests/test_lint_clean.py``, and CI's
``static-analysis`` job) before it can land.

Running it
----------
::

    python -m repro.lint [paths ...]      # default: src benchmarks examples
    repro-lint --format=json src/         # machine-readable (CI artifact)
    repro-lint --rules R1,R3 --strict     # subset; warnings fail too

Exit status 0 = clean, 1 = findings at the failing severity, 2 = usage
error.  The linter never imports the code it checks — everything is
AST-derived, so it runs on broken or partially-refactored trees.

Rule catalogue
--------------
(``R4`` is retired: it contained the pre-config compatibility shims,
which are gone.  The other IDs keep their numbers.)

``R1`` cache-key-completeness
    Every ``SimRankConfig`` field appears in ``cache_key_fields()`` or
    in the justified ``CACHE_KEY_EXEMPT`` set (``repro/config.py``).
    Protects: one operator-cache key derivation; a field added without a
    keying decision would silently serve stale operators across configs.
``R2`` frozen-config-discipline
    No attribute assignment and no non-``self`` ``object.__setattr__``
    on ``SimRankConfig`` / ``RunSpec`` / ``ExperimentSpec`` (or the other
    frozen configs) outside their defining modules.  Protects: configs
    stay immutable, shareable and safe to hash into cache keys.
``R3`` determinism
    No ``np.random.*`` global-state calls, ``random.*`` module
    functions, ``time.time()`` or bare set iteration in
    ``repro/simrank/engine.py``, ``repro/experiments/engine.py``,
    ``repro/serve/service.py`` or any registered experiment cell
    runner.  Protects: the bit-identical guarantee of the LocalPush
    engine (every worker count, same bytes) and of the experiment sweep
    (a cell's record is the same on every run, so a stored one stands in
    for a fresh one), and the serving layer's batched-equals-solo answer
    guarantee.
``R5`` registry-consistency
    ``@experiment`` registrations ↔ the ``EXPERIMENT_MODULES``
    lazy-import table stay bijective, every registration has a
    resolvable spec builder / cell runner, and the model registry's
    ``_REGISTRY`` / ``_DEFAULTS`` agree with the imports.  Protects:
    dispatch-by-name never NameErrors or silently drops an experiment.
``R6`` config-addressability
    Grid keys ``overrides.<p>`` / ``train.<f>`` / ``simrank.<f>`` in
    experiment modules name real fields of the target dataclasses.
    Protects: a typo'd sweep knob fails the linter, not hour two of the
    sweep.
``R7`` mutable-defaults-bare-except
    No mutable default arguments, no bare ``except:`` under ``repro/``.
``R8`` api-surface-imports
    ``examples/``, ``benchmarks/`` and the experiment spec builders
    import only the supported public surface (``repro``, ``repro.api``,
    ``repro.config``, ``repro.errors``, ``repro.experiments``,
    ``repro.datasets``, ``repro.graphs``, ``repro.serve``).  Protects:
    internals stay refactorable.

Pragmas
-------
Findings are suppressed with a justification comment at the exemption
site (rule IDs comma-separated; ``all`` matches every rule):

``# repro-lint: disable=R3`` — trailing on a line
    Suppresses the listed rules' findings reported *at that line*.
``# repro-lint: disable-file=R8`` — standalone comment line
    Suppresses the listed rules for the whole file; for files whose
    purpose is exactly what the rule forbids (e.g. the LocalPush
    micro-benchmark imports engine internals by design).
"""

from repro.lint.core import (
    Finding,
    Project,
    Rule,
    SourceFile,
    all_rules,
    get_rules,
    lint_paths,
    load_project,
    register,
    report_human,
    report_json,
    run_rules,
)

__all__ = [
    "Finding", "Project", "Rule", "SourceFile", "all_rules", "get_rules",
    "lint_paths", "load_project", "register", "report_human", "report_json",
    "run_rules",
]
