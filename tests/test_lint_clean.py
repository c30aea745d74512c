"""Tier-1 gate: the merged tree is ``repro.lint``-clean.

The first test is the enforcement point — every rule over every checked
tree, zero findings.  The mutation tests then prove the gate has teeth:
they copy *live* sources into a scratch tree, re-introduce the exact
regressions the rules were written against, and assert the rule fires.
A refactor that accidentally lobotomises R1 or R3 fails here even though
the clean tree still passes.  Last, the ``src`` tree must not regain any
name of the deleted compatibility layer, execution axes, second
counting mechanism, second top-k path or serve-stack switches.
"""

from __future__ import annotations

import functools
import re
import shutil
from pathlib import Path

import pytest

from repro.lint import all_rules, lint_paths

REPO_ROOT = Path(__file__).resolve().parents[1]
CHECKED_TREES = ("src", "benchmarks", "examples")


def lint_repo(rule_ids=None):
    paths = [REPO_ROOT / tree for tree in CHECKED_TREES]
    return lint_paths([path for path in paths if path.exists()],
                      rule_ids=rule_ids, root=REPO_ROOT)


def copy_live(tmp_path: Path, relpath: str) -> Path:
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(REPO_ROOT / "src" / relpath, target)
    return target


def test_tree_is_lint_clean():
    findings = lint_repo()
    assert findings == [], "\n" + "\n".join(
        finding.render() for finding in findings)


def test_all_rules_are_loaded():
    # R4 (deprecation containment) is retired with the shims it
    # contained; the other rule IDs keep their numbers.
    assert {rule.id for rule in all_rules()} == {
        "R1", "R2", "R3", "R5", "R6", "R7", "R8"}


def test_r1_fires_when_live_config_gains_unkeyed_field(tmp_path):
    """Regression: adding a SimRankConfig field without deciding whether it
    is cache-keyed must trip R1 — on the real config.py, not a fixture."""
    target = copy_live(tmp_path, "repro/config.py")
    source = target.read_text()
    anchor = "cache_max_bytes: Optional[int] = None"
    assert anchor in source
    target.write_text(source.replace(
        anchor, anchor + "\n    brand_new_knob: int = 0", 1))
    findings = lint_paths([tmp_path], rule_ids=["R1"], root=tmp_path)
    assert [finding.rule for finding in findings] == ["R1"]
    assert "brand_new_knob" in findings[0].message


def test_r1_clean_on_unmodified_live_config(tmp_path):
    copy_live(tmp_path, "repro/config.py")
    assert lint_paths([tmp_path], rule_ids=["R1"], root=tmp_path) == []


def test_r3_fires_on_global_rng_in_live_engine(tmp_path):
    """Regression: a ``np.random`` call sneaking into the LocalPush engine
    (the core of the bit-identical run guarantee) must trip R3."""
    target = copy_live(tmp_path, "repro/simrank/engine.py")
    target.write_text(target.read_text() +
                      "\n\ndef _mutant():\n    return np.random.rand(3)\n")
    findings = lint_paths([tmp_path], rule_ids=["R3"], root=tmp_path)
    assert [finding.rule for finding in findings] == ["R3"]


def test_r3_clean_on_unmodified_live_engine(tmp_path):
    copy_live(tmp_path, "repro/simrank/engine.py")
    assert lint_paths([tmp_path], rule_ids=["R3"], root=tmp_path) == []


# The pre-config keyword relay, the ``backend`` labels, the ``kernel``
# ladder, the ``executor`` axis (with the process pool behind it) and the
# ``workers`` axis (with the frontier shards and the thread pool) were
# deleted with the code that hosted them; one config path reaches one
# LocalPush engine, which has no execution setting.  None of their names
# may come back.
REMOVED_NAMES = {
    "UNSET": r"\bUNSET\b",
    "merge_kwargs": r"\bmerge_\w+_kwargs\b",
    "legacy_run": r"\blegacy_run\b",
    "localpush_vec": r"\blocalpush_vec\b",
    "sharded_module": r"\brepro\.simrank\.sharded\b",
    "SIMRANK_BACKENDS": r"\bSIMRANK_BACKENDS\b",
    "SIMRANK_KERNELS": r"\bSIMRANK_KERNELS\b",
    "numba": r"(?i)numba",
    "resolve_backend": r"\bresolve_backend\b",
    "backend_label": r"\bbackend_label\b",
    "DeprecationWarning": r"\bDeprecationWarning\b",
    "SIMRANK_EXECUTORS": r"\bSIMRANK_EXECUTORS\b",
    "component_nodes": r"\bcomponent_nodes\b",
    "resolve_executor": r"\bresolve_executor\b",
    "wants_triplets": r"\bwants_triplets\b",
    "resource_tracker": r"\bresource_tracker\b",
    "shared_memory": r"\bshared_memory\b",
    "ProcessPoolExecutor": r"\bProcessPoolExecutor\b",
    "EXECUTORS": r"\bEXECUTORS\b",
    # The experiment sweep runs its cells in the calling thread and keeps
    # one cell-<key>.json per cell: no manifest, no per-directory memo.
    "get_artifact_store": r"\bget_artifact_store\b",
    "experiment-store-index": r"experiment-store-index",
    # One counting mechanism: engine phases are tracer spans, cache
    # events and serve latency are registry instruments.
    "PhaseProfile": r"\bPhaseProfile\b",
    "TracingPhaseProfile": r"\bTracingPhaseProfile\b",
    "phase_profile": r"\bphase_profile\b",
    "record_complete": r"\brecord_complete\b",
    "add_recorder": r"\badd_recorder\b",
    "attach_telemetry": r"\battach_telemetry\b",
    "LATENCY_WINDOW": r"\bLATENCY_WINDOW\b",
    "phase_prefix": r"\bphase[_-]prefix\b",
    # Reads slice a graph version's shared rows: the coalescing window,
    # its batch cap and its counter went with the leader/follower queue.
    "batch_window": r"\bbatch[_-]window",
    "max_batch_size": r"\bmax[_-]batch[_-]size\b",
    "coalesced": r"\bcoalesced\b",
    "window_seconds": r"\bwindow_seconds\b",
    "leader_active": r"\b_leader_active\b",
    # Top-k runs once, after the LocalPush loop: no in-loop streaming
    # prune, and the single pair is read through repro.api.score.
    "stream_top_k": r"\bstream_top_k\b",
    "streaming_prune": r"\bstreaming_prune\b",
    "single_pair_localpush": r"\bsingle_pair_localpush\b",
    # A repaired snapshot is cached under the key of the graph it
    # describes: no delta-chain key, no per-operator update chain.
    "delta_key_for": r"\bdelta_key_for\b",
    "lookup_delta": r"\blookup_delta\b",
    "from_chain": r"\bfrom_chain\b",
    "content_hash": r"\bcontent_hash\b",
    "DELTA_FORMAT_VERSION": r"\bDELTA_FORMAT_VERSION\b",
    "chain_length": r"\bchain_length\b",
    "chain_write": r"\bchain_write\b",
    # Each LocalPush round is one push of its whole frontier in the
    # calling thread: no worker count, shard plan, thread pool or
    # coalescing cadence.
    "workers": r"\bworkers\b",
    "num_workers": r"\bnum_workers\b",
    "num_shards": r"\bnum_shards\b",
    "coalesce_every": r"\bcoalesce_every\b",
    "copy_residual": r"\bcopy_residual\b",
    "ThreadPoolExecutor": r"\bThreadPoolExecutor\b",
    "resolve_workers": r"\bresolve_workers\b",
    "AUTO_SHARDED_MIN_NODES": r"\bAUTO_SHARDED_MIN_NODES\b",
    "shard_bounds": r"\bshard_bounds\b",
    "RoundRunner": r"\bRoundRunner\b",
    # The serve stack runs one way: every update lands before it answers,
    # every ladder rung runs, an operator with a cache always stores its
    # snapshot, and a failed write has one channel (write_error).
    "background_repair": r"\bbackground_repair\b",
    "store_repaired": r"\bstore_repaired\b",
    "exact_enabled": r"\bexact_enabled\b",
    "serve_cached_rows": r"\bserve_cached_rows\b",
    "CLI_SWITCHES": r"\bCLI_SWITCHES\b",
    "on_write_error": r"\bon_write_error\b",
    "_record_write_error": r"\b_record_write_error\b",
}


@functools.lru_cache(maxsize=None)
def src_lines():
    lines = []
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        relpath = path.relative_to(REPO_ROOT)
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            lines.append((f"{relpath}:{lineno}", line))
    return tuple(lines)


@pytest.mark.parametrize("pattern", list(REMOVED_NAMES.values()),
                         ids=list(REMOVED_NAMES))
def test_src_has_no_removed_compatibility_name(pattern):
    regex = re.compile(pattern)
    hits = [where for where, line in src_lines() if regex.search(line)]
    assert hits == []


def test_telemetry_does_not_import_simrank():
    """The instrumented layers import telemetry, never the reverse."""
    regex = re.compile(r"^\s*(from|import)\s+repro\.simrank\b")
    hits = [where for where, line in src_lines()
            if where.startswith("src/repro/telemetry/") and regex.search(line)]
    assert hits == []
