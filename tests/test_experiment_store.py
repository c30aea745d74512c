"""Unit tests for the resumable experiment ArtifactStore."""

import json
from pathlib import Path

import pytest

from repro.config import ExperimentSpec, RunSpec
from repro.errors import ArtifactError
from repro.experiments.engine import execute
from repro.experiments.registry import ExperimentDefinition, get_experiment
from repro.experiments.store import (
    STORE_FORMAT_VERSION,
    ArtifactStore,
    runner_name,
)
from repro.graphs.fingerprint import payload_digest


def demo_runner(cell):  # pragma: no cover - identity, never executed
    return {}


def other_runner(cell):  # pragma: no cover - identity, never executed
    return {}


def index_runner(cell):
    return {"index": cell.index}


@pytest.fixture()
def spec():
    return ExperimentSpec(
        name="demo", base=RunSpec(model="sigma", dataset="texas", repeats=1),
        grid=({"dataset": "texas"}, {"dataset": "cora"}),
        params={"num_pairs": 10})


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


class TestKeys:
    def test_key_deterministic(self, store, spec):
        cells = spec.cells()
        assert store.key_for(cells[0], demo_runner) == store.key_for(
            cells[0], demo_runner)

    def test_key_varies_with_cell(self, store, spec):
        first, second = spec.cells()
        assert store.key_for(first, demo_runner) != store.key_for(
            second, demo_runner)

    def test_key_varies_with_runner(self, store, spec):
        cell = spec.cells()[0]
        assert store.key_for(cell, demo_runner) != store.key_for(
            cell, other_runner)

    def test_key_ignores_experiment_name_and_reduction(self, store, spec):
        """Two experiments sharing cells (fig2/table2) share records."""
        relabelled = spec.with_overrides(name="other", reduction={"bins": 9})
        assert store.key_for(spec.cells()[0], demo_runner) == store.key_for(
            relabelled.cells()[0], demo_runner)

    def test_a_paper_cell_keeps_its_key(self, store):
        """A stored cell is found by this key: a change to how a spec
        serialises would orphan every cell already on disk."""
        fig6 = get_experiment("fig6")
        cell = fig6.default_spec().cells()[0]
        assert store.key_for(cell, fig6.cell) == \
            "18705fbc8ef9c95cbd55a25871e4229f"

    def test_runner_name_is_qualified(self):
        assert runner_name(demo_runner).endswith(
            "test_experiment_store.demo_runner")


class TestCellRoundTrip:
    def test_store_then_load(self, store, spec):
        cell = spec.cells()[0]
        key = store.key_for(cell, demo_runner)
        store.store_cell(key, cell, demo_runner, {"value": 1.5},
                         experiment="demo", seconds=0.25)
        record = store.load_cell(key, cell, demo_runner)
        assert record == {"value": 1.5}
        assert len(store) == 1

    def test_missing_key_is_miss(self, store, spec):
        cell = spec.cells()[0]
        assert store.load_cell("0" * 32, cell, demo_runner) is None

    def test_corrupt_record_evicted(self, store, spec):
        cell = spec.cells()[0]
        key = store.key_for(cell, demo_runner)
        store.store_cell(key, cell, demo_runner, {"value": 1}, experiment="demo")
        store.cell_path(key).write_text("{ not json")
        assert store.load_cell(key, cell, demo_runner) is None
        assert not store.cell_path(key).exists()

    def test_version_mismatch_evicted(self, store, spec):
        cell = spec.cells()[0]
        key = store.key_for(cell, demo_runner)
        store.store_cell(key, cell, demo_runner, {"value": 1}, experiment="demo")
        payload = json.loads(store.cell_path(key).read_text())
        payload["version"] = STORE_FORMAT_VERSION + 1
        store.cell_path(key).write_text(json.dumps(payload))
        assert store.load_cell(key, cell, demo_runner) is None
        assert not store.cell_path(key).exists()

    def test_parameter_mismatch_evicted(self, store, spec):
        """A hand-edited or colliding file never serves a different cell."""
        first, second = spec.cells()
        key = store.key_for(first, demo_runner)
        store.store_cell(key, first, demo_runner, {"value": 1}, experiment="demo")
        # Same file requested for a different cell under the same key.
        assert store.load_cell(key, second, demo_runner) is None
        assert not store.cell_path(key).exists()

    def test_runner_mismatch_evicted(self, store, spec):
        cell = spec.cells()[0]
        key = store.key_for(cell, demo_runner)
        store.store_cell(key, cell, demo_runner, {"value": 1}, experiment="demo")
        assert store.load_cell(key, cell, other_runner) is None
        assert not store.cell_path(key).exists()

    def test_clear_removes_everything(self, store, spec):
        for cell in spec.cells():
            key = store.key_for(cell, demo_runner)
            store.store_cell(key, cell, demo_runner, {}, experiment="demo")
        assert store.clear() == 2
        assert len(store) == 0


def write_format1_store(directory, cells, cell_runner):
    """Cell files plus the ``experiment-store-index.json`` manifest, as
    stores of format 1 were written before the manifest was dropped."""
    directory.mkdir()
    runner = runner_name(cell_runner)
    entries = {}
    for cell in cells:
        key = payload_digest({"version": 1, "runner": runner,
                              "spec": cell.spec.to_dict(),
                              "params": cell.params})
        path = directory / f"cell-{key}.json"
        path.write_text(json.dumps({
            "version": 1, "experiment": "demo", "runner": runner,
            "spec": cell.spec.to_dict(), "params": cell.params,
            "seconds": 0.5, "record": {"index": cell.index},
        }, sort_keys=True, default=str))
        entries[key] = {"experiment": "demo", "runner": runner,
                        "seconds": 0.5, "bytes": path.stat().st_size}
    manifest = directory / "experiment-store-index.json"
    manifest.write_text(json.dumps({"version": 1, "entries": entries},
                                   sort_keys=True))
    return manifest


class TestFormat1Store:
    @pytest.mark.parametrize("stored", [2, 1], ids=["all", "one"])
    def test_resumes_stored_cells_and_leaves_the_manifest_alone(
            self, tmp_path, spec, monkeypatch, stored):
        """Every stored cell resumes; a fresh cell adds its cell file and
        nothing else; the manifest is neither read nor rewritten."""
        directory = tmp_path / "store"
        cells = spec.cells()
        manifest = write_format1_store(directory, cells[:stored],
                                       index_runner)
        before = (manifest.read_bytes(), manifest.stat().st_mtime_ns)
        listed = {path.name for path in directory.iterdir()}

        read = []
        read_text = Path.read_text

        def recording_read_text(path, *args, **kwargs):
            read.append(path.name)
            return read_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", recording_read_text)
        definition = ExperimentDefinition(
            name="demo", title="Demo", builder=lambda: spec,
            reduce=lambda spec, outcomes: [o.record for o in outcomes],
            cell=index_runner)
        run = execute(spec, definition=definition, store=str(directory))
        monkeypatch.undo()

        assert (run.cells_resumed, run.cells_executed) == (stored, 2 - stored)
        assert run.result == [{"index": 0}, {"index": 1}]
        assert manifest.name not in read
        assert (manifest.read_bytes(), manifest.stat().st_mtime_ns) == before
        store = ArtifactStore(directory)
        fresh = {store.cell_path(store.key_for(cell, index_runner)).name
                 for cell in cells[stored:]}
        added = {path.name for path in directory.iterdir()} - listed
        assert added == fresh | {"experiment-demo.json",
                                 "experiment-demo.json.lock"}


class TestArtifacts:
    def test_append_accumulates_records(self, store):
        store.append_artifact("demo", {"rows": [1]})
        store.append_artifact("demo", {"rows": [2]})
        records = json.loads(store.artifact_path("demo").read_text())
        assert [r["rows"] for r in records] == [[1], [2]]
        assert all(r["artifact_version"] == STORE_FORMAT_VERSION
                   for r in records)

    def test_corrupt_artifact_preserved_not_overwritten(self, store):
        store.artifact_path("demo").write_text("{ not a list")
        store.append_artifact("demo", {"rows": []})
        assert store.artifact_path("demo").with_suffix(".json.corrupt").exists()
        records = json.loads(store.artifact_path("demo").read_text())
        assert len(records) == 1


class TestRegistry:
    def test_unwritable_directory_raises(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        with pytest.raises(ArtifactError):
            ArtifactStore(blocker / "store")
