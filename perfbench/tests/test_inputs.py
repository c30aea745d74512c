"""The seeded input generators: pure functions of the seed, always valid."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.registry import load_dataset
from repro.graphs.delta import DELTA_KINDS

from perfbench.inputs import (EDITS_PER_BATCH, TOPK_SHARE, checked_sources,
                              popularity_order, read_mix, update_stream,
                              zipf_sources)


@pytest.fixture(scope="module")
def graph():
    return load_dataset("pokec", seed=0, scale_factor=0.05,
                        cache=False).graph


def _stream_dicts(seed, graph, count):
    return [batch.to_dict() for batch in update_stream(seed, graph, count)]


def test_same_seed_same_reads():
    assert read_mix(7, 500, 300, stream=1) == read_mix(7, 500, 300, stream=1)
    assert np.array_equal(zipf_sources(7, 500, 300), zipf_sources(7, 500, 300))
    assert checked_sources(7, 500) == checked_sources(7, 500)


def test_seed_and_stream_change_the_reads():
    assert read_mix(7, 500, 300) != read_mix(8, 500, 300)
    assert read_mix(7, 500, 300, stream=0) != read_mix(7, 500, 300, stream=1)


def test_sources_are_zipf_popular_over_the_seeded_order():
    order = popularity_order(3, 400)
    sources = zipf_sources(3, 400, 20000)
    counts = np.bincount(sources, minlength=400)
    assert counts[order[0]] == counts.max()
    assert counts[order[:10]].sum() > counts[order[-200:]].sum()
    assert set(checked_sources(3, 400)) <= set(order[:32].tolist())


def test_read_mix_shares_and_ranges():
    reads = read_mix(5, 300, 5000)
    topk = [read for read in reads if read.kind == "topk"]
    assert abs(len(topk) / len(reads) - TOPK_SHARE) < 0.03
    for read in reads:
        assert 0 <= read.u < 300
        assert (read.v is None) == (read.kind == "topk")
        if read.v is not None:
            assert 0 <= read.v < 300


def test_same_seed_same_update_stream(graph):
    assert _stream_dicts(4, graph, 50) == _stream_dicts(4, graph, 50)
    assert _stream_dicts(4, graph, 50) != _stream_dicts(5, graph, 50)


def test_every_generated_batch_applies_cleanly(graph):
    before = np.diff(graph.adjacency.indptr)
    kinds = set()
    current = graph
    for batch in update_stream(9, graph, 200):
        assert len(batch) == EDITS_PER_BATCH
        pairs = [(delta.u, delta.v) for delta in batch]
        assert len(set(pairs)) == len(pairs)
        kinds.update(delta.kind for delta in batch)
        current = current.apply_delta(batch)  # raises on an invalid delta
    assert kinds == set(DELTA_KINDS)
    after = np.diff(current.adjacency.indptr)
    assert not np.any((before > 0) & (after == 0))


def test_stream_prefix_is_stable(graph):
    assert _stream_dicts(2, graph, 10) == _stream_dicts(2, graph, 30)[:10]
