"""Tests for the declarative experiment harness.

Covers the registry + sweep engine end to end at reduced scale (every
registered experiment runs), the resumable store wiring, the runner CLI,
and the ``common.py`` training-config derivation.
"""

import json

import pytest

from repro.config import ExperimentSpec, SimRankConfig
from repro.errors import ExperimentError
from repro.experiments import (
    ArtifactStore,
    build_spec,
    common,
    execute,
    get_experiment,
    list_experiments,
    run_experiment,
)
from repro.experiments import (
    fig1_aggregation_maps,
    fig2_score_densities,
    fig4_convergence,
    fig5_scalability,
    fig6_epsilon_topk,
    fig7_topk_tradeoff,
    fig8_grouping,
    table2_simrank_stats,
    table3_complexity,
    table5_accuracy,
    table7_learning_time,
    table8_ablation,
    table9_delta,
    table10_alpha,
    table11_iterative,
)
from repro.experiments.registry import EXPERIMENT_MODULES
from repro.experiments.runner import main as runner_main
from repro.training.config import TrainConfig

SMOKE_CONFIG = TrainConfig(max_epochs=15, patience=10, min_epochs=2,
                           track_test_history=False)

#: Even smaller protocol for the 15-way every-experiment sweep.
TINY_CONFIG = TrainConfig(max_epochs=8, patience=5, min_epochs=2,
                          track_test_history=False)

#: Protocol of the paper-claim checks: short, but long enough for the
#: relative ordering between models to emerge.
CLAIM_CONFIG = TrainConfig(learning_rate=0.01, weight_decay=1e-3,
                           max_epochs=40, patience=20,
                           track_test_history=False)

#: Wall-clock row fields — reproducible runs produce identical rows except
#: for these.
TIMING_KEYS = {"precompute", "learn", "runtime", "aggregation", "pre", "agg",
               "time_to_95pct", "total_time"}

MODULES = {
    "fig1": fig1_aggregation_maps,
    "table2": table2_simrank_stats,
    "fig2": fig2_score_densities,
    "table3": table3_complexity,
    "table5": table5_accuracy,
    "table7": table7_learning_time,
    "fig4": fig4_convergence,
    "fig5": fig5_scalability,
    "fig6": fig6_epsilon_topk,
    "fig7": fig7_topk_tradeoff,
    "table8": table8_ablation,
    "table9": table9_delta,
    "table10": table10_alpha,
    "fig8": fig8_grouping,
    "table11": table11_iterative,
}

#: Reduced-scale arguments of the per-experiment runs.
REDUCED_KWARGS = {
    "fig1": dict(dataset_name="texas", num_centers=4),
    "table2": dict(datasets=("texas",), num_pairs=1000),
    "fig2": dict(datasets=("texas",), bins=10),
    "table3": dict(dataset_name="pokec", scale_factor=0.25),
    "table5": dict(datasets=("texas",), models=("mlp", "sigma"),
                   num_repeats=1, config=TINY_CONFIG, tune=False),
    "table7": dict(datasets=("genius",), models=("linkx", "sigma"),
                   num_repeats=1, scale_factor=0.2, config=TINY_CONFIG),
    "fig4": dict(datasets=("genius",), models=("sigma",), scale_factor=0.2,
                 config=TINY_CONFIG),
    "fig5": dict(num_sizes=1, base_scale=0.05, config=TINY_CONFIG),
    "fig6": dict(dataset_name="texas", epsilons=(0.1,), top_ks=(8,),
                 num_repeats=1, config=TINY_CONFIG),
    "fig7": dict(dataset_name="texas", top_ks=(8,), num_repeats=1,
                 config=TINY_CONFIG),
    "table8": dict(datasets=("texas",), num_repeats=1, config=TINY_CONFIG),
    "table9": dict(datasets=("texas",), deltas=(0.5,), num_repeats=1,
                   config=TINY_CONFIG),
    "table10": dict(datasets=("genius",), num_repeats=1, scale_factor=0.2,
                    config=TINY_CONFIG),
    "fig8": dict(datasets=("texas",), config=TINY_CONFIG, num_pairs=1000),
    "table11": dict(datasets=("texas",), layers=(1,), num_repeats=1,
                    config=TINY_CONFIG),
}


def deterministic_rows(result):
    """``result.rows()`` with the wall-clock fields stripped."""
    return [{key: value for key, value in row.items()
             if key not in TIMING_KEYS} for row in result.rows()]


def cell_counts(store_dir, name):
    """``(cells_resumed, cells_executed)`` of every run record ``name``
    appended to the store's artefact file, oldest first."""
    records = json.loads((store_dir / f"experiment-{name}.json").read_text())
    return [(record["cells_resumed"], record["cells_executed"])
            for record in records]


class TestCommonUtilities:
    def test_format_table_renders_columns(self):
        text = common.format_table([{"a": 1, "b": 2.5}, {"a": 3, "b": 4.0}])
        assert "a" in text and "b" in text
        assert "2.50" in text

    def test_format_table_empty(self):
        assert common.format_table([]) == "(no rows)"

    def test_mean_and_std(self):
        mean, std = common.mean_and_std([1.0, 3.0])
        assert mean == pytest.approx(2.0)
        assert std == pytest.approx(1.0)

    def test_tune_hyperparameters_returns_grid_entry(self, small_dataset):
        chosen = common.tune_hyperparameters(
            "sigma", small_dataset, grid=[{"delta": 0.3}, {"delta": 0.7}],
            config=SMOKE_CONFIG, base_overrides={"simrank": SimRankConfig(top_k=8),
                            "hidden": 16})
        assert chosen["delta"] in (0.3, 0.7)
        assert chosen["simrank"].top_k == 8

    def test_tune_single_candidate_short_circuits(self, small_dataset):
        chosen = common.tune_hyperparameters("linkx", small_dataset)
        assert chosen == {}

    def test_experiment_config_derived_from_trainconfig(self):
        """The shared numbers live once on TrainConfig; only the pinned
        paper-protocol divergences differ (weight decay, patience, and the
        history flag)."""
        base = TrainConfig()
        cfg = common.DEFAULT_EXPERIMENT_CONFIG
        diverged = {
            name for name in ("learning_rate", "weight_decay", "max_epochs",
                              "patience", "optimizer", "momentum",
                              "min_epochs", "track_test_history")
            if getattr(cfg, name) != getattr(base, name)
        }
        assert diverged == {"weight_decay", "patience", "track_test_history"}
        assert cfg.weight_decay == 1e-3
        assert cfg.patience == 60

    def test_quick_config_is_default_with_shorter_budget(self):
        assert common.QUICK_EXPERIMENT_CONFIG == (
            common.DEFAULT_EXPERIMENT_CONFIG.with_overrides(
                max_epochs=60, patience=25))


class TestAnalyticalExperiments:
    def test_table2(self):
        result = run_experiment("table2", datasets=("texas",), num_pairs=2000,
                                print_result=False)
        assert "texas" in result.stats
        assert result.stats["texas"].num_intra_pairs > 0

    def test_fig2(self):
        result = run_experiment("fig2", datasets=("texas",), bins=10,
                                print_result=False)
        assert "texas" in result.histograms

    def test_fig1(self):
        result = run_experiment("fig1", "texas", num_centers=5,
                                print_result=False)
        assert result.mean_same_label_mass("simrank") > 0.0
        assert len(result.rows()) > 0

    def test_table3(self):
        # Use a large-regime graph: SIGMA's O(k n f) only wins once k·n ≪ m.
        result = run_experiment("table3", "pokec", scale_factor=0.25,
                                print_result=False)
        assert result.cheapest_model() == "SIGMA"
        assert len(result.entries) == 6
        assert {"SIGMA", "GloGNN"} <= {entry.model for entry in result.entries}


class TestTrainingExperiments:
    def test_table5_reduced(self):
        result = run_experiment(
            "table5", datasets=("texas",), models=("mlp", "sigma"),
            num_repeats=1, config=SMOKE_CONFIG, tune=False, print_result=False)
        ranks = result.ranks()
        assert set(ranks) == {"mlp", "sigma"}
        assert len(result.rows()) == 2

    def test_table7_reduced(self):
        result = run_experiment(
            "table7", datasets=("genius",), models=("linkx", "sigma"),
            num_repeats=1, scale_factor=0.2, config=SMOKE_CONFIG,
            print_result=False)
        assert len(result.rows()) == 2
        assert result.average_speedup_over("linkx") > 0.0

    def test_table9_reduced(self):
        result = run_experiment("table9", datasets=("penn94",),
                                deltas=(0.3, 0.7), num_repeats=1,
                                scale_factor=0.2, config=SMOKE_CONFIG,
                                print_result=False)
        assert result.best_delta("penn94") in (0.3, 0.7)

    def test_table10_reduced(self):
        result = run_experiment("table10", datasets=("genius",), num_repeats=1,
                                scale_factor=0.2, config=SMOKE_CONFIG,
                                print_result=False)
        assert 0.0 < result.alphas["genius"] < 1.0

    def test_table11_reduced(self):
        result = run_experiment("table11", datasets=("genius",), layers=(1,),
                                num_repeats=1, scale_factor=0.2,
                                config=SMOKE_CONFIG, print_result=False)
        assert "sigma-1" in result.accuracies and "gcn-1" in result.accuracies

    def test_fig5_reduced(self):
        result = run_experiment("fig5", num_sizes=2, base_scale=0.1,
                                config=SMOKE_CONFIG, print_result=False)
        assert len(result.points) == 4

    def test_fig8_reduced(self):
        result = run_experiment("fig8", datasets=("texas",),
                                config=SMOKE_CONFIG, num_pairs=2000,
                                print_result=False)
        assert len(result.stats) == 1


class TestEveryExperimentRuns:
    """Every registered experiment runs through the registry alone."""

    @pytest.mark.parametrize("name", sorted(MODULES))
    def test_runs_at_reduced_scale(self, name):
        result = run_experiment(name, print_result=False,
                                **REDUCED_KWARGS[name])
        assert isinstance(result.rows(), list)

    def test_modules_expose_no_run_function(self):
        """The registry is the only entry point; no module-level run()."""
        assert sorted(MODULES) == sorted(EXPERIMENT_MODULES)
        for module in MODULES.values():
            assert not hasattr(module, "run"), module.__name__

    def test_fig6_threads_the_cache_dir_through(self, tmp_path):
        result = run_experiment(
            "fig6", "texas", epsilons=(0.1,), top_ks=(8,), num_repeats=1,
            config=TINY_CONFIG, print_result=False,
            simrank=SimRankConfig(top_k=32, cache_dir=str(tmp_path)))
        assert len(result.cells) == 1
        # The cache directory was threaded through to the operator cache.
        assert any(tmp_path.glob("simrank-*.npz"))


class TestSweepEngine:
    @pytest.mark.parametrize("option", [{"executor": "thread"},
                                        {"workers": 2}],
                             ids=["executor", "workers"])
    def test_executor_and_workers_rejected(self, option):
        """The sweep has one path, in the calling thread: ``executor=``
        and ``workers=`` are unknown knobs, so they raise."""
        with pytest.raises(ExperimentError, match="invalid arguments"):
            run_experiment("table3", "pokec", scale_factor=0.25,
                           print_result=False, **option)

    def test_resume_skips_completed_cells(self, tmp_path):
        """A killed 2-cell sweep re-invoked with resume executes only the
        unfinished cell (asserted via the run records' cell counts)."""
        store = tmp_path / "store"
        kwargs = dict(dataset_name="texas", epsilons=(0.1,), top_ks=(4, 8),
                      num_repeats=1, config=TINY_CONFIG, print_result=False,
                      store=store)
        first = run_experiment("fig6", **kwargs)
        assert cell_counts(store, "fig6") == [(0, 2)]

        # Full resume: nothing recomputed, identical result rows.
        second = run_experiment("fig6", **kwargs)
        assert cell_counts(store, "fig6")[-1] == (2, 0)
        assert second.rows() == first.rows()

        # Kill one cell's record — only that cell re-executes.
        victim = sorted(store.glob("cell-*.json"))[0]
        victim.unlink()
        third = run_experiment("fig6", **kwargs)
        assert cell_counts(store, "fig6")[-1] == (1, 1)
        assert deterministic_rows(third) == deterministic_rows(first)

    def test_killed_sweep_keeps_completed_cells(self, tmp_path):
        """Cells persist incrementally: a sweep dying mid-run keeps every
        finished cell on disk, and the re-run resumes from them."""
        from repro.experiments.registry import ExperimentDefinition
        from repro.experiments.table2_simrank_stats import (
            class_stats_cell, _reduce as reduce_table2, spec as table2_spec)

        state = {"fail": True}

        def flaky_runner(cell):
            if cell.spec.dataset == "cora" and state["fail"]:
                raise RuntimeError("killed mid-sweep")
            return class_stats_cell(cell)

        definition = ExperimentDefinition(
            name="table2", title="t", builder=table2_spec,
            reduce=reduce_table2, cell=flaky_runner)
        store = ArtifactStore(tmp_path / "store")
        spec = build_spec("table2", datasets=("texas", "cora"), num_pairs=200)
        with pytest.raises(RuntimeError, match="killed"):
            execute(spec, definition=definition, store=store)
        assert len(store) == 1  # the texas cell survived the crash

        state["fail"] = False
        run = execute(spec, definition=definition, store=store)
        assert run.cells_resumed == 1  # texas served from the store
        assert run.cells_executed == 1  # only cora recomputed
        assert "texas" in run.result.stats and "cora" in run.result.stats

    def test_empty_grid_axis_runs_zero_cells(self):
        result = run_experiment("fig6", epsilons=(), print_result=False)
        assert result.cells == []

    def test_fig4_train_override_keeps_history_tracking(self):
        """A wholesale train override (the --quick transform) must not
        wipe the per-epoch history the fig4 curves are made of."""
        import math

        result = run_experiment("fig4", datasets=("genius",),
                                models=("sigma",), scale_factor=0.2,
                                train=TINY_CONFIG, print_result=False)
        curve = result.curve("sigma", "genius")
        assert curve.accuracies.size > 0
        assert not math.isnan(curve.final_accuracy)

    def test_force_recomputes_stored_cells(self, tmp_path):
        store = tmp_path / "store"
        kwargs = dict(datasets=("texas",), num_pairs=500, print_result=False,
                      store=store)
        run_experiment("table2", **kwargs)
        run_experiment("table2", force=True, **kwargs)
        assert cell_counts(store, "table2") == [(0, 1), (0, 1)]

    def test_fig2_reuses_table2_cells(self, tmp_path):
        """Fig. 2 shares Table II's cell hashes: a store warmed by one
        serves the other without recomputation."""
        store = tmp_path / "shared"
        run_experiment("table2", datasets=("texas",), print_result=False,
                       store=store)
        assert cell_counts(store, "table2") == [(0, 1)]
        result = run_experiment("fig2", datasets=("texas",), bins=10,
                                print_result=False, store=store)
        assert cell_counts(store, "fig2") == [(1, 0)]
        assert "texas" in result.histograms

    def test_artifact_record_embeds_resolved_spec(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        run_experiment("table3", "pokec", scale_factor=0.25,
                       print_result=False, store=store)
        artifact = json.loads(store.artifact_path("table3").read_text())
        assert isinstance(artifact, list) and len(artifact) == 1
        record = artifact[0]
        assert record["experiment"] == "table3"
        spec = ExperimentSpec.from_dict(record["spec"])
        assert spec.base.dataset == "pokec"
        assert spec.base.scale_factor == 0.25
        assert record["cells"][0]["record"]["entries"]

    def test_execute_returns_cell_provenance(self):
        run = execute(build_spec("table3", "pokec", scale_factor=0.25))
        assert run.cells_executed == 1 and run.cells_resumed == 0
        assert run.outcomes[0].record["dataset"] == "pokec"
        assert run.result.cheapest_model() == "SIGMA"


class TestRegistry:
    def test_all_fifteen_experiments_registered(self):
        assert len(EXPERIMENT_MODULES) == 15
        assert len(list_experiments()) == 15

    def test_definitions_have_titles_and_builders(self):
        for definition in list_experiments():
            assert definition.title
            spec = definition.default_spec()
            assert spec.name == definition.name
            assert spec.num_cells >= 1

    def test_unknown_experiment_raises(self):
        with pytest.raises(ExperimentError, match="unknown experiment"):
            run_experiment("table99", print_result=False)

    def test_unsupported_builder_argument_is_hard_error(self):
        """The registry replacement for the silent ``scale_factor`` drop:
        a knob the experiment does not define raises, never no-ops."""
        with pytest.raises(ExperimentError, match="fig1"):
            run_experiment("fig1", bogus_knob=3, print_result=False)

    def test_scale_factor_reaches_every_experiment(self):
        """``fig5`` historically lacked the ``scale_factor`` parameter and
        the old dispatcher silently dropped the flag; as a spec transform
        it now scales the synthetic grid by construction."""
        result = run_experiment("fig5", num_sizes=1, models=("sigma",),
                                config=TINY_CONFIG, scale_factor=0.05,
                                print_result=False)
        assert result.points[0].num_nodes < 600

    def test_build_spec_round_trips(self):
        spec = build_spec("fig6", "texas", epsilons=(0.1,), top_ks=(4, 8))
        clone = ExperimentSpec.from_dict(spec.to_dict())
        assert clone == spec

    def test_get_experiment_exposes_cell_runner(self):
        definition = get_experiment("table2")
        assert definition.cell is table2_simrank_stats.class_stats_cell


class TestRunnerCLI:
    def test_list_output(self, capsys):
        assert runner_main(["--list"]) == 0
        output = capsys.readouterr().out
        assert "available experiments" in output
        for name in ("fig6", "table5", "table11"):
            assert name in output

    def test_no_argument_lists(self, capsys):
        assert runner_main([]) == 0
        assert "available experiments" in capsys.readouterr().out

    def test_unknown_experiment_message(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            runner_main(["table99"])
        assert excinfo.value.code == 2
        assert "unknown experiment" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--executor", "thread"],
                                      ["--workers", "2"]], ids=" ".join)
    def test_no_executor_or_workers_flag(self, capsys, flag):
        with pytest.raises(SystemExit) as excinfo:
            runner_main(["fig6", *flag])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in (
            capsys.readouterr().err)

    def test_describe_prints_resolved_spec(self, capsys):
        assert runner_main(["fig6", "--describe", "--scale-factor", "0.25"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cells"] == 12
        assert payload["spec"]["base"]["scale_factor"] == 0.25
        assert payload["spec"]["name"] == "fig6"

    def test_fig6_end_to_end_at_smoke_scale(self, capsys, tmp_path):
        """The satellite pin: ``repro-experiment fig6 --scale-factor …``
        runs the full declarative grid and persists its artefact."""
        store_dir = tmp_path / "artifacts"
        assert runner_main(["fig6", "--scale-factor", "0.02", "--quick",
                            "--store", str(store_dir)]) == 0
        output = capsys.readouterr().out
        assert "== fig6 ==" in output
        assert "epsilon" in output and "top_k" in output
        artifact = json.loads((store_dir / "experiment-fig6.json").read_text())
        assert artifact[0]["cells_executed"] == 12
        assert len(list(store_dir.glob("cell-*.json"))) == 12

    def test_runner_dispatch_prints_table(self, capsys):
        result = run_experiment("table3", "pokec", scale_factor=0.25)
        assert result.cheapest_model() == "SIGMA"
        captured = capsys.readouterr()
        assert "table3" in captured.out


class TestPaperClaims:
    """The paper's qualitative findings at reduced scale, one check per
    table or figure that the tests above do not already make (Table III's
    cheapest-aggregation, Table IX's best-δ and Table X's α ∈ (0, 1)
    checks are there)."""

    def test_fig1_simrank_concentrates_on_same_label_nodes(self):
        result = run_experiment("fig1", "texas", num_centers=10,
                                print_result=False)
        ppr_mass = result.mean_same_label_mass("ppr")
        simrank_mass = result.mean_same_label_mass("simrank")
        assert 0.0 <= ppr_mass <= 1.0
        assert 0.0 <= simrank_mass <= 1.0
        # Fig. 1(b) vs (c): SimRank puts more aggregation weight on
        # same-label nodes than the local PPR operator does.
        assert simrank_mass > ppr_mass

    def test_fig2_densities_cover_every_bin(self):
        result = run_experiment("fig2", datasets=("texas",), scale_factor=1.0,
                                bins=20, print_result=False)
        centres, density = result.histograms["texas"]["intra"]
        assert len(centres) == 20
        assert density.min() >= 0.0

    def test_table2_intra_class_pairs_score_higher(self):
        result = run_experiment("table2", datasets=("texas", "chameleon"),
                                scale_factor=0.5, num_pairs=5000,
                                print_result=False)
        assert set(result.stats) == {"texas", "chameleon"}
        assert result.all_separations_positive

    @pytest.mark.slow
    def test_fig4_convergence_curves_are_time_ordered(self):
        result = run_experiment("fig4", datasets=("penn94",),
                                models=("linkx", "glognn", "sigma"),
                                scale_factor=0.5, config=CLAIM_CONFIG, seed=0,
                                print_result=False)
        assert len(result.curves) == 3
        for curve in result.curves:
            assert curve.times.size == curve.accuracies.size > 0
            assert (curve.times[1:] >= curve.times[:-1]).all()

    @pytest.mark.slow
    def test_fig5_learning_time_grows_with_graph_size(self):
        result = run_experiment("fig5", base_dataset="pokec", num_sizes=3,
                                shrink=2.0, base_scale=0.25,
                                config=CLAIM_CONFIG, seed=0,
                                print_result=False)
        sigma_series = result.series("sigma")
        assert len(sigma_series) == len(result.series("glognn")) == 3
        by_edges = sorted(sigma_series)
        assert by_edges[0][1] <= by_edges[-1][1] * 1.5
        assert len(result.speedup_trend()) == 3

    @pytest.mark.slow
    def test_fig6_tighter_epsilon_costs_more_precompute(self):
        result = run_experiment("fig6", "pokec", epsilons=(0.05, 0.1),
                                top_ks=(8, 32), num_repeats=1,
                                scale_factor=0.25, config=CLAIM_CONFIG,
                                seed=0, print_result=False)
        assert len(result.cells) == 4
        assert result.precompute(0.05, 32) >= result.precompute(0.1, 32) * 0.5
        for cell in result.cells:
            assert 0.0 <= cell["accuracy"] <= 100.0

    @pytest.mark.slow
    def test_fig7_accuracy_saturates_on_the_top_k_grid(self):
        result = run_experiment("fig7", "pokec", top_ks=(4, 16, 64),
                                num_repeats=1, scale_factor=0.25,
                                config=CLAIM_CONFIG, seed=0,
                                print_result=False)
        assert len(result.points) == 3
        ks = [k for k, _ in result.accuracy_series()]
        assert ks == [4, 16, 64]
        assert result.saturation_k() in ks

    def test_fig8_same_class_embeddings_are_more_similar(self):
        result = run_experiment("fig8", datasets=("texas", "pubmed"),
                                scale_factor=0.5, config=CLAIM_CONFIG,
                                num_pairs=5000, seed=0, print_result=False)
        assert len(result.stats) == 2
        for stats in result.stats:
            assert stats.intra_similarity > stats.inter_similarity

    @pytest.mark.slow
    def test_table5_sigma_ranks_in_the_upper_half(self):
        result = run_experiment(
            "table5", datasets=("chameleon", "arxiv-year"),
            models=("mlp", "gcn", "linkx", "glognn", "sigma"),
            num_repeats=2, scale_factor=0.5, config=CLAIM_CONFIG, tune=False,
            seed=0, print_result=False)
        ranks = result.ranks()
        assert set(ranks) == {"mlp", "gcn", "linkx", "glognn", "sigma"}
        assert ranks["sigma"] <= 3.0

    @pytest.mark.slow
    def test_table7_sigma_aggregates_faster_than_glognn(self):
        result = run_experiment("table7", datasets=("arxiv-year", "pokec"),
                                models=("linkx", "glognn", "sigma"),
                                num_repeats=1, scale_factor=0.5,
                                config=CLAIM_CONFIG, seed=0,
                                print_result=False)
        assert len(result.rows()) == 6
        for dataset in result.datasets:
            sigma = next(row for row in result.rows_by_model["sigma"]
                         if row["dataset"] == dataset)
            glognn = next(row for row in result.rows_by_model["glognn"]
                          if row["dataset"] == dataset)
            assert sigma["agg"] < glognn["agg"]
        assert result.average_speedup_over("glognn") > 1.0

    @pytest.mark.slow
    def test_table8_removing_a_component_does_not_help(self):
        result = run_experiment("table8", datasets=("arxiv-year",),
                                num_repeats=1, scale_factor=0.5,
                                config=CLAIM_CONFIG, seed=0,
                                print_result=False)
        assert "sigma" in result.accuracies
        assert "sigma w/o S" in result.accuracies
        assert result.average_drop("sigma w/o A", "sigma") >= -0.05
        assert result.average_drop("sigma w/o S", "sigma") >= -0.05

    @pytest.mark.slow
    def test_table11_sigma_beats_gcn_at_depth_one(self):
        result = run_experiment("table11", datasets=("arxiv-year",),
                                layers=(1, 2), num_repeats=1,
                                scale_factor=0.5, config=CLAIM_CONFIG, seed=0,
                                print_result=False)
        assert set(result.accuracies) == {"gcn-1", "sigma-1", "gcn-2",
                                          "sigma-2"}
        assert result.sigma_beats_gcn_everywhere(depth=1)
