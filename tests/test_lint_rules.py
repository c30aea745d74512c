"""Per-rule fixture tests for :mod:`repro.lint`.

Every rule gets positive (fires) and negative (stays silent) snippets
written to a throwaway tree — never the live source — plus coverage for
the pragma exemptions, the JSON report schema and the CLI exit codes.
Rules scope by *path shape*, so a fixture file at
``tmp/repro/simrank/engine.py`` is checked exactly like the real one.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.lint import lint_paths, report_json
from repro.lint.cli import main as lint_main


def lint_tree(tmp_path: Path, files: dict, rules=None):
    """Write ``files`` (relpath → source) under ``tmp_path`` and lint them."""
    for relpath, source in files.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
    return lint_paths([tmp_path], rule_ids=rules, root=tmp_path)


def rule_ids(findings):
    return [finding.rule for finding in findings]


# --------------------------------------------------------------------- #
# Fixture building blocks
# --------------------------------------------------------------------- #
MINI_CONFIG = '''
    from dataclasses import dataclass

    CACHE_KEY_FIELDS = ("method", "decay")

    CACHE_KEY_EXEMPT = ("cache_dir",)

    @dataclass(frozen=True)
    class SimRankConfig:
        method: str = "auto"
        decay: float = 0.6
        cache_dir: str = ""

        def cache_key_fields(self, num_nodes):
            return {"method": self.method, "decay": self.decay}
    '''


# --------------------------------------------------------------------- #
# R1 — cache-key completeness
# --------------------------------------------------------------------- #
class TestR1CacheKeyCompleteness:
    def test_clean_config_passes(self, tmp_path):
        assert lint_tree(tmp_path, {"repro/config.py": MINI_CONFIG},
                         rules=["R1"]) == []

    def test_unkeyed_field_fires(self, tmp_path):
        source = MINI_CONFIG.replace('cache_dir: str = ""',
                                     'cache_dir: str = ""\n'
                                     '        sneaky: int = 0')
        findings = lint_tree(tmp_path, {"repro/config.py": source},
                             rules=["R1"])
        assert rule_ids(findings) == ["R1"]
        assert "sneaky" in findings[0].message

    def test_missing_exempt_set_fires(self, tmp_path):
        source = MINI_CONFIG.replace('CACHE_KEY_EXEMPT = ("cache_dir",)', "")
        findings = lint_tree(tmp_path, {"repro/config.py": source},
                             rules=["R1"])
        assert any("CACHE_KEY_EXEMPT" in finding.message
                   for finding in findings)

    def test_stale_exemption_fires(self, tmp_path):
        source = MINI_CONFIG.replace('("cache_dir",)',
                                     '("cache_dir", "ghost")')
        findings = lint_tree(tmp_path, {"repro/config.py": source},
                             rules=["R1"])
        assert rule_ids(findings) == ["R1"]
        assert "ghost" in findings[0].message

    def test_field_both_keyed_and_exempt_fires(self, tmp_path):
        source = MINI_CONFIG.replace('("cache_dir",)',
                                     '("cache_dir", "decay")')
        findings = lint_tree(tmp_path, {"repro/config.py": source},
                             rules=["R1"])
        assert any("both cache-keyed and CACHE_KEY_EXEMPT" in finding.message
                   for finding in findings)

    def test_declared_tuple_mismatch_fires(self, tmp_path):
        source = MINI_CONFIG.replace('("method", "decay")',
                                     '("method", "decay", "epsilon")')
        findings = lint_tree(tmp_path, {"repro/config.py": source},
                             rules=["R1"])
        assert any("CACHE_KEY_FIELDS" in finding.message
                   for finding in findings)

    def test_other_paths_not_checked(self, tmp_path):
        source = MINI_CONFIG.replace('cache_dir: str = ""',
                                     'cache_dir: str = ""\n'
                                     '        sneaky: int = 0')
        assert lint_tree(tmp_path, {"repro/other.py": source},
                         rules=["R1"]) == []


# --------------------------------------------------------------------- #
# R2 — frozen-config discipline
# --------------------------------------------------------------------- #
class TestR2FrozenConfigDiscipline:
    def test_foreign_object_setattr_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {"repro/bad.py": '''
            def poke(config):
                object.__setattr__(config, "epsilon", 0.5)
            '''}, rules=["R2"])
        assert rule_ids(findings) == ["R2"]

    def test_self_setattr_allowed(self, tmp_path):
        assert lint_tree(tmp_path, {"repro/ok.py": '''
            class Thing:
                def __post_init__(self):
                    object.__setattr__(self, "value", 1)
            '''}, rules=["R2"]) == []

    def test_attribute_assignment_on_config_instance_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {"repro/bad.py": '''
            from repro.config import SimRankConfig

            def tweak():
                config = SimRankConfig(epsilon=0.1)
                config.epsilon = 0.2
                return config
            '''}, rules=["R2"])
        assert rule_ids(findings) == ["R2"]
        assert "with_overrides" in findings[0].message

    def test_assignment_in_defining_module_allowed(self, tmp_path):
        assert lint_tree(tmp_path, {"repro/config.py": '''
            class SimRankConfig:
                pass

            def _internal():
                config = SimRankConfig()
                config.epsilon = 0.2
            '''}, rules=["R2"]) == []

    def test_unrelated_assignment_allowed(self, tmp_path):
        assert lint_tree(tmp_path, {"repro/ok.py": '''
            def fine(thing):
                thing.attribute = 1
            '''}, rules=["R2"]) == []


# --------------------------------------------------------------------- #
# R3 — determinism
# --------------------------------------------------------------------- #
ENGINE = "repro/simrank/engine.py"


class TestR3Determinism:
    def test_numpy_global_rng_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {ENGINE: '''
            import numpy as np

            def push():
                return np.random.rand(3)
            '''}, rules=["R3"])
        assert rule_ids(findings) == ["R3"]

    def test_generator_api_allowed(self, tmp_path):
        assert lint_tree(tmp_path, {ENGINE: '''
            import numpy as np

            def push(seed):
                rng = np.random.default_rng(seed)
                return rng.random(3)
            '''}, rules=["R3"]) == []

    def test_random_module_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {ENGINE: '''
            import random

            def order(items):
                random.shuffle(items)
            '''}, rules=["R3"])
        assert rule_ids(findings) == ["R3"]

    def test_time_time_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {ENGINE: '''
            import time

            def stamp():
                return time.time()
            '''}, rules=["R3"])
        assert rule_ids(findings) == ["R3"]

    def test_set_materialisation_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {ENGINE: '''
            def frontier(nodes):
                order = list(set(nodes))
                for node in {1, 2, 3}:
                    order.append(node)
                return order
            '''}, rules=["R3"])
        assert rule_ids(findings) == ["R3", "R3"]

    def test_sorted_set_allowed(self, tmp_path):
        assert lint_tree(tmp_path, {ENGINE: '''
            def frontier(nodes):
                return sorted(set(nodes))
            '''}, rules=["R3"]) == []

    def test_unscoped_file_not_checked(self, tmp_path):
        assert lint_tree(tmp_path, {"repro/utils/free.py": '''
            import numpy as np

            def anything():
                return np.random.rand(3)
            '''}, rules=["R3"]) == []

    def test_registered_cell_runner_checked(self, tmp_path):
        findings = lint_tree(tmp_path, {"repro/experiments/figx_mod.py": '''
            import numpy as np
            from repro.experiments.registry import experiment

            def my_cell(cell):
                return {"value": float(np.random.rand())}

            def helper():
                return np.random.rand()

            def spec():
                return None

            @experiment("figx", title="t", spec=spec, cell=my_cell)
            def _reduce(spec, cells):
                return cells
            '''}, rules=["R3"])
        # only the registered runner is in scope, not the helper
        assert rule_ids(findings) == ["R3"]
        assert findings[0].line < 7


# --------------------------------------------------------------------- #
# R5 — registry consistency
# --------------------------------------------------------------------- #
EXPERIMENT_REGISTRY = '''
    EXPERIMENT_MODULES = {
        "figx": "repro.experiments.figx_mod",
    }
    '''

FIGX_MODULE = '''
    from repro.experiments.registry import experiment

    def spec():
        return None

    @experiment("figx", title="t", spec=spec)
    def _reduce(spec, cells):
        return cells
    '''


class TestR5RegistryConsistency:
    def test_consistent_registry_passes(self, tmp_path):
        assert lint_tree(tmp_path, {
            "repro/experiments/registry.py": EXPERIMENT_REGISTRY,
            "repro/experiments/figx_mod.py": FIGX_MODULE,
        }, rules=["R5"]) == []

    def test_registration_missing_from_table_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "repro/experiments/registry.py":
                EXPERIMENT_REGISTRY.replace("figx", "figy"),
            "repro/experiments/figx_mod.py": FIGX_MODULE,
        }, rules=["R5"])
        assert any("missing from EXPERIMENT_MODULES" in finding.message
                   for finding in findings)

    def test_table_entry_without_registration_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "repro/experiments/registry.py": EXPERIMENT_REGISTRY,
            "repro/experiments/figx_mod.py": '''
                def helper():
                    return 1
                ''',
        }, rules=["R5"])
        assert any("registers nothing" in finding.message
                   or "registers no @experiment" in finding.message
                   for finding in findings)

    def test_missing_spec_builder_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "repro/experiments/registry.py": EXPERIMENT_REGISTRY,
            "repro/experiments/figx_mod.py":
                FIGX_MODULE.replace(", spec=spec", ""),
        }, rules=["R5"])
        assert any("no spec= builder" in finding.message
                   for finding in findings)

    def test_wrong_module_mapping_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "repro/experiments/registry.py":
                EXPERIMENT_REGISTRY.replace("figx_mod", "elsewhere"),
            "repro/experiments/figx_mod.py": FIGX_MODULE,
        }, rules=["R5"])
        assert any("maps 'figx'" in finding.message for finding in findings)

    def test_model_registry_unimported_factory_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {"repro/models/registry.py": '''
            from repro.models.gcn import GCN

            _REGISTRY = {"gcn": GCN, "ghost": Ghost}

            _DEFAULTS = {"gcn": {}, "ghost": {}}
            '''}, rules=["R5"])
        assert rule_ids(findings) == ["R5"]
        assert "ghost" in findings[0].message

    def test_model_defaults_drift_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {"repro/models/registry.py": '''
            from repro.models.gcn import GCN

            _REGISTRY = {"gcn": GCN}

            _DEFAULTS = {"gcn": {}, "stale": {}}
            '''}, rules=["R5"])
        assert any("stale" in finding.message for finding in findings)


# --------------------------------------------------------------------- #
# R6 — config-addressability
# --------------------------------------------------------------------- #
R6_TREE = {
    "repro/config.py": MINI_CONFIG,
    "repro/training/config.py": '''
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class TrainConfig:
            patience: int = 50
        ''',
    "repro/models/widget.py": '''
        class Widget:
            def __init__(self, graph, hidden=64, rng=None):
                self.hidden = hidden
        ''',
}


class TestR6ConfigAddressability:
    def test_valid_grid_keys_pass(self, tmp_path):
        files = dict(R6_TREE)
        files["repro/experiments/figx_mod.py"] = '''
            GRID = {"simrank.decay": (0.4,), "train.patience": (10,),
                    "overrides.hidden": (16,)}
            '''
        assert lint_tree(tmp_path, files, rules=["R6"]) == []

    @pytest.mark.parametrize("key,expected", [
        ("simrank.typo_field", "SimRankConfig has no field"),
        ("train.patiencee", "TrainConfig has no field"),
        ("overrides.hiddenn", "no model __init__"),
    ])
    def test_typo_grid_key_fires(self, tmp_path, key, expected):
        files = dict(R6_TREE)
        files["repro/experiments/figx_mod.py"] = f'''
            GRID = {{"{key}": (1,)}}
            '''
        findings = lint_tree(tmp_path, files, rules=["R6"])
        assert rule_ids(findings) == ["R6"]
        assert expected in findings[0].message

    def test_infra_modules_not_scanned(self, tmp_path):
        files = dict(R6_TREE)
        files["repro/experiments/engine.py"] = '''
            GRID = {"simrank.typo_field": (1,)}
            '''
        assert lint_tree(tmp_path, files, rules=["R6"]) == []


# --------------------------------------------------------------------- #
# R7 — mutable defaults / bare except
# --------------------------------------------------------------------- #
class TestR7MutableDefaultsBareExcept:
    @pytest.mark.parametrize("default", ["[]", "{}", "set()", "list()",
                                         "dict()", "[x for x in ()]"])
    def test_mutable_default_fires(self, tmp_path, default):
        findings = lint_tree(
            tmp_path,
            {"repro/bad.py": f"def f(a={default}):\n    return a\n"},
            rules=["R7"])
        assert rule_ids(findings) == ["R7"]

    @pytest.mark.parametrize("default", ["None", "()", "0", '""',
                                         "frozenset()"])
    def test_immutable_default_allowed(self, tmp_path, default):
        assert lint_tree(
            tmp_path,
            {"repro/ok.py": f"def f(a={default}):\n    return a\n"},
            rules=["R7"]) == []

    def test_keyword_only_mutable_default_fires(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {"repro/bad.py": "def f(*, a=[]):\n    return a\n"},
            rules=["R7"])
        assert rule_ids(findings) == ["R7"]

    def test_bare_except_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {"repro/bad.py": '''
            def f():
                try:
                    return 1
                except:
                    return 2
            '''}, rules=["R7"])
        assert rule_ids(findings) == ["R7"]

    def test_typed_except_allowed(self, tmp_path):
        assert lint_tree(tmp_path, {"repro/ok.py": '''
            def f():
                try:
                    return 1
                except ValueError:
                    return 2
            '''}, rules=["R7"]) == []

    def test_outside_repro_not_checked(self, tmp_path):
        assert lint_tree(
            tmp_path,
            {"scripts/tool.py": "def f(a=[]):\n    return a\n"},
            rules=["R7"]) == []


# --------------------------------------------------------------------- #
# R8 — API-surface import hygiene
# --------------------------------------------------------------------- #
class TestR8ApiSurfaceImports:
    def test_internal_import_in_examples_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {"examples/demo.py": '''
            from repro.simrank.engine import localpush_engine
            '''}, rules=["R8"])
        assert rule_ids(findings) == ["R8"]

    def test_public_surface_allowed(self, tmp_path):
        assert lint_tree(tmp_path, {"examples/demo.py": '''
            from repro import TrainConfig
            from repro.api import run
            from repro.config import SimRankConfig
            from repro.experiments import run_experiment
            import numpy as np
            '''}, rules=["R8"]) == []

    def test_benchmarks_checked_too(self, tmp_path):
        findings = lint_tree(tmp_path, {"benchmarks/bench_demo.py": '''
            from repro.training.config import TrainConfig
            '''}, rules=["R8"])
        assert rule_ids(findings) == ["R8"]

    def test_spec_builder_using_internals_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {"repro/experiments/figx_mod.py": '''
            from repro.experiments.registry import experiment
            from repro.simrank.engine import localpush_engine

            def spec():
                return localpush_engine

            @experiment("figx", title="t", spec=spec)
            def _reduce(spec, cells):
                return cells
            '''}, rules=["R8"])
        assert rule_ids(findings) == ["R8"]
        assert "spec builder" in findings[0].message

    def test_spec_builder_on_surface_passes(self, tmp_path):
        assert lint_tree(tmp_path, {"repro/experiments/figx_mod.py": '''
            from repro.config import ExperimentSpec, RunSpec
            from repro.experiments.registry import experiment
            from repro.training.config import TrainConfig

            def spec():
                return ExperimentSpec(name="figx",
                                      base=RunSpec(train=TrainConfig()))

            @experiment("figx", title="t", spec=spec)
            def _reduce(spec, cells):
                return cells
            '''}, rules=["R8"]) == []

    def test_cell_runner_may_use_internals(self, tmp_path):
        assert lint_tree(tmp_path, {"repro/experiments/figx_mod.py": '''
            from repro.experiments.registry import experiment
            from repro.simrank.exact import exact_simrank

            def spec():
                return None

            def my_cell(cell):
                return {"value": exact_simrank}

            @experiment("figx", title="t", spec=spec, cell=my_cell)
            def _reduce(spec, cells):
                return cells
            '''}, rules=["R8"]) == []


# --------------------------------------------------------------------- #
# Pragmas
# --------------------------------------------------------------------- #
class TestPragmas:
    def test_line_pragma_suppresses_named_rule(self, tmp_path):
        assert lint_tree(tmp_path, {ENGINE: '''
            import time

            def stamp():
                return time.time()  # repro-lint: disable=R3
            '''}, rules=["R3"]) == []

    def test_line_pragma_is_rule_specific(self, tmp_path):
        findings = lint_tree(tmp_path, {ENGINE: '''
            import time

            def stamp():
                return time.time()  # repro-lint: disable=R7
            '''}, rules=["R3"])
        assert rule_ids(findings) == ["R3"]

    def test_line_pragma_only_covers_its_line(self, tmp_path):
        findings = lint_tree(tmp_path, {ENGINE: '''
            import time

            def stamp():  # repro-lint: disable=R3
                return time.time()
            '''}, rules=["R3"])
        assert rule_ids(findings) == ["R3"]

    def test_file_pragma_suppresses_whole_file(self, tmp_path):
        assert lint_tree(tmp_path, {ENGINE: '''
            # repro-lint: disable-file=R3 — fixture exercises the pragma
            import time

            def stamp():
                return time.time()

            def stamp_again():
                return time.time()
            '''}, rules=["R3"]) == []

    def test_disable_all(self, tmp_path):
        assert lint_tree(tmp_path, {ENGINE: '''
            import time

            def stamp():
                return time.time()  # repro-lint: disable=all
            '''}, rules=["R3"]) == []

    def test_comma_separated_rule_list(self, tmp_path):
        assert lint_tree(tmp_path, {"repro/bad.py": '''
            def f(a=[]):  # repro-lint: disable=R2, R7
                return a
            '''}, rules=["R7"]) == []


# --------------------------------------------------------------------- #
# Framework: parse failures, JSON schema, CLI
# --------------------------------------------------------------------- #
class TestFramework:
    def test_syntax_error_reported_not_fatal(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "repro/broken.py": "def half(:\n",
            "repro/ok.py": "x = 1\n",
        })
        assert rule_ids(findings) == ["PARSE"]
        assert findings[0].path == "repro/broken.py"

    def test_unknown_rule_id_raises(self, tmp_path):
        with pytest.raises(KeyError):
            lint_tree(tmp_path, {"repro/ok.py": "x = 1\n"}, rules=["R99"])

    def test_json_report_schema(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {"repro/bad.py": "def f(a=[]):\n    return a\n"},
            rules=["R7"])
        payload = json.loads(report_json(findings))
        assert payload["version"] == 1
        assert payload["counts"] == {"error": 1, "warning": 0}
        (record,) = payload["findings"]
        assert set(record) == {"rule", "severity", "path", "line", "message"}
        assert record["rule"] == "R7"
        assert record["severity"] == "error"
        assert record["path"] == "repro/bad.py"
        assert isinstance(record["line"], int)

    def test_cli_exit_codes_and_output(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def f(a=[]):\n    return a\n")
        assert lint_main([str(tmp_path), "--root", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "[R7]" in out and "1 error(s)" in out

        bad.write_text("def f(a=None):\n    return a\n")
        assert lint_main([str(tmp_path), "--root", str(tmp_path)]) == 0

    def test_cli_json_output_file(self, tmp_path, capsys):
        source = tmp_path / "repro" / "ok.py"
        source.parent.mkdir(parents=True)
        source.write_text("x = 1\n")
        report = tmp_path / "report.json"
        assert lint_main([str(tmp_path), "--root", str(tmp_path),
                          "--format=json", "--output", str(report)]) == 0
        payload = json.loads(report.read_text())
        assert payload["findings"] == []
        # The log still gets the human summary when the report goes to a file.
        assert "0 error(s)" in capsys.readouterr().out

    def test_cli_rule_selection(self, tmp_path):
        bad = tmp_path / "repro" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def f(a=[]):\n    return a\n")
        assert lint_main([str(tmp_path), "--root", str(tmp_path),
                          "--rules", "R3"]) == 0
        assert lint_main([str(tmp_path), "--root", str(tmp_path),
                          "--rules", "R7"]) == 1

    def test_cli_unknown_rule_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            lint_main([str(tmp_path), "--rules", "R99"])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_cli_missing_path_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            lint_main([str(tmp_path / "nope")])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_cli_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("R1", "R2", "R3", "R5", "R6", "R7", "R8"):
            assert rule_id in out
        assert "R4" not in out  # retired with the compatibility shims
