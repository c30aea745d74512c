"""The project-specific rules of :mod:`repro.lint`.

Each rule encodes one invariant the codebase otherwise enforces only by
review; the rule IDs, the invariants they protect and the pragma syntax
are catalogued in the package docstring (:mod:`repro.lint`).  Rules scope
themselves by *path shape* (``repro/config.py``, ``repro/experiments/``)
so fixture trees in the linter's own tests behave exactly like the real
tree.

All rules are purely syntactic (AST + import-alias resolution): they
never import the code under check, so they run on broken or
partially-refactored trees — the whole point of a refactor gate.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint import _ast_utils as A
from repro.lint.core import Finding, Project, Rule, SourceFile, register

# --------------------------------------------------------------------- #
# Shared scoping tables
# --------------------------------------------------------------------- #

#: Infrastructure modules of ``repro/experiments/`` — everything else in
#: that package is an experiment module (spec builder + reduction).
EXPERIMENT_INFRA = ("__init__.py", "common.py", "engine.py", "registry.py",
                    "runner.py", "store.py")

#: ``numpy.random`` module-level (global-state) functions.  The
#: ``default_rng`` / ``Generator`` / ``SeedSequence`` object API is the
#: sanctioned source of randomness.
NUMPY_GLOBAL_RANDOM = frozenset({
    "seed", "rand", "randn", "randint", "random", "random_sample", "ranf",
    "sample", "choice", "shuffle", "permutation", "normal", "uniform",
    "standard_normal", "binomial", "poisson", "beta", "gamma", "bytes",
    "get_state", "set_state",
})

#: The public import surface ``examples/`` and ``benchmarks/`` may use:
#: the top-level facade plus the package roots documented in ROADMAP
#: "Public API".  Deeper dotted paths are internals.
PUBLIC_SURFACE = frozenset({
    "repro", "repro.api", "repro.config", "repro.errors",
    "repro.experiments", "repro.datasets", "repro.graphs",
    "repro.serve", "repro.dynamic", "repro.telemetry",
})

#: Module prefixes an experiment *spec builder* may draw names from: the
#: declarative layer only.  A builder that needs the operator or model
#: layer is doing cell-runner work in the wrong place.
BUILDER_SURFACE_PREFIXES = ("repro.api", "repro.config", "repro.errors",
                            "repro.experiments", "repro.training.config",
                            "repro.datasets")


def _is_experiment_module(source: SourceFile) -> bool:
    segments = source.path.split("/")
    return (len(segments) >= 2 and segments[-2] == "experiments"
            and "repro" in segments
            and segments[-1] not in EXPERIMENT_INFRA)


def _experiment_registrations(source: SourceFile
                              ) -> List[Tuple[ast.Call, Optional[str]]]:
    """Every ``@experiment("name", ...)`` decorator call in the module.

    Returns ``(call_node, registered_name)`` pairs; the name is ``None``
    when it is not a string literal.
    """
    registrations: List[Tuple[ast.Call, Optional[str]]] = []
    if source.tree is None:
        return registrations
    for node in ast.walk(source.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for decorator in node.decorator_list:
            if not isinstance(decorator, ast.Call):
                continue
            if A.decorator_name(decorator).split(".")[-1] != "experiment":
                continue
            name: Optional[str] = None
            if decorator.args and isinstance(decorator.args[0], ast.Constant) \
                    and isinstance(decorator.args[0].value, str):
                name = decorator.args[0].value
            registrations.append((decorator, name))
    return registrations


def _registration_kwarg(call: ast.Call, keyword: str) -> Optional[ast.expr]:
    for kw in call.keywords:
        if kw.arg == keyword:
            return kw.value
    return None


def _module_function(tree: ast.AST, name: str) -> Optional[ast.AST]:
    if not isinstance(tree, ast.Module):
        return None
    for node in tree.body:
        if isinstance(node, A.FunctionNode) and node.name == name:
            return node
    return None


# --------------------------------------------------------------------- #
# R1 — cache-key completeness
# --------------------------------------------------------------------- #
@register
class CacheKeyCompleteness(Rule):
    """Every ``SimRankConfig`` field is keyed or explicitly exempted.

    The operator cache hashes exactly what
    ``SimRankConfig.cache_key_fields`` returns; a field added to the
    dataclass but not to the key (or to ``CACHE_KEY_EXEMPT``, with a
    justification) silently serves stale operators across configs — the
    exact failure class the single-derivation design of PR 4 exists to
    prevent.
    """

    id = "R1"
    name = "cache-key-completeness"
    description = ("every SimRankConfig field appears in cache_key_fields() "
                   "or in CACHE_KEY_EXEMPT")

    def check_file(self, source: SourceFile, project: Project
                   ) -> Iterator[Finding]:
        if not source.matches("repro/config.py") or source.tree is None:
            return
        config_class = A.class_def(source.tree, "SimRankConfig")
        if config_class is None:
            return
        fields = A.dataclass_fields(config_class)
        field_names = {name for name, _ in fields}

        exempt_node = A.module_assignment(source.tree, "CACHE_KEY_EXEMPT")
        exempt = A.string_elements(exempt_node) if exempt_node is not None else None
        if exempt is None:
            yield self.finding(
                source, config_class,
                "config module defines no CACHE_KEY_EXEMPT set; every "
                "SimRankConfig field must be keyed or explicitly exempted")
            exempt = []

        keyed = self._cache_key_dict_keys(config_class)
        if keyed is None:
            yield self.finding(
                source, config_class,
                "SimRankConfig.cache_key_fields must return a literal dict "
                "of key fields (the single cache-key derivation)")
            return

        for name, lineno in fields:
            if name not in keyed and name not in exempt:
                yield self.finding(
                    source, lineno,
                    f"SimRankConfig field '{name}' is neither returned by "
                    f"cache_key_fields() nor listed in CACHE_KEY_EXEMPT — "
                    f"cache entries would collide across '{name}' values")
        for name in sorted(set(keyed) & set(exempt)):
            yield self.finding(
                source, config_class,
                f"'{name}' is both cache-keyed and CACHE_KEY_EXEMPT; "
                f"remove it from one of the two")
        for name in sorted(set(exempt) - field_names):
            yield self.finding(
                source, config_class,
                f"CACHE_KEY_EXEMPT names '{name}', which is not a "
                f"SimRankConfig field (stale exemption)")

        declared_node = A.module_assignment(source.tree, "CACHE_KEY_FIELDS")
        declared = (A.string_elements(declared_node)
                    if declared_node is not None else None)
        if declared is not None and set(declared) != set(keyed):
            yield self.finding(
                source, declared_node,
                f"CACHE_KEY_FIELDS {sorted(declared)} does not match the "
                f"keys returned by cache_key_fields() {sorted(keyed)}")

    @staticmethod
    def _cache_key_dict_keys(config_class: ast.ClassDef
                             ) -> Optional[List[str]]:
        for node in config_class.body:
            if isinstance(node, A.FunctionNode) and node.name == "cache_key_fields":
                for child in ast.walk(node):
                    if isinstance(child, ast.Return) and isinstance(
                            child.value, ast.Dict):
                        keys: List[str] = []
                        for key in child.value.keys:
                            if not (isinstance(key, ast.Constant)
                                    and isinstance(key.value, str)):
                                return None
                            keys.append(key.value)
                        return keys
        return None


# --------------------------------------------------------------------- #
# R2 — frozen-config discipline
# --------------------------------------------------------------------- #
FROZEN_CONFIG_CLASSES = ("SimRankConfig", "ServeConfig", "DynamicConfig",
                         "TelemetryConfig", "RunSpec", "ExperimentSpec",
                         "ExperimentCell", "TrainConfig")


@register
class FrozenConfigDiscipline(Rule):
    """No mutation of the frozen config objects outside their modules.

    ``object.__setattr__`` on anything but ``self`` bypasses the frozen
    contract that makes configs safe to share, hash and cache-key; a
    plain attribute assignment on a value built from a config
    constructor would raise at runtime — the rule catches it before the
    code path is ever exercised.
    """

    id = "R2"
    name = "frozen-config-discipline"
    description = ("no attribute assignment / object.__setattr__ on config "
                   "objects outside their defining modules")

    def check_file(self, source: SourceFile, project: Project
                   ) -> Iterator[Finding]:
        if source.tree is None:
            return
        A.attach_parents(source.tree)
        defined_here = {
            node.name for node in ast.walk(source.tree)
            if isinstance(node, ast.ClassDef)}
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Call):
                yield from self._check_setattr(source, node)
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                yield from self._check_assignment(source, node, defined_here)

    def _check_setattr(self, source: SourceFile, node: ast.Call
                       ) -> Iterator[Finding]:
        if A.dotted_name(node.func) != "object.__setattr__":
            return
        if node.args and isinstance(node.args[0], ast.Name) \
                and node.args[0].id == "self":
            return  # the frozen dataclass's own __post_init__ idiom
        yield self.finding(
            source, node,
            "object.__setattr__ on a non-self target bypasses the frozen "
            "config contract; build a new object with with_overrides()")

    def _check_assignment(self, source: SourceFile, node: ast.AST,
                          defined_here: Set[str]) -> Iterator[Finding]:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target])
        for target in targets:
            if not isinstance(target, ast.Attribute):
                continue
            root = target.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if not isinstance(root, ast.Name) or root.id == "self":
                continue
            config_class = self._local_config_type(root, source)
            if config_class is None or config_class in defined_here:
                continue
            yield self.finding(
                source, node,
                f"attribute assignment on a {config_class} instance "
                f"('{root.id}'): configs are frozen — use "
                f"with_overrides() to derive a modified copy")

    @staticmethod
    def _local_config_type(name_node: ast.Name, source: SourceFile
                           ) -> Optional[str]:
        """The frozen-config class ``name_node`` was locally built from.

        Cheap flow-insensitive inference: the enclosing function (or the
        module body) assigned ``name = SimRankConfig(...)`` — or
        annotated ``name: SimRankConfig`` — somewhere.
        """
        scope = A.enclosing(name_node, *A.FunctionNode) or source.tree
        if scope is None:
            return None
        for node in ast.walk(scope):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                callee = (A.dotted_name(node.value.func) or "").split(".")[-1]
                if callee in FROZEN_CONFIG_CLASSES and any(
                        isinstance(t, ast.Name) and t.id == name_node.id
                        for t in node.targets):
                    return callee
            elif isinstance(node, ast.AnnAssign) and isinstance(
                    node.target, ast.Name) and node.target.id == name_node.id:
                annotation = ast.unparse(node.annotation)
                for candidate in FROZEN_CONFIG_CLASSES:
                    if annotation.split(".")[-1] == candidate:
                        return candidate
        return None


# --------------------------------------------------------------------- #
# R3 — determinism in the bit-identical blast radius
# --------------------------------------------------------------------- #
#: Files whose entire contents sit inside the bit-identical guarantee
#: (every worker count must produce the same bytes, and a sweep cell the
#: same record on every run).
DETERMINISM_SCOPED_FILES = ("repro/simrank/engine.py",
                            "repro/simrank/kernels.py",
                            "repro/experiments/engine.py",
                            "repro/serve/service.py",
                            "repro/dynamic/operator.py",
                            "repro/graphs/delta.py",
                            "repro/graphs/fingerprint.py",
                            # Telemetry instruments the scoped layers
                            # above, so it lives under the same clock
                            # discipline: monotonic reads only.
                            "repro/telemetry/tracing.py",
                            "repro/telemetry/metrics.py",
                            "repro/telemetry/runtime.py")


@register
class Determinism(Rule):
    """No global-state randomness / wall-clock ordering / set iteration
    where results are guaranteed bit-identical.

    ``repro/simrank/engine.py``, ``repro/experiments/engine.py`` and
    every registered cell runner promise identical output for every
    worker count and on every run of a sweep cell; global RNG state,
    ``time.time()`` and the hash-order iteration of a ``set`` all break
    that promise in ways a unit test only catches by luck.
    """

    id = "R3"
    name = "determinism"
    description = ("no np.random globals, random.* module functions, "
                   "time.time() or bare set iteration in the bit-identical "
                   "engines and registered cell runners")

    def check_file(self, source: SourceFile, project: Project
                   ) -> Iterator[Finding]:
        if source.tree is None:
            return
        if source.matches(*DETERMINISM_SCOPED_FILES):
            yield from self._check_scope(source, source.tree)
        elif _is_experiment_module(source):
            for call, _ in _experiment_registrations(source):
                runner = _registration_kwarg(call, "cell")
                if isinstance(runner, ast.Name):
                    function = _module_function(source.tree, runner.id)
                    if function is not None:
                        yield from self._check_scope(source, function)

    def _check_scope(self, source: SourceFile, scope: ast.AST
                     ) -> Iterator[Finding]:
        aliases = A.import_aliases(source.tree)  # type: ignore[arg-type]
        for node in ast.walk(scope):
            if isinstance(node, ast.Call):
                yield from self._check_call(source, node, aliases)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                if self._is_set_expression(node.iter, aliases):
                    yield self.finding(
                        source, node,
                        "iteration over a set has hash-dependent order; "
                        "sort it (sorted(...)) before iterating")

    def _check_call(self, source: SourceFile, node: ast.Call,
                    aliases: Dict[str, str]) -> Iterator[Finding]:
        resolved = A.resolve_call_name(node.func, aliases) or ""
        parts = resolved.split(".")
        if parts[0] in ("numpy", "np") and len(parts) >= 3 \
                and parts[1] == "random" and parts[-1] in NUMPY_GLOBAL_RANDOM:
            yield self.finding(
                source, node,
                f"numpy global-state RNG call '{resolved}': thread it "
                f"through an explicit numpy.random.Generator instead")
        elif parts[0] == "random" and len(parts) == 2:
            yield self.finding(
                source, node,
                f"'{resolved}' uses the process-global random module state; "
                f"use an explicit numpy Generator")
        elif resolved in ("time.time", "time.time_ns"):
            yield self.finding(
                source, node,
                "wall-clock time in a bit-identical code path; timestamps "
                "belong in record metadata outside the engines "
                "(use Timer for durations)")
        elif parts[-1] in ("list", "tuple") and len(node.args) == 1 \
                and self._is_set_expression(node.args[0], aliases):
            yield self.finding(
                source, node,
                "materialising a set into a sequence has hash-dependent "
                "order; use sorted(...) for a deterministic order")

    @staticmethod
    def _is_set_expression(node: ast.expr, aliases: Dict[str, str]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            resolved = A.resolve_call_name(node.func, aliases)
            return resolved in ("set", "frozenset")
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
            # set algebra: s1 | s2, s1 & s2, s1 - s2 on set literals
            return (Determinism._is_set_expression(node.left, aliases)
                    or Determinism._is_set_expression(node.right, aliases))
        return False


# --------------------------------------------------------------------- #
# R5 — registry consistency
# --------------------------------------------------------------------- #
@register
class RegistryConsistency(Rule):
    """The experiment and model registries agree with the modules.

    Every ``@experiment`` registration must carry a resolvable spec
    builder and be reachable from the lazy-import table
    ``EXPERIMENT_MODULES`` (and vice versa); every model in
    ``models/registry.py`` must resolve to an imported class and have a
    defaults entry.  A mismatch is a name that imports fine but explodes
    (or silently vanishes) at dispatch time.
    """

    id = "R5"
    name = "registry-consistency"
    description = ("@experiment registrations ↔ EXPERIMENT_MODULES table "
                   "and models _REGISTRY ↔ imports/_DEFAULTS stay in sync")

    def check_project(self, project: Project) -> Iterator[Finding]:
        yield from self._check_experiments(project)
        yield from self._check_models(project)

    # -- experiments -------------------------------------------------- #
    def _check_experiments(self, project: Project) -> Iterator[Finding]:
        registry_files = project.find("repro/experiments/registry.py")
        if not registry_files or registry_files[0].tree is None:
            return
        registry = registry_files[0]
        table_node = A.module_assignment(registry.tree, "EXPERIMENT_MODULES")
        table = (A.str_dict_literal(table_node)
                 if table_node is not None else None)
        if table is None:
            yield self.finding(
                registry, table_node or 1,
                "EXPERIMENT_MODULES must be a literal {name: module} dict "
                "(the lazy-import table the registry dispatches through)")
            return
        module_of: Dict[str, str] = {}
        for name, value in table.items():
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                module_of[name] = value.value

        registered: Dict[str, str] = {}
        for source in project:
            if not _is_experiment_module(source) or source.tree is None:
                continue
            expected_module = "repro.experiments." + source.path.rsplit(
                "/", 1)[-1][:-3]
            names_here: List[str] = []
            for call, name in _experiment_registrations(source):
                if name is None:
                    yield self.finding(
                        source, call,
                        "@experiment name must be a string literal so the "
                        "registry table can be checked statically")
                    continue
                names_here.append(name)
                registered[name] = expected_module
                builder = _registration_kwarg(call, "spec")
                if builder is None:
                    yield self.finding(
                        source, call,
                        f"@experiment('{name}') has no spec= builder; every "
                        f"experiment must be constructible from its spec")
                elif isinstance(builder, ast.Name) and _module_function(
                        source.tree, builder.id) is None:
                    yield self.finding(
                        source, call,
                        f"@experiment('{name}') spec builder "
                        f"'{builder.id}' is not a module-level function "
                        f"of {expected_module}")
                runner = _registration_kwarg(call, "cell")
                if isinstance(runner, ast.Name) and _module_function(
                        source.tree, runner.id) is None \
                        and runner.id not in A.import_aliases(source.tree):
                    # An *imported* runner is legitimate: fig2 registers
                    # table2's cell runner so both experiments share one
                    # ArtifactStore key (the store keys on runner qualname).
                    yield self.finding(
                        source, call,
                        f"@experiment('{name}') cell runner '{runner.id}' "
                        f"is neither defined in nor imported by "
                        f"{expected_module}")
                if name not in module_of:
                    yield self.finding(
                        source, call,
                        f"experiment '{name}' is registered here but missing "
                        f"from EXPERIMENT_MODULES — unreachable by name")
                elif module_of[name] != expected_module:
                    yield self.finding(
                        source, call,
                        f"EXPERIMENT_MODULES maps '{name}' to "
                        f"{module_of[name]!r}, but it is registered in "
                        f"{expected_module}")
            if not names_here:
                yield self.finding(
                    source, 1,
                    "experiment module registers nothing with @experiment — "
                    "either register it or move it to the infra list")

        scanned = {
            "repro.experiments." + source.path.rsplit("/", 1)[-1][:-3]
            for source in project if _is_experiment_module(source)}
        for name, module in sorted(module_of.items()):
            if module in scanned and name not in registered:
                yield self.finding(
                    registry, table_node,
                    f"EXPERIMENT_MODULES lists '{name}' → {module}, but "
                    f"that module registers no @experiment('{name}')")

    # -- models ------------------------------------------------------- #
    def _check_models(self, project: Project) -> Iterator[Finding]:
        registry_files = project.find("repro/models/registry.py")
        if not registry_files or registry_files[0].tree is None:
            return
        registry = registry_files[0]
        aliases = A.import_aliases(registry.tree)
        table_node = A.module_assignment(registry.tree, "_REGISTRY")
        table = (A.str_dict_literal(table_node)
                 if table_node is not None else None)
        if table is None:
            yield self.finding(
                registry, table_node or 1,
                "models _REGISTRY must be a literal {name: factory} dict")
            return
        for name, value in table.items():
            factory = A.dotted_name(value)
            if factory is None or factory.split(".")[0] not in aliases:
                yield self.finding(
                    registry, value,
                    f"model '{name}' maps to {ast.unparse(value)!r}, which "
                    f"is not an imported name — it would NameError at "
                    f"first use")
        defaults_node = A.module_assignment(registry.tree, "_DEFAULTS")
        defaults = (A.str_dict_literal(defaults_node)
                    if defaults_node is not None else None)
        if defaults is None:
            return
        for name in sorted(set(table) - set(defaults)):
            yield self.finding(
                registry, defaults_node,
                f"model '{name}' has no _DEFAULTS entry — "
                f"default_hyperparameters('{name}') would KeyError")
        for name in sorted(set(defaults) - set(table)):
            yield self.finding(
                registry, defaults_node,
                f"_DEFAULTS names unregistered model '{name}' "
                f"(stale entry)")


# --------------------------------------------------------------------- #
# R6 — config-addressability of grid keys
# --------------------------------------------------------------------- #
@register
class ConfigAddressability(Rule):
    """Prefixed grid keys name real fields on their target dataclass.

    ``train.<f>`` / ``simrank.<f>`` grid keys are resolved by
    ``ExperimentSpec._expand`` through ``with_overrides``, and
    ``overrides.<p>`` ends up as a model ``__init__`` keyword — a typo
    survives import and spec construction and only explodes (or worse,
    silently no-ops) deep inside a sweep.
    """

    id = "R6"
    name = "config-addressability"
    description = ("grid-key prefixes overrides./train./simrank. name real "
                   "fields of the target dataclasses")

    def check_project(self, project: Project) -> Iterator[Finding]:
        simrank_fields = self._fields_of(project, "repro/config.py",
                                         "SimRankConfig")
        train_fields = self._fields_of(project, "repro/training/config.py",
                                       "TrainConfig")
        model_params = self._model_init_params(project)
        for source in project:
            if not _is_experiment_module(source) or source.tree is None:
                continue
            for node in ast.walk(source.tree):
                if not isinstance(node, ast.Dict):
                    continue
                for key in node.keys:
                    if not (isinstance(key, ast.Constant)
                            and isinstance(key.value, str)):
                        continue
                    prefix, _, rest = key.value.partition(".")
                    if not rest:
                        continue
                    if prefix == "simrank" and simrank_fields is not None \
                            and rest not in simrank_fields:
                        yield self.finding(
                            source, key,
                            f"grid key 'simrank.{rest}': SimRankConfig has "
                            f"no field '{rest}'")
                    elif prefix == "train" and train_fields is not None \
                            and rest not in train_fields:
                        yield self.finding(
                            source, key,
                            f"grid key 'train.{rest}': TrainConfig has no "
                            f"field '{rest}'")
                    elif prefix == "overrides" and model_params is not None \
                            and rest not in model_params:
                        yield self.finding(
                            source, key,
                            f"grid key 'overrides.{rest}': no model "
                            f"__init__ accepts a '{rest}' parameter")

    @staticmethod
    def _fields_of(project: Project, suffix: str,
                   class_name: str) -> Optional[Set[str]]:
        for source in project.find(suffix):
            if source.tree is None:
                continue
            node = A.class_def(source.tree, class_name)
            if node is not None:
                return {name for name, _ in A.dataclass_fields(node)}
        return None

    @staticmethod
    def _model_init_params(project: Project) -> Optional[Set[str]]:
        params: Set[str] = set()
        found = False
        for source in project:
            if not source.under("models") or not source.under("repro") \
                    or source.tree is None:
                continue
            for node in ast.walk(source.tree):
                if not (isinstance(node, A.FunctionNode)
                        and node.name == "__init__"):
                    continue
                found = True
                arguments = node.args
                for arg in (arguments.args + arguments.kwonlyargs
                            + arguments.posonlyargs):
                    if arg.arg not in ("self", "graph", "rng"):
                        params.add(arg.arg)
        return params if found else None


# --------------------------------------------------------------------- #
# R7 — mutable defaults / bare except
# --------------------------------------------------------------------- #
@register
class MutableDefaultsBareExcept(Rule):
    """No mutable default arguments and no bare ``except:`` in repro.

    A mutable default is shared across calls (the classic aliasing bug);
    a bare ``except:`` swallows ``KeyboardInterrupt``/``SystemExit`` and
    hides the typed repro.errors taxonomy the API promises.
    """

    id = "R7"
    name = "mutable-defaults-bare-except"
    description = "no mutable default args or bare except: under repro/"

    MUTABLE_CALLS = ("list", "dict", "set")

    def check_file(self, source: SourceFile, project: Project
                   ) -> Iterator[Finding]:
        if source.tree is None or not source.under("repro"):
            return
        for node in ast.walk(source.tree):
            if isinstance(node, A.FunctionNode):
                arguments = node.args
                for default in list(arguments.defaults) + [
                        d for d in arguments.kw_defaults if d is not None]:
                    if self._is_mutable(default):
                        yield self.finding(
                            source, default,
                            f"mutable default argument "
                            f"({ast.unparse(default)}) in "
                            f"{node.name}(): shared across calls — use "
                            f"None and materialise inside")
            elif isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.finding(
                    source, node,
                    "bare 'except:' swallows KeyboardInterrupt/SystemExit; "
                    "catch the narrowest repro.errors type that applies")

    def _is_mutable(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        return (isinstance(node, ast.Call)
                and A.dotted_name(node.func) in self.MUTABLE_CALLS
                and not node.args and not node.keywords)


# --------------------------------------------------------------------- #
# R8 — API-surface import hygiene
# --------------------------------------------------------------------- #
@register
class ApiSurfaceImports(Rule):
    """Examples, benchmarks and spec builders stay on the public surface.

    The ROADMAP "refactor freely" policy only holds while everything
    outside ``src/repro`` (and the declarative spec builders inside it)
    consumes the supported surface — one stray
    ``from repro.simrank.engine import ...`` turns an internal module
    into load-bearing API.
    """

    id = "R8"
    name = "api-surface-imports"
    description = ("examples/, benchmarks/ and experiment spec builders "
                   "import only the supported public surface")

    def check_file(self, source: SourceFile, project: Project
                   ) -> Iterator[Finding]:
        if source.tree is None:
            return
        if source.under("examples", "benchmarks"):
            for module, lineno in A.imported_modules(source.tree):
                if module.split(".")[0] != "repro":
                    continue
                if module not in PUBLIC_SURFACE:
                    yield self.finding(
                        source, lineno,
                        f"import of internal module '{module}'; the "
                        f"supported surface is: "
                        f"{', '.join(sorted(PUBLIC_SURFACE))}")
        elif _is_experiment_module(source):
            yield from self._check_spec_builders(source)

    def _check_spec_builders(self, source: SourceFile) -> Iterator[Finding]:
        aliases = A.import_aliases(source.tree)  # type: ignore[arg-type]
        for call, name in _experiment_registrations(source):
            builder = _registration_kwarg(call, "spec")
            if not isinstance(builder, ast.Name):
                continue
            function = _module_function(source.tree, builder.id)
            if function is None:
                continue  # R5 reports the missing builder
            for node in ast.walk(function):
                if not (isinstance(node, ast.Name)
                        and isinstance(node.ctx, ast.Load)):
                    continue
                origin = aliases.get(node.id)
                if origin is None or origin.split(".")[0] != "repro":
                    continue
                module = origin.rsplit(".", 1)[0] if "." in origin else origin
                if module == "repro" or any(
                        module == prefix or module.startswith(prefix + ".")
                        for prefix in BUILDER_SURFACE_PREFIXES):
                    continue
                yield self.finding(
                    source, node,
                    f"spec builder '{builder.id}' of experiment "
                    f"'{name or '?'}' uses '{node.id}' from internal module "
                    f"'{module}'; spec builders are declarative — only "
                    f"{', '.join(BUILDER_SURFACE_PREFIXES)} may appear")


__all__ = [
    "CacheKeyCompleteness", "FrozenConfigDiscipline", "Determinism",
    "RegistryConsistency", "ConfigAddressability",
    "MutableDefaultsBareExcept", "ApiSurfaceImports",
    "EXPERIMENT_INFRA", "NUMPY_GLOBAL_RANDOM", "PUBLIC_SURFACE", "BUILDER_SURFACE_PREFIXES",
    "DETERMINISM_SCOPED_FILES", "FROZEN_CONFIG_CLASSES",
]
