"""The names the benchmark in perfbench/ reads from the program still exist.

perfbench traces functions and classes by module and name, and its
workloads and driver import program names directly.  A refactor that
renames, moves or deletes one of them breaks the benchmark run; these
tests make it fail here first.  They read perfbench/ and change nothing
there.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import biosketch.cli  # noqa: F401  (spans.install rebinds names in every loaded module)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


def _resolve(name: str):
    mod_name, attr = name.split(".")
    return getattr(importlib.import_module(f"biosketch.{mod_name}"), attr, None)


@pytest.mark.parametrize("name", spans.span_names())
def test_traced_name_resolves_in_its_module(name):
    mod_name, attr = name.split(".")
    value = _resolve(name)
    if attr in spans.TRACED_CLASSES.get(mod_name, ()):
        assert inspect.isclass(value) and "__init__" in vars(value)
    else:
        assert inspect.isfunction(value)


def test_tracer_installs_and_uninstalls():
    originals = {name: _resolve(name) for name in spans.span_names()}
    spans.uninstall(spans.install(spans.Tracer(batch_trials=1)))
    assert {name: _resolve(name) for name in originals} == originals


@pytest.mark.parametrize("metric", ["frr", "far", "sar"])
def test_estimator_table_holds_the_module_functions(metric):
    # spans.install rebinds dict values by identity and reads args[0].trials
    harness = importlib.import_module("biosketch.harness")
    estimator = harness._ESTIMATORS[metric]
    assert estimator is getattr(harness, f"estimate_{metric}")
    assert f"harness.estimate_{metric}" in spans.ESTIMATORS
    first = next(iter(inspect.signature(estimator).parameters.values()))
    assert first.name == "config"
    assert first.kind in (inspect.Parameter.POSITIONAL_ONLY,
                          inspect.Parameter.POSITIONAL_OR_KEYWORD)


def _program_names(path: Path) -> list[tuple[str, str]]:
    """(module, attribute) pairs a perfbench file reads from the program."""
    tree = ast.parse(path.read_text())
    aliases: dict[str, str] = {}  # local name -> biosketch module
    names: list[tuple[str, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "biosketch":
                    aliases[alias.asname or "biosketch"] = \
                        alias.name if alias.asname else "biosketch"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("biosketch"):
            for alias in node.names:
                target = getattr(importlib.import_module(node.module), alias.name, None)
                if inspect.ismodule(target):
                    aliases[alias.asname or alias.name] = target.__name__
                else:
                    names.append((node.module, alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in aliases:
            names.append((aliases[node.value.id], node.attr))
    return names


def test_perfbench_reads_names_that_exist():
    reads = {(path.name, mod, attr) for path in sorted(PERFBENCH.glob("*.py"))
             for mod, attr in _program_names(path)}
    # the workloads' set-up and the driver's entry point are among them
    assert ("workloads.py", "biosketch.codes", "build_coset_table") in reads
    assert ("run.py", "biosketch.cli", "main") in reads
    missing = [(file, mod, attr) for file, mod, attr in sorted(reads)
               if not hasattr(importlib.import_module(mod), attr)]
    assert missing == []
