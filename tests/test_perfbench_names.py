"""The names the benchmark's tracer patches must exist where it looks them up.

``perfbench/tracing.py`` wraps the functions listed in ``TRACED`` from
outside the package: plain names as module attributes, ``Class.method``
entries in the class's own ``__dict__``.  Moving or renaming one of them
breaks only the traced benchmark run, so this test reads the list and checks
each lookup.  It imports the tracing module and changes nothing in it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PACKAGE, module.TRACED


PACKAGE, TRACED = _traced()
ENTRIES = [(layer, entry) for layer, entries in TRACED.items() for entry in entries]


@pytest.mark.parametrize("layer, entry", ENTRIES, ids=[".".join(pair) for pair in ENTRIES])
def test_traced_name_resolves_where_install_looks(layer, entry):
    module = importlib.import_module(f"{PACKAGE}.{layer}")
    if "." in entry:
        cls_name, method = entry.split(".")
        assert callable(vars(getattr(module, cls_name)).get(method))
    else:
        assert callable(getattr(module, entry, None))


def test_cli_names_the_benchmark_uses():
    cli = importlib.import_module(f"{PACKAGE}.cli")
    assert isinstance(cli.ANALYSIS_RUNNERS, dict) and cli.ANALYSIS_RUNNERS
    assert all(callable(run) for run in cli.ANALYSIS_RUNNERS.values())
    assert callable(cli._build_initial_map)
