"""The benchmark's tracer wraps package functions by name; a rename or
removal would otherwise surface only when a traced benchmark run fails."""

import importlib
import importlib.util
import pathlib
import types

SPANS = pathlib.Path(__file__).resolve().parent.parent / "benchmark" / "spans.py"


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    # Modules by name: the package re-exports a function called simulate.
    gs = types.SimpleNamespace(**{
        name: importlib.import_module(f"gridstate.{name}")
        for name in ("fileio", "simulate", "steady_state", "system")})
    targets = spans.patch_targets(gs)
    assert targets
    missing = [name for owner, attr, name in targets
               if not callable(vars(owner).get(attr))]
    assert missing == []
