"""The benchmark's tracer wraps library functions by (module, attribute)
name; a binding that disappears only shows as a warning in its output, so
the names are checked here."""

import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Bindings the tracer still names although the library no longer has
# them; the next benchmark change drops them from its target list.
STALE = {
    ("monotree.solver", "shortcut_graph"),
    ("monotree.experiment", "monochromatic_components"),
    ("monotree.experiment", "build_component_hypergraph"),
    ("monotree.experiment", "tau_exact"),
}


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_bindings_resolve():
    targets = load_tracing().TARGETS
    missing = {
        (module, attr)
        for module, attr, _ in targets
        if not callable(getattr(importlib.import_module(module), attr, None))
    }
    assert missing <= STALE, sorted(missing - STALE)
