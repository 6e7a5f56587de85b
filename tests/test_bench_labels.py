"""The benchmark's per-layer metrics name live functions.

perfbench traces every public function of the package under the label
``<module>.<function>`` (``<module>.<class>.<staticmethod>`` for a static
method), and a label that names nothing reads 0 instead of failing. So each
timed label in BENCHMARK.json must resolve to a function the tracer wraps.
"""

import importlib
import inspect
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
TIMED = ("calls", "total_s", "self_s", "ms_p50")
# benchmark.cell is timed by the harness itself; triplets.LeafIndex.build
# names a deleted class and goes with the next change to the benchmark
EXEMPT = {"benchmark.cell", "triplets.LeafIndex.build"}


def _traced(label: str) -> bool:
    module, *path = label.split(".")
    obj = importlib.import_module(f"partembed.{module}")
    for name in path:
        if name.startswith("_") or not hasattr(obj, name):
            return False
        owner, obj = obj, getattr(obj, name)
    if inspect.isclass(owner):
        return isinstance(inspect.getattr_static(owner, path[-1]), staticmethod)
    return inspect.isfunction(obj) and obj.__module__ == f"partembed.{module}"


def test_timed_labels_name_traced_functions():
    metrics = json.loads(BENCHMARK.read_text())["per_layer"]
    labels = {m["name"].rsplit(".", 1)[0] for m in metrics
              if m["name"].rsplit(".", 1)[1] in TIMED}
    assert len(labels) > 20
    assert sorted(label for label in labels - EXEMPT if not _traced(label)) == []
