"""The benchmark under ``perfbench/`` still finds what it hooks and imports.

``perfbench/tracer.py`` wraps the program's entry points by name, and the
benchmark scripts import names from ``repro``.  A change that deletes or
renames one of them would otherwise fail only when the benchmark runs;
this test fails it in the tier-1 suite instead.  A second probe checks
that no forward the tracer counts runs inside another, which would count
its sequences twice.  ``tracer.install()`` patches classes for the whole
process, so both probes run in a subprocess.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")

PROBE = r"""
import ast
import glob
import importlib
import os
import sys

import tracer

tracer.install()
missing = []
for path in sorted(glob.glob(os.path.join(sys.argv[1], "*.py"))):
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
            module = importlib.import_module(node.module)
            missing += [
                f"{os.path.basename(path)}: {node.module}.{alias.name}"
                for alias in node.names
                if not hasattr(module, alias.name)
            ]

from repro.core.framework import Observatory

# What perfbench/worker.py calls on the Observatory it builds.
for name in ("pipeline_stats", "prepare_property_data", "executor", "properties", "sweep"):
    if not callable(getattr(Observatory, name, None)):
        missing.append(f"worker.py: Observatory.{name}")

# tracer.py stats DiskTier.index_path after every traced get and catches
# only OSError, so it must stay a property naming a file in the directory.
import tempfile

import numpy as np

from repro.runtime.disk import DiskTier

if not isinstance(getattr(DiskTier, "index_path", None), property):
    missing.append("tracer.py: DiskTier.index_path is not a property")
else:
    with tempfile.TemporaryDirectory() as directory:
        tier = DiskTier(directory)
        tier.put("probe", np.ones(2))
        path = tier.index_path
        if not (
            os.path.isfile(path)
            and os.path.samefile(os.path.dirname(path), directory)
        ):
            missing.append(f"tracer.py: DiskTier.index_path {path!r} is no file in the tier")
print("\n".join(missing) if missing else "ok")
"""


# perfbench/layers.py counts the sequences of every span named below, so a
# forward that calls another hooked forward would count its sequences
# twice.  One exact-backend batch mixes singles, one same-length batch and
# one sequence past the batching cutoff.
NESTING_PROBE = r"""
import tracer

tracer.install()

from repro.models.backends import BATCH_MAX_LENGTH, LocalBackend
from repro.models.registry import load_model
from repro.models.token_array import TokenArray
from tests.conftest import table_tokens

COUNTED = ("encoder.encode", "encoder.forward_batch")
lengths = [12, 20, 20, 20, 31, BATCH_MAX_LENGTH + 9]
arrays = [TokenArray.from_tokens(table_tokens(n, i)) for i, n in enumerate(lengths)]
LocalBackend().encode_batch(load_model("bert").encoder, arrays, batch_size=8)

spans = {span[0]: span for span in tracer.SPANS}  # [id, parent, name, ...]
problems = []
for span in spans.values():
    if span[2] not in COUNTED:
        continue
    parent = spans.get(span[1])
    while parent is not None:
        if parent[2] in COUNTED:
            problems.append(f"{span[2]} inside {parent[2]}")
        parent = spans.get(parent[1])
names = [span[2] for span in spans.values()]
if "encoder.forward_batch" not in names:
    problems.append("no encoder.forward_batch span")
counted = sum(len(span[7][0]) for span in spans.values() if span[2] in COUNTED)
if counted != len(lengths):
    problems.append(f"{counted} sequences counted for {len(lengths)} encoded")
print("\n".join(problems) if problems else "ok")
"""


def run_probe(probe, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), PERFBENCH, ROOT]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-c", probe, *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_tracer_installs_and_benchmark_imports_resolve():
    assert run_probe(PROBE, PERFBENCH) == "ok"


def test_no_counted_encoder_span_nests_in_another():
    assert run_probe(NESTING_PROBE) == "ok"
