"""The benchmark under ``perfbench/`` still finds what it hooks and imports.

``perfbench/tracer.py`` wraps the program's entry points by name, and the
benchmark scripts import names from ``repro``.  A change that deletes or
renames one of them would otherwise fail only when the benchmark runs;
this test fails it in the tier-1 suite instead.  ``tracer.install()``
patches classes for the whole process, so it runs in a subprocess.
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
print("\n".join(missing) if missing else "ok")
"""


def test_tracer_installs_and_benchmark_imports_resolve():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), PERFBENCH]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-c", PROBE, PERFBENCH],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok", done.stdout
