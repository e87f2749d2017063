"""One OpenBLAS thread per process: the same bits whatever the host says.

``import repro`` pins numpy's OpenBLAS to one thread
(:mod:`repro.models.blas`).  Before the pin, a gemm split over two
threads summed in another order, so encoder outputs, and the property
results built on them, depended on ``OPENBLAS_NUM_THREADS`` and on the
host's core count.  The children below run with the variable unset, 1
and 2, and must agree bit for bit.  The digests are compared with each
other on the same host, never with a committed value, so the gate does
not depend on the hardware.
"""

import ctypes.util
import json
import os
import subprocess
import sys

from repro.models import blas

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CHILD = r"""
import hashlib
import json

from repro import Observatory
from repro.core.framework import DatasetSizes
from repro.models.blas import blas_regime
from repro.models.registry import load_model
from repro.models.token_array import TokenArray
from tests.conftest import table_tokens

encode = hashlib.sha256()
for name in ("bert", "tabert", "taptap"):
    encoder = load_model(name).encoder
    for i, n in enumerate((40, 200, 300, 450)):
        encode.update(encoder.encode(TokenArray.from_tokens(table_tokens(n, i))).tobytes())
sizes = DatasetSizes(wikitables_tables=2, spider_databases=1, nextiajd_pairs=3,
                     sotab_tables=2, n_permutations=2, min_rows=4, max_rows=4)
sweep = Observatory(seed=5, sizes=sizes).sweep(
    ["bert", "taptap"], ["row_order_insignificance", "heterogeneous_context"]
)
cells = {f"{c.model_name}/{c.property_name}": c.result.to_dict() for c in sweep.cells}
print(json.dumps({
    "encode": encode.hexdigest(),
    "sweep": hashlib.sha256(json.dumps(cells, sort_keys=True).encode()).hexdigest(),
    "cells": len(cells),
    "blas": blas_regime(),
}))
"""


def run_child(threads):
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT]
        + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-c", CHILD],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_one_digest_whatever_openblas_num_threads_says():
    runs = {threads: run_child(threads) for threads in (None, "1", "2")}
    assert all(run["cells"] > 0 for run in runs.values())
    digests = {(run["encode"], run["sweep"]) for run in runs.values()}
    assert len(digests) == 1, runs
    # The regime names what computed the bits, the same in every child.
    assert len({run["blas"] for run in runs.values()}) == 1, runs


def test_unpinned_process_says_why(monkeypatch):
    monkeypatch.setattr(blas, "_numpy_openblas_paths", lambda: [])
    assert blas._pin() == "unpinned: no OpenBLAS library is loaded"
    libc = ctypes.util.find_library("c")
    if libc is not None:  # a library without any OpenBLAS entry point
        monkeypatch.setattr(blas, "_numpy_openblas_paths", lambda: [libc])
        assert blas._pin() == (
            f"unpinned: no loadable set_num_threads in {os.path.basename(libc)}"
        )
