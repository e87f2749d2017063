"""Cross-process stress test for the shared disk cache tier.

Three spawned processes — more than the cores CI runners have — hammer
one directory with overlapping keys under a byte budget small enough to
force evictions and index-log rewrites.  Every value is derived from its
key, so a read that returns anything but ``None`` or exactly its key's
array is a lost or misordered update.  Every mutation holds
``index.lock``, so whenever a worker holds it the index a fresh tier
replays must equal the payload listing and fit the budget; the workers
check that as they go and the test checks it at the end, along with
that no lock is left behind.
"""

import multiprocessing
import os

import numpy as np

from repro.runtime.disk import INDEX_NAME, LOCK_NAME, DiskTier, file_lock

WORKERS = 3
OPS = 1500
CHECK_EVERY = 25
KEYS = tuple(f"key-{i}" for i in range(12))
MAX_BYTES = 2000  # room for about four of the 256-608 B entries
JOIN_TIMEOUT = 120.0


def value_of(key: str) -> np.ndarray:
    index = KEYS.index(key)
    return np.full(16 + 4 * index, float(index))


def check_directory(directory: str) -> None:
    fresh = DiskTier(directory, max_bytes=MAX_BYTES)

    def no_rebuild():
        raise AssertionError("index log did not replay")

    fresh._rebuild_index = no_rebuild
    entries = {name: entry["bytes"] for name, entry in fresh._load_index().items()}
    sizes = {
        name[: -len(".npy")]: os.path.getsize(os.path.join(directory, name))
        for name in os.listdir(directory)
        if name.endswith(".npy") and not name.startswith(".tmp-")
    }
    assert entries == sizes, f"index {entries} does not match payloads {sizes}"
    assert sum(sizes.values()) <= MAX_BYTES, "byte budget exceeded"


def hammer(directory: str, seed: int, start) -> None:
    tier = DiskTier(directory, max_bytes=MAX_BYTES)
    rng = np.random.default_rng(seed)
    start.wait(JOIN_TIMEOUT)  # every worker imported: contend from the first op
    for step in range(OPS):
        key = KEYS[int(rng.integers(len(KEYS)))]
        if rng.random() < 0.5:
            tier.put(key, value_of(key))
        else:
            value = tier.get(key)
            if value is not None and not (
                value.dtype == np.float64 and np.array_equal(value, value_of(key))
            ):
                raise AssertionError(f"{key} read back a different array")
        if step % CHECK_EVERY == 0:
            lock = os.path.join(directory, LOCK_NAME)
            with file_lock(lock, patience=JOIN_TIMEOUT, stale_age=JOIN_TIMEOUT):
                check_directory(directory)


def log_header(directory):
    with open(os.path.join(directory, INDEX_NAME), "rb") as handle:
        return handle.readline()


def test_processes_sharing_one_bounded_directory(tmp_path):
    directory = str(tmp_path)
    assert DiskTier(directory, max_bytes=MAX_BYTES).put(KEYS[0], value_of(KEYS[0]))
    first_header = log_header(directory)

    context = multiprocessing.get_context("spawn")
    start = context.Barrier(WORKERS)
    workers = [
        context.Process(target=hammer, args=(directory, seed, start))
        for seed in range(WORKERS)
    ]
    for worker in workers:
        worker.start()
    try:
        for worker in workers:
            worker.join(JOIN_TIMEOUT)
        assert not any(worker.is_alive() for worker in workers), "a worker hung"
    finally:
        for worker in workers:
            if worker.is_alive():
                worker.kill()
                worker.join(5.0)
    assert [worker.exitcode for worker in workers] == [0] * WORKERS

    check_directory(directory)
    assert not os.path.exists(os.path.join(directory, LOCK_NAME))
    assert log_header(directory) != first_header, "the log was never rewritten"
