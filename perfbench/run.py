"""Repository benchmark: one command per workload, untraced or traced.

    python3 perfbench/run.py --workload sweep-cold --seed 0 --seconds 21 --trace 0

Run from the repository root.  The program is imported from ``src``;
every file the run writes stays under ``.perfbench/`` and the scratch
directory of the run is removed when it ends.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: every end-to-end metric with ``--trace 0``, every per-layer
metric with ``--trace 1``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

import stats  # noqa: E402

# Every Observatory of every run sweeps the same corpus: at sizes a run can
# afford, the cold pass costs up to 20% more or less from one corpus draw
# to the next, which would swamp the changes the benchmark must detect.
# The run's seed drives the service traffic, the index and the appends.
CORPUS_SEED = 0
# The smallest corpora every property accepts (P3 needs three join pairs),
# so the full matrix sweeps cold in about ten seconds on two cores.
SIZES = {
    "wikitables_tables": 2,
    "spider_databases": 1,
    "nextiajd_pairs": 3,
    "sotab_tables": 2,
    "n_permutations": 2,
    "min_rows": 4,
    "max_rows": 4,
}
ALL_MODELS = ("bert", "roberta", "t5", "turl", "doduo", "tapas", "tabert", "tapex", "taptap")
# sweep-disk sweeps these models: every disk put rewrites and every get
# re-parses the whole JSON index, so the full matrix would take minutes.
DISK_MODELS = ("bert", "t5", "tapas", "doduo")
# sweep-cold measures the disk tier on one model only.  Its first pass
# takes about 2.5 s and its rerun about 1 s, so a stall of the shared
# host moves one of them by a fifth; the run takes the median of
# PROBE_REPEATS fresh-process first passes, each into its own empty
# directory, and of PROBE_RERUNS reruns after each, every one on a fresh
# Observatory in that process (a new process would cost more than the
# rerun itself).
DISK_PROBE_MODELS = ("bert",)
PROBE_REPEATS = 3
PROBE_RERUNS = 2
WARM_PASSES = 3
LADDER_STEP_S = 1.0
PROCESS_TIMEOUT_S = 170.0

# Every end-to-end quantity a run measures and prints; the result line
# carries those BENCHMARK.json lists.
END_TO_END = [
    ("setup_s", "s"), ("peak_rss_mb", "MB"), ("ok_share", "ratio"),
    ("sweep_cold_s", "s"), ("sweep_warm_s", "s"), ("disk_first_s", "s"),
    ("disk_rerun_s", "s"), ("char_miss_p50_ms", "ms"), ("char_miss_p90_ms", "ms"),
    ("char_hit_p50_ms", "ms"), ("char_hit_p99_ms", "ms"), ("query_off_p50_ms", "ms"),
    ("query_probe_p50_ms", "ms"), ("query_p99_ms", "ms"), ("append_p50_ms", "ms"),
    ("max_rate_rps", "req/s"),
]
WORKLOADS = ("sweep-cold", "sweep-disk")


class Run:
    """Processes, files and results of one benchmark invocation."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = os.path.join(OUT, f"work-{workload}-{seed}-{os.getpid()}")
        self.procs: List[subprocess.Popen] = []
        self.outputs: Dict[str, dict] = {}
        self.deadline = time.monotonic() + PROCESS_TIMEOUT_S
        os.makedirs(self.work)

    # -- program processes -------------------------------------------------

    def _env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        env["TMPDIR"] = self.work
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        return env

    def spawn(self, name: str, *, models, passes, fresh=(), disk_dir=None, serve=False):
        config = {
            "name": name, "seed": CORPUS_SEED, "sizes": SIZES, "trace": self.trace,
            "models": list(models), "setup_models": list(self.models),
            "passes": list(passes), "fresh": list(fresh), "disk_dir": disk_dir,
            "serve": serve,
            "state_dir": os.path.join(self.work, f"{name}-state"),
            "out": os.path.join(self.work, f"{name}.json"),
        }
        path = os.path.join(self.work, f"{name}-config.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(config, handle)
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), path],
            cwd=ROOT, env=self._env(),
            stdin=subprocess.PIPE if serve else subprocess.DEVNULL,
            stdout=subprocess.PIPE if serve else None, text=True,
        )
        proc.name = name
        proc.out_path = config["out"]
        self.procs.append(proc)
        return proc

    def finish(self, proc) -> dict:
        """Wait for a worker and load what it wrote."""
        if proc.stdin is not None and not proc.stdin.closed:
            proc.stdin.close()
        code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        if code != 0:
            raise RuntimeError(f"worker {proc.name} exited with {code}")
        with open(proc.out_path, "r", encoding="utf-8") as handle:
            out = json.load(handle)
        self.outputs[proc.name] = out
        return out

    def sweep(self, name: str, **kwargs) -> dict:
        return self.finish(self.spawn(name, **kwargs))

    def serve(self, name: str, **kwargs):
        proc = self.spawn(name, serve=True, **kwargs)
        while True:
            line = proc.stdout.readline()
            if not line:
                raise RuntimeError(f"worker {name} exited before serving")
            if line.startswith("READY "):
                return proc, line.split()[1]

    def close(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        shutil.rmtree(self.work, ignore_errors=True)


def _ms_percentile(values: List[float], q: float) -> Dict[str, object]:
    n = len(values)
    value = stats.percentile(values, q) * 1000.0 if n else None
    return {"value": value, "n": n, "beyond": stats.beyond(n, q) if n else 0,
            "supported": stats.supported(n, q)}


def environment() -> Dict[str, object]:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, AttributeError):
        blas = None
    variables = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "thread_vars": {v: os.environ.get(v) for v in variables},
    }


def run_workload(run: Run) -> Dict[str, object]:
    """Execute the workload's processes; returns raw measurements."""
    from repro.core.registry import available_properties

    properties = [p for p in available_properties() if p != "entity_stability"]
    if run.workload == "sweep-cold":
        run.models = ALL_MODELS
        firsts, reruns = [], []
        for i in range(PROBE_REPEATS):
            probe = run.sweep(f"probe-{i}", models=DISK_PROBE_MODELS,
                              disk_dir=os.path.join(run.work, f"probe-cache-{i}"),
                              passes=["first"] + ["rerun"] * PROBE_RERUNS, fresh=["rerun"])
            firsts.append(probe["passes"][0])
            reruns += [(firsts[-1], p) for p in probe["passes"][1:]]
        server, url = run.serve("server", models=ALL_MODELS,
                                passes=["cold"] + ["warm"] * WARM_PASSES)
        passes = _load(server.out_path)["passes"]
        cold = passes[0]
    else:
        run.models = DISK_MODELS
        cache_dir = os.path.join(run.work, "disk-cache")
        run.sweep("setup-only", models=DISK_MODELS, passes=[])
        firsts = [run.sweep("first", models=DISK_MODELS, passes=["first"],
                            disk_dir=cache_dir)["passes"][0]]
        server, url = run.serve("server", models=DISK_MODELS, disk_dir=cache_dir,
                                passes=["rerun"] + ["warm"] * WARM_PASSES)
        passes = _load(server.out_path)["passes"]
        cold, reruns = firsts[0], [(firsts[0], passes[0])]
    warms = [p for p in passes if p["label"] == "warm"]
    out = serve_traffic(run, server, url, properties, reference=cold["cells"])
    # Output checks: every warm pass equals the cold pass, every first pass
    # the first of them, and every disk rerun the first pass it reads.
    checked = [(cold, p) for p in warms] + [(firsts[0], p) for p in firsts[1:]] + reruns
    out.update(
        cold=cold,
        sweep_cold_s=cold["seconds"],
        sweep_warm_s=statistics.median(p["seconds"] for p in warms),
        disk_first_s=statistics.median(p["seconds"] for p in firsts),
        disk_rerun_s=statistics.median(p["seconds"] for _, p in reruns),
        pass_cells=sum(len(p["cells"]) for _, p in checked),
        pass_wrong=sum(_unequal(ref, p) for ref, p in checked),
        pass_failures=sum(len(p["failures"]) for o in run.outputs.values()
                          for p in o["passes"]),
        setups=[o["setup_s"] for o in run.outputs.values()],
        peak_rss_mb=max(o["peak_rss_mb"] for o in run.outputs.values()),
    )
    return out


def _load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _unequal(reference: dict, other: dict) -> int:
    """Cells of ``other`` whose result differs from ``reference``, or is missing."""
    ref, got = reference["cells"], other["cells"]
    return sum(1 for key in set(ref) | set(got) if ref.get(key) != got.get(key))


def serve_traffic(run: Run, server, url: str, properties, reference) -> Dict[str, object]:
    """Index set-up, nominal open loop, rate ladder and checks; stops the server."""
    from repro.service.client import ServiceClient
    from traffic import CHAR_RATE, INDEX_RATE, Traffic, step_summary

    client_totals = _client_totals() if run.trace else None
    try:
        traffic = Traffic(url, run.work, run.seed, run.models, properties, reference)
        index_build_s = traffic.build_index()
        nominal = traffic.run(traffic.schedule(CHAR_RATE, INDEX_RATE, run.seconds), "nominal")
        nominal_step = step_summary(nominal, CHAR_RATE)
        ladder = traffic.ladder(nominal_step, LADDER_STEP_S)
        with ServiceClient(url) as client:
            service_stats = client.stats()
            index_info = client.index_info(traffic.index_dir)
    finally:
        server_out = run.finish(server)
    checks = traffic.check()
    return {
        "traffic": traffic, "checks": checks, "index_build_s": index_build_s,
        "service_start_s": server_out["service_start_s"], "nominal": nominal,
        "nominal_step": nominal_step, "ladder": ladder, "service_stats": service_stats,
        "index_info": index_info, "client_totals": client_totals,
    }


def _client_totals() -> Dict[str, float]:
    """Traced runs only: the generator's HTTP response bytes and request seconds.

    Request seconds sum every ``ServiceClient.request`` round trip, job
    polls included, so they pair with the server's dispatch spans.
    """
    import http.client
    import threading

    from repro.service.client import ServiceClient

    total = {"bytes": 0, "seconds": 0.0}
    lock = threading.Lock()
    read, request = http.client.HTTPResponse.read, ServiceClient.request

    def counted_read(self, amt=None):
        data = read(self, amt)
        with lock:
            total["bytes"] += len(data)
        return data

    def timed_request(self, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return request(self, *args, **kwargs)
        finally:
            with lock:
                total["seconds"] += time.perf_counter() - t0

    http.client.HTTPResponse.read = counted_read
    ServiceClient.request = timed_request
    return total


def end_to_end(raw: Dict[str, object]) -> Dict[str, object]:
    """Every end-to-end metric, its sample count, and the failure tally."""
    from traffic import MISS_P90_LIMIT_MS

    nominal = raw["nominal"]
    timing = {k: [] for k in ("miss", "hit", "query_off", "query_probe", "append")}
    failed = 0
    for record in nominal:
        bad = "error" in record or record.get("wrong")
        failed += bool(bad)
        if not bad:
            timing[record["kind"]].append(record["end"] - record["due"])
    attempted = len(nominal) + raw["pass_cells"]
    failed += raw["pass_wrong"] + raw["pass_failures"]
    queries = timing["query_off"] + timing["query_probe"]
    percentiles = {
        "char_miss_p50_ms": _ms_percentile(timing["miss"], 50),
        "char_miss_p90_ms": _ms_percentile(timing["miss"], 90),
        "char_hit_p50_ms": _ms_percentile(timing["hit"], 50),
        "char_hit_p99_ms": _ms_percentile(timing["hit"], 99),
        "query_off_p50_ms": _ms_percentile(timing["query_off"], 50),
        "query_probe_p50_ms": _ms_percentile(timing["query_probe"], 50),
        "query_p99_ms": _ms_percentile(queries, 99),
        "append_p50_ms": _ms_percentile(timing["append"], 50),
    }
    steps = [raw["nominal_step"]] + raw["ladder"]
    best = stats.ladder_max_rate(steps, MISS_P90_LIMIT_MS)
    values = {
        "setup_s": statistics.median(raw["setups"]) + raw["service_start_s"]
        + raw["index_build_s"],
        "peak_rss_mb": raw["peak_rss_mb"],
        "ok_share": 1.0 - failed / attempted,
        "sweep_cold_s": raw["sweep_cold_s"],
        "sweep_warm_s": raw["sweep_warm_s"],
        "disk_first_s": raw["disk_first_s"],
        "disk_rerun_s": raw["disk_rerun_s"],
        "max_rate_rps": (best or steps[0])["served_rps"],
    }
    values.update({k: v["value"] for k, v in percentiles.items()})
    lateness = {
        stream: stats.open_loop([r for r in nominal if r["stream"] == stream])["lateness"]
        for stream in ("char", "index")
    }
    return {
        "values": values, "percentiles": percentiles, "attempted": attempted,
        "failed": failed, "ladder": steps, "ladder_passed": best is not None,
        "lateness_ms": {
            stream: {"p50": stats.percentile(late, 50) * 1000.0, "max": max(late) * 1000.0}
            for stream, late in lateness.items()
        },
    }


def inputs(raw: Dict[str, object]) -> Dict[str, float]:
    """Input shares the numbers depend on."""
    nominal = raw["nominal"]
    chars = [r for r in nominal if r["kind"] in ("hit", "miss")]
    cold_cache = raw["cold"]["cache"]
    return {
        "sweep_reuse": cold_cache["hits"] / max(1, cold_cache["hits"] + cold_cache["misses"]),
        "result_hit_share": sum(r["kind"] == "hit" for r in chars) / max(1, len(chars)),
        "append_share": sum(r["kind"] == "append" for r in nominal) / max(1, len(nominal)),
    }


def per_layer(run: Run, raw: Dict[str, object]) -> Dict[str, object]:
    """Per-layer metrics and self-checks from every process's spans."""
    import layers

    spans = (proc.out_path + ".spans" for proc in run.procs)
    dumps = [_load(path) for path in spans if os.path.exists(path)]
    cache = {"hits": 0, "misses": 0, "evictions": 0}
    pipeline = {"sequences": 0, "wait_seconds": 0.0, "encode_seconds": 0.0}
    for out in run.outputs.values():
        final = out.get("after_serve") or out["after_passes"]
        for key in cache:
            cache[key] += (final["cache"] or {}).get(key, 0)
        for key in pipeline:
            pipeline[key] += final["pipeline"][key]
    encode = pipeline["encode_seconds"]
    pipeline["overlap_ratio"] = (
        max(0.0, encode - pipeline["wait_seconds"]) / encode if encode else 0.0
    )
    records = raw["traffic"].records
    client = {
        "round_trip_s": raw["client_totals"]["seconds"],
        "resp_bytes": raw["client_totals"]["bytes"],
        "hits": sum(r["kind"] == "hit" for r in records),
    }
    counters = {"cache": cache, "pipeline": pipeline, "service": raw["service_stats"],
                "index_info": raw["index_info"]}
    return layers.derive(dumps, raw["cold"], counters, client)


def _error_summary(records) -> Dict[str, int]:
    """Count of each (phase, kind, message) among failed or wrong requests."""
    counts: Dict[str, int] = {}
    for r in records:
        if "error" in r or r.get("wrong"):
            key = f"{r['phase']} {r['kind']}: {r.get('error', 'wrong output')[:160]}"
            counts[key] = counts.get(key, 0) + 1
    return counts


def _record_path(workload: str, seed: int, trace: bool) -> str:
    return os.path.join(OUT, "results", f"{workload}-seed{seed}-trace{int(trace)}.json")


def _untraced_reference(workload: str, seed: int) -> Optional[dict]:
    """The untraced record of the same seed, else the newest of the workload."""
    exact = _record_path(workload, seed, False)
    if os.path.exists(exact):
        return _load(exact)
    found = sorted(glob.glob(os.path.join(OUT, "results", f"{workload}-seed*-trace0.json")),
                   key=os.path.getmtime)
    return _load(found[-1]) if found else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program to benchmark: {SRC}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # A terminated run still stops its workers and removes its scratch files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    trace = bool(args.trace)
    run = Run(args.workload, args.seed, args.seconds, trace)
    try:
        raw = run_workload(run)
        layer = per_layer(run, raw) if trace else None
    finally:
        run.close()

    e2e = end_to_end(raw)
    checks = raw["checks"]
    recalls = checks["probe_recalls"]
    from repro.index.column_index import PROBE_RECALL_FLOOR
    from traffic import MISS_P90_LIMIT_MS

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": trace, "environment": environment(), "inputs": inputs(raw),
        "end_to_end": e2e["values"], "percentiles": e2e["percentiles"],
        "attempted": e2e["attempted"], "failed": e2e["failed"],
        "output_checks": {
            "pass_cells": raw["pass_cells"], "pass_wrong": raw["pass_wrong"],
            "wrong_requests": checks["wrong"],
            "probe_recall_mean": statistics.mean(recalls) if recalls else None,
            "probe_recall_min": min(recalls) if recalls else None,
            "probe_recall_floor": PROBE_RECALL_FLOOR,
        },
        "generator_lateness_ms": e2e["lateness_ms"],
        "ladder": e2e["ladder"], "ladder_limit_ms": MISS_P90_LIMIT_MS,
        "setups": raw["setups"], "index_build_s": raw["index_build_s"],
        "service_start_s": raw["service_start_s"],
    }
    unsupported = [k for k, v in e2e["percentiles"].items() if not v["supported"]]
    # A run is correct when every output it got back is right and every
    # named percentile has its samples.  A request that failed or was
    # refused has no output: it counts in ``failed`` and ``ok_share``
    # (at the nominal rate), and on the ladder it fails its step.
    ladder_errors = sum(1 for r in raw["traffic"].records
                        if r["phase"] != "nominal" and "error" in r and not r.get("rejected"))
    record["output_checks"]["ladder_errors"] = ladder_errors
    record["errors"] = _error_summary(raw["traffic"].records)
    problems = {
        "wrong_pass_cells": raw["pass_wrong"],
        "wrong_requests": sum(checks["wrong"].values()),
        "unsupported_percentiles": unsupported,
    }
    if record["errors"]:
        print(f"failed requests: {json.dumps(record['errors'])}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, unit in END_TO_END:
        line = f"  {name:22s} {e2e['values'][name]!r:>24} {unit}"
        if name in e2e["percentiles"]:
            p = e2e["percentiles"][name]
            line += f"  (n={p['n']}, beyond={p['beyond']})"
        print(line)
    print(f"  output checks: {json.dumps(record['output_checks'])}")
    print(f"  generator lateness ms: {json.dumps(e2e['lateness_ms'])}")
    print(f"  inputs: {json.dumps(record['inputs'])}")
    print(f"  ladder: {json.dumps(e2e['ladder'], default=str)}")
    if unsupported:
        print(f"  unsupported percentiles: {unsupported}")

    if trace:
        import layers

        record["per_layer"] = layer["metrics"]
        record["self_checks"] = layer["checks"]
        print(f"  self-checks: {json.dumps(layer['checks'])}")
        problems["failed_self_checks"] = [k for k, v in layer["checks"].items()
                                          if not k.endswith("_checked") and not v]
        baseline = _untraced_reference(args.workload, args.seed)
        if baseline is not None:
            overhead = {k: e2e["values"][k] - baseline["end_to_end"][k]
                        for k in e2e["values"] if baseline["end_to_end"].get(k) is not None}
            record["tracing_overhead"] = {"untraced_seed": baseline["seed"], **overhead}
            print(f"  tracing overhead vs untraced seed {baseline['seed']}: "
                  + ", ".join(f"{k} {v:+.4g}" for k, v in overhead.items()))
        else:
            print("  tracing overhead: no untraced record of this workload yet")
        metrics = {name: {"value": layer["metrics"][name], "unit": unit}
                   for name, unit, _ in layers.METRICS}
    else:
        metrics = {name: {"value": e2e["values"][name], "unit": unit}
                   for name, unit in END_TO_END}
    # BENCHMARK.json names the metrics the result line carries.
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        listed = json.load(handle)["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: metrics[m["name"]] for m in listed}

    path = _record_path(args.workload, args.seed, trace)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, default=str)
    correct = not any(problems.values())
    if not correct:
        print(f"incorrect run: {json.dumps(problems)}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": e2e["attempted"],
                      "failed": e2e["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
