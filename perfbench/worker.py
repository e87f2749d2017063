"""One program process of a benchmark run: sweep passes, then optionally serve.

Run as ``python3 perfbench/worker.py CONFIG.json`` with ``src`` on
``PYTHONPATH``.  The process sets up an ``Observatory`` (imports, dataset
generation, model construction), runs the configured full-matrix sweep
passes, and writes their timings and results to ``config["out"]``.  A pass
whose label is in ``config["fresh"]`` sweeps a newly built Observatory
instead (built before its timer starts): an empty memory tier over the
same disk tier, so the pass reads the disk tier without a new process.  With
``serve`` set it then starts the characterization service on the same,
now warm, Observatory (built as ``repro serve`` builds it), prints
``READY <url>`` and serves until its standard input closes.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def _observatory(config, models):
    """An Observatory over the configured disk tier, its data and ``models`` built."""
    from repro.core.framework import DatasetSizes, Observatory
    from repro.runtime import RuntimeConfig

    runtime = RuntimeConfig(disk_cache_dir=config.get("disk_dir"))
    observatory = Observatory(
        seed=config["seed"], sizes=DatasetSizes(**config["sizes"]), runtime=runtime
    )
    for name in observatory.properties():
        observatory.prepare_property_data(name)
    for model in models:
        observatory.executor(model)
    return observatory


def _pass_record(sweep, seconds, cache_before):
    cache = sweep.cache_stats
    return {
        "seconds": seconds,
        "cache": {"hits": cache.hits - cache_before[0], "misses": cache.misses - cache_before[1]},
        "workers": sweep.workers,
        "cells": {
            f"{c.model_name}/{c.property_name}": c.result.to_dict() for c in sweep.cells
        },
        "records": sweep.records,
        "skipped": len(sweep.skipped),
        "failures": [f.to_jsonable() for f in sweep.failures],
    }


def _counters(observatories):
    """Cache and pipeline counters summed over the process's Observatories."""
    from repro.runtime import CacheStats, PipelineStats

    caches = [o.cache.stats for o in observatories if o.cache]
    pipeline = PipelineStats.merged([o.pipeline_stats() for o in observatories])
    return {"cache": CacheStats.merged(caches).to_dict() if caches else None,
            "pipeline": pipeline.to_dict()}


def _write(path: str, payload: dict) -> None:
    with open(path + ".tmp", "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    os.replace(path + ".tmp", path)


def main(config_path: str) -> int:
    with open(config_path, "r", encoding="utf-8") as handle:
        config = json.load(handle)
    trace = bool(config["trace"])
    if trace:
        import tracer

        tracer.install()
    out = {"setup_s": None, "passes": []}
    observatory = _observatory(config, config["setup_models"])
    out["setup_s"] = time.perf_counter() - STARTED
    built = [observatory]

    def run_passes():
        for label in config["passes"]:
            target = observatory
            if label in config.get("fresh", ()):
                target = _observatory(config, config["models"])
                built.append(target)
            stats = target.cache.stats
            before = (stats.hits, stats.misses)
            t0 = time.perf_counter()
            sweep = target.sweep(config["models"])
            seconds = time.perf_counter() - t0
            out["passes"].append(dict(_pass_record(sweep, seconds, before), label=label))

    # Phase times taken here, outside the span code, for the self-checks.
    phases = {}
    t0 = time.perf_counter()
    if trace:
        tracer.root("bench.passes", run_passes)
    else:
        run_passes()
    phases["passes"] = [t0, time.perf_counter()]
    out["after_passes"] = _counters(built)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _write(config["out"], out)

    if config.get("serve"):
        from repro.service import CharacterizationService, ServiceConfig

        t0 = time.perf_counter()
        service = CharacterizationService(
            observatory, config=ServiceConfig(state_dir=config["state_dir"])
        ).start()
        out["service_start_s"] = time.perf_counter() - t0
        print(f"READY {service.url}", flush=True)
        t0 = time.perf_counter()
        if trace:
            tracer.root("bench.serve", sys.stdin.read)
        else:
            sys.stdin.read()
        phases["serve"] = [t0, time.perf_counter()]
        service.close()
        out["service_stats"] = service.stats_snapshot()
        out["after_serve"] = _counters(built)

        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        _write(config["out"], out)
    if trace:
        tracer.dump(config["out"] + ".spans", config["name"], STARTED, phases)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
