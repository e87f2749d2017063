"""The Observatory facade.

One object that wires models, properties, default dataset suites, and the
execution runtime together, so that

    obs = Observatory(seed=0)
    result = obs.characterize("bert", "row_order_insignificance")

runs Definition 1 end to end: infer the property's level of embeddings with
the model over each table of the property's corpus and compute the measure
over the embedding distribution.  Datasets are built lazily at standard
(small) sizes and cached; every entry point also accepts explicit data for
full-control runs.

Execution goes through :mod:`repro.runtime`: each model is wrapped in an
:class:`~repro.runtime.planner.EmbeddingExecutor` sharing one embedding
cache, so repeated requests — within a property, across properties, across
``characterize`` calls — are deduplicated, batched through the encoder,
and served from cache.  ``Observatory.sweep`` runs a whole
(model × property) matrix on a worker pool and returns a structured
:class:`~repro.runtime.sweep.SweepResult`:

    sweep = obs.sweep(["bert", "t5"], ["row_order_insignificance",
                                       "column_order_insignificance"])
    sweep.get("bert", "row_order_insignificance")   # PropertyResult
    sweep.skipped                                   # nothing lost silently
    sweep.cache_stats                               # hit/miss accounting

Pass ``runtime=RuntimeConfig(enabled=False)`` to reproduce the legacy
one-call-at-a-time compute profile (the benchmark baseline).
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Dict, List, Optional, Sequence

from repro.core.properties import (
    ContextConfig,
    EntityStabilityConfig,
    FDConfig,
    JoinRelationshipConfig,
    PerturbationConfig,
    SampleFidelityConfig,
    ShuffleConfig,
)
from repro.core.registry import available_properties, load_property
from repro.core.results import ModelCharacterizations, PropertyResult, SkippedCell
from repro.data.corpus import TableCorpus
from repro.data.drspider import PerturbationSuite
from repro.data.entities import EntityCatalog
from repro.data.nextiajd import NextiaJDGenerator, Testbed
from repro.data.sotab import SotabGenerator
from repro.data.spider import SpiderGenerator
from repro.data.wikitables import WikiTablesGenerator
from repro.errors import ObservatoryError, PropertyConfigError
from repro.models.base import EmbeddingModel
from repro.models.registry import load_model
from repro.runtime.cache import EmbeddingCache
from repro.runtime.pipeline import PipelineStats
from repro.runtime.planner import EmbeddingExecutor, RuntimeConfig
from repro.runtime.sweep import SweepResult, run_sweep
from repro.telemetry import Counters


@dataclasses.dataclass
class DatasetSizes:
    """Default sizes of the lazily built dataset suites.

    Kept deliberately small so the full characterization matrix runs in
    seconds; benchmarks override with larger values.  ``min_rows`` /
    ``max_rows`` bound the rows per generated table and must be set
    together (``None``/``None`` keeps each generator's own default range)
    — benchmarks raise them to measure encode-dominated workloads.
    """

    wikitables_tables: int = 24
    spider_databases: int = 6
    nextiajd_pairs: int = 60
    sotab_tables: int = 40
    n_permutations: int = 24
    min_rows: Optional[int] = None
    max_rows: Optional[int] = None

    def __post_init__(self):
        if (self.min_rows is None) != (self.max_rows is None):
            # A lone bound would silently fight each generator's default
            # for the other bound (e.g. min_rows=15 vs wikitables'
            # default max_rows=12) — require an explicit pair instead.
            raise ValueError("min_rows and max_rows must be set together")
        if self.min_rows is not None and not 2 <= self.min_rows <= self.max_rows:
            raise ValueError("need 2 <= min_rows <= max_rows")

    def row_range_kwargs(self) -> Dict[str, int]:
        """kwargs for generators accepting ``min_rows``/``max_rows``."""
        if self.min_rows is None:
            return {}
        return {"min_rows": self.min_rows, "max_rows": self.max_rows}


class Observatory:
    """Run (model x property x dataset) characterizations."""

    def __init__(
        self,
        seed: int = 0,
        sizes: Optional[DatasetSizes] = None,
        runtime: Optional[RuntimeConfig] = None,
    ):
        self.seed = seed
        self.sizes = sizes or DatasetSizes()
        self.runtime = runtime or RuntimeConfig()
        self.cache: Optional[EmbeddingCache] = self.runtime.build_cache()
        # One encoder backend shared by every model of this Observatory:
        # backends are stateless w.r.t. encoding (the encoder travels per
        # call), so sharing is safe and yields one set of backend counters.
        self.encoder_backend = self.runtime.build_backend()
        self._models: Dict[str, EmbeddingModel] = {}
        self._executors: Dict[str, EmbeddingExecutor] = {}
        self._datasets: Dict[str, object] = {}
        # sweep() runs cells on a worker pool; lazy builders must not race.
        self._model_lock = threading.Lock()
        self._dataset_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lazily built shared resources
    # ------------------------------------------------------------------

    def model(self, name: str) -> EmbeddingModel:
        """Load (and cache) a registered model on the configured backend."""
        with self._model_lock:
            if name not in self._models:
                model = load_model(name)
                setter = getattr(model, "set_backend", None)
                if setter is not None:
                    setter(self.encoder_backend)
                elif self.runtime.backend_name() != "local":
                    # A custom model that can't honor the requested
                    # non-default numerics must fail loudly, not silently
                    # compute on whatever strategy it hard-codes.
                    raise ObservatoryError(
                        f"model {name!r} does not support encoder backends; "
                        f"cannot run it with backend "
                        f"{self.runtime.backend_name()!r}"
                    )
                self._models[name] = model
            return self._models[name]

    def executor(self, name: str) -> EmbeddingExecutor:
        """The runtime executor for a model: cache-backed unless disabled.

        All executors of one Observatory share one embedding cache, so a
        table embedded for any property is a hit for every later request.
        """
        model = self.model(name)
        with self._model_lock:
            if name not in self._executors:
                self._executors[name] = EmbeddingExecutor(
                    model,
                    cache=self.cache,
                    batch_size=self.runtime.batch_size,
                    naive=not self.runtime.enabled,
                    async_encode=self.runtime.enabled and self.runtime.async_encode,
                )
            return self._executors[name]

    # ------------------------------------------------------------------
    # Runtime observability
    # ------------------------------------------------------------------

    def backend_description(self) -> str:
        """Human rendering of the configured encoder backend."""
        return self.encoder_backend.describe()

    def pipeline_stats(self) -> PipelineStats:
        """Async-encode accounting merged across this Observatory's executors."""
        with self._model_lock:
            executors = list(self._executors.values())
        return PipelineStats.merged([e.pipeline_stats for e in executors])

    def counters(self) -> Dict[str, Counters]:
        """Cumulative snapshot of every counter source, by kind.

        The kinds: ``cache`` (while the runtime cache is on), ``pipeline``
        (:meth:`pipeline_stats`), and the encoder backend's
        ``counters_kind`` — ``transport`` for the remote backend.  A sweep
        diffs two snapshots; process-sweep workers ship theirs back to be
        merged kind by kind.
        """
        out: Dict[str, Counters] = {"pipeline": self.pipeline_stats()}
        if self.cache is not None:
            out["cache"] = self.cache.stats.copy()
        kind = getattr(self.encoder_backend, "counters_kind", None)
        if kind is not None:
            out[kind] = self.encoder_backend.stats_snapshot()
        return out

    def _dataset(self, key: str, build) -> object:
        with self._dataset_lock:
            if key not in self._datasets:
                self._datasets[key] = build()
            return self._datasets[key]

    def wikitables(self) -> TableCorpus:
        return self._dataset(
            "wikitables",
            lambda: WikiTablesGenerator(self.seed).generate(
                self.sizes.wikitables_tables, **self.sizes.row_range_kwargs()
            ),
        )

    def spider_sets(self):
        return self._dataset(
            "spider",
            lambda: SpiderGenerator(self.seed).fd_evaluation_sets(
                self.sizes.spider_databases
            ),
        )

    def join_pairs(self, testbed: Testbed = Testbed.XS):
        return self._dataset(
            f"nextiajd/{testbed.value}",
            lambda: NextiaJDGenerator(self.seed).generate_pairs(
                self.sizes.nextiajd_pairs, testbed
            ),
        )

    def perturbation_suite(self) -> PerturbationSuite:
        wikitables = self.wikitables()  # build outside the lock (reentrancy)
        return self._dataset("drspider", lambda: PerturbationSuite(wikitables))

    def sotab(self) -> TableCorpus:
        return self._dataset(
            "sotab",
            lambda: SotabGenerator(self.seed).generate(
                self.sizes.sotab_tables, **self.sizes.row_range_kwargs()
            ),
        )

    def entity_catalog(self) -> EntityCatalog:
        return self._dataset("entities", lambda: EntityCatalog(self.seed))

    def prepare_property_data(self, property_name: str) -> None:
        """Materialize the default dataset a property will ask for.

        ``sweep`` calls this serially before fanning out so worker threads
        only ever read the dataset dict.
        """
        factories = {
            "row_order_insignificance": self.wikitables,
            "column_order_insignificance": self.wikitables,
            "join_relationship": self.join_pairs,
            "functional_dependencies": self.spider_sets,
            "sample_fidelity": self.wikitables,
            "entity_stability": self.entity_catalog,
            "perturbation_robustness": self.perturbation_suite,
            "heterogeneous_context": self.sotab,
        }
        factory = factories.get(property_name)
        if factory is not None:
            factory()

    # ------------------------------------------------------------------
    # Characterization entry points
    # ------------------------------------------------------------------

    def characterize(
        self,
        model_name: str,
        property_name: str,
        *,
        data: Optional[object] = None,
        config: Optional[object] = None,
        partner_model: Optional[str] = None,
    ) -> PropertyResult:
        """Run one property against one model with sensible defaults.

        ``entity_stability`` is pairwise and needs ``partner_model``; every
        other property takes a single model.  ``data``/``config`` override
        the defaults of the property.
        """
        runner = load_property(property_name)
        if property_name == "entity_stability":
            if partner_model is None:
                raise PropertyConfigError(
                    "entity_stability compares two models; pass partner_model"
                )
            pair = (self.executor(model_name), self.executor(partner_model))
            return runner.run(
                pair,
                data if data is not None else self.entity_catalog(),
                config or EntityStabilityConfig(),
            )
        model = self.executor(model_name)
        defaults = {
            "row_order_insignificance": (
                self.wikitables,
                ShuffleConfig(n_permutations=self.sizes.n_permutations),
            ),
            "column_order_insignificance": (
                self.wikitables,
                ShuffleConfig(n_permutations=self.sizes.n_permutations),
            ),
            "join_relationship": (self.join_pairs, JoinRelationshipConfig()),
            "functional_dependencies": (self.spider_sets, FDConfig()),
            "sample_fidelity": (self.wikitables, SampleFidelityConfig()),
            "perturbation_robustness": (self.perturbation_suite, PerturbationConfig()),
            "heterogeneous_context": (self.sotab, ContextConfig()),
        }
        if property_name not in defaults:
            if data is None or config is None:
                raise PropertyConfigError(
                    f"custom property {property_name!r} needs explicit data and config"
                )
            return runner.run(model, data, config)
        data_factory, default_config = defaults[property_name]
        return runner.run(
            model,
            data if data is not None else data_factory(),
            config or default_config,
        )

    def characterize_models(
        self,
        model_names: Sequence[str],
        property_name: str,
        *,
        data: Optional[object] = None,
        config: Optional[object] = None,
    ) -> ModelCharacterizations:
        """Run one property across several models, recording exclusions.

        Models lacking every level the property needs are not run — the
        paper's Table 2 "models in scope" filtering — but they are no
        longer dropped silently: the returned
        :class:`~repro.core.results.ModelCharacterizations` behaves like
        the ``List[PropertyResult]`` it used to be and additionally carries
        a ``skipped`` list of :class:`~repro.core.results.SkippedCell`
        records.
        """
        runner = load_property(property_name)
        results: List[PropertyResult] = []
        skipped: List[SkippedCell] = []
        for name in model_names:
            model = self.model(name)
            if runner.levels and not any(model.supports(lv) for lv in runner.levels):
                needed = "/".join(lv.value for lv in runner.levels)
                skipped.append(
                    SkippedCell(
                        name, property_name, f"model exposes no {needed} embeddings"
                    )
                )
                continue
            results.append(
                self.characterize(name, property_name, data=data, config=config)
            )
        return ModelCharacterizations(results, skipped)

    def apply_deadline(self, deadline) -> None:
        """Thread a live :class:`~repro.runtime.faults.Deadline` down.

        Forwards the sweep's wall-clock budget to every layer that waits:
        the encoder backend's transport retries and the disk tier's lock
        acquisition.  Layers without a ``set_deadline`` hook are skipped —
        the deadline only ever *shortens* patience, never adds failure
        modes of its own.
        """
        for sink in (self.encoder_backend, self.cache):
            setter = getattr(sink, "set_deadline", None)
            if setter is not None:
                setter(deadline)

    def sweep(
        self,
        models: Sequence[str],
        properties: Optional[Sequence[str]] = None,
        *,
        max_workers: Optional[int] = None,
        execution: Optional[str] = None,
        on_error: Optional[str] = None,
        journal_dir: Optional[str] = None,
        resume: bool = False,
        fault_policy=None,
    ) -> SweepResult:
        """Run a (model × property) matrix on a worker pool.

        Independent cells run concurrently (``max_workers`` defaults to
        ``runtime.max_workers``, then the ``REPRO_SWEEP_WORKERS``
        environment variable); every cell is deterministically seeded,
        so the result is identical for any worker count and execution
        mode.  ``execution="thread"`` (default) shares this Observatory's
        embedding cache across a thread pool; ``execution="process"``
        runs cells under the process scheduler
        (:mod:`repro.runtime.scheduler`) on spawned worker processes
        that rebuild models from configuration and share only the
        on-disk cache tier — scaling Python-heavy cells past the GIL,
        dispatching each work group once, with crash salvage.  Unset, the mode
        falls back to ``runtime.execution``, then the
        ``REPRO_SWEEP_EXECUTION`` environment variable, then
        ``"thread"``.  Out-of-scope cells are recorded on
        ``SweepResult.skipped`` rather than dropped.

        ``on_error="degrade"`` records failing cells as typed
        :class:`~repro.runtime.sweep.CellFailure` entries on
        ``SweepResult.failures`` instead of aborting the sweep.
        ``journal_dir`` enables the write-ahead sweep journal
        (:class:`~repro.runtime.journal.SweepJournal`); with
        ``resume=True`` a journal from an interrupted run replays its
        completed cells and only the remainder is dispatched.
        ``fault_policy`` (a :class:`~repro.runtime.faults.FaultPolicy`)
        bounds the sweep's wall clock and sets the process engine's
        crash-salvage retries; ``None`` means no deadline and two retries.
        """
        property_names = (
            list(properties) if properties is not None else available_properties()
        )
        return run_sweep(
            self,
            list(models),
            property_names,
            max_workers=(
                max_workers if max_workers is not None else self.runtime.max_workers
            ),
            execution=execution,
            on_error=on_error,
            journal_dir=journal_dir,
            resume=resume,
            fault_policy=fault_policy,
        )

    @staticmethod
    def properties() -> List[str]:
        return available_properties()
