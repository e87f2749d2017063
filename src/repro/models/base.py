"""Embedding-model interface and the configurable surrogate implementation.

:class:`EmbeddingModel` is the contract Observatory properties program
against — the paper's extensibility point ("researchers can analyze new
models by specifying the procedure of embedding inference following the
implemented interface").  :class:`SurrogateModel` is the deterministic
numpy implementation driven entirely by a :class:`ModelConfig`; the model
zoo instantiates it nine ways.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.telemetry as telemetry
from repro.core.levels import EmbeddingLevel
from repro.errors import ModelError, UnsupportedLevelError
from repro.models import aggregate
from repro.models.backends import resolve_backend
from repro.models.config import ModelConfig, Serialization
from repro.models.encoder import Encoder
from repro.models.serializers import (
    ColumnWiseSerializer,
    RowTemplateSerializer,
    RowWiseSerializer,
)
from repro.models.token_array import TokenArray
from repro.relational.table import Table
from repro.text.tokenizer import Tokenizer, TokenizerConfig


class EmbeddingModel(abc.ABC):
    """Contract every analyzable model implements.

    All ``embed_*`` methods are total over the model's supported levels and
    raise :class:`UnsupportedLevelError` otherwise.  Embeddings are
    deterministic functions of the input table.
    """

    name: str
    dim: int

    @abc.abstractmethod
    def supported_levels(self) -> frozenset:
        """The :class:`EmbeddingLevel` values this model exposes."""

    def supports(self, level: EmbeddingLevel) -> bool:
        return level in self.supported_levels()

    @abc.abstractmethod
    def embed_columns(self, table: Table) -> np.ndarray:
        """Column embeddings, shape [table.num_columns, dim]."""

    @abc.abstractmethod
    def embed_rows(self, table: Table) -> np.ndarray:
        """Row embeddings for serialized rows, shape [k, dim] with k <= num_rows.

        Serialization keeps a prefix of the table's rows, so row ``i`` of the
        result corresponds to row ``i`` of the input table.
        """

    @abc.abstractmethod
    def embed_table(self, table: Table) -> np.ndarray:
        """Whole-table embedding, shape [dim]."""

    @abc.abstractmethod
    def embed_cells(
        self, table: Table, coords: Sequence[Tuple[int, int]]
    ) -> Dict[Tuple[int, int], np.ndarray]:
        """Embeddings of specific cells; coordinates truncated away are absent."""

    @abc.abstractmethod
    def embed_entities(self, table: Table) -> Dict[str, np.ndarray]:
        """Embeddings of linked entities, keyed by entity id."""

    @abc.abstractmethod
    def embed_value_column(
        self, header: str, values: Sequence[object]
    ) -> np.ndarray:
        """Embedding of a standalone column (header + values), shape [dim].

        Columns longer than the input limit are chunked with the shared
        header and the chunk embeddings aggregated (Measure 5 protocol).
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, dim={self.dim})"


@dataclasses.dataclass
class LevelBatchPlan:
    """Serialized half of a level-batch request (see ``serialize_levels``).

    Holds everything :meth:`SurrogateModel.finish_levels` needs to turn
    encoder outputs back into per-table level bundles — the seam that lets
    the streaming executor serialize chunk *k+1* while chunk *k*'s token
    lists are still inside the encoder.
    """

    tables: List[Table]
    effectives: List[Table]
    token_lists: List[TokenArray]
    levels_list: List[Tuple[EmbeddingLevel, ...]]


class SurrogateModel(EmbeddingModel):
    """Config-driven surrogate: tokenize -> serialize -> encode -> aggregate."""

    def __init__(self, config: ModelConfig, backend=None):
        self.config = config
        self.name = config.name
        self.dim = config.dim
        self.tokenizer = Tokenizer(
            config=TokenizerConfig(lowercase=config.lowercase)
        )
        self.encoder = Encoder(config, backend=backend)
        if config.serialization == Serialization.COLUMN_WISE:
            self._serializer = ColumnWiseSerializer(
                self.tokenizer,
                config.max_tokens,
                include_header=config.header_weight > 0,
            )
        elif config.serialization == Serialization.ROW_TEMPLATE:
            self._serializer = RowTemplateSerializer(self.tokenizer, config.max_tokens)
        else:
            self._serializer = RowWiseSerializer(
                self.tokenizer,
                config.max_tokens,
                include_header=config.header_weight > 0,
                include_caption=config.include_caption,
            )

    # ------------------------------------------------------------------
    # Encoder backend
    # ------------------------------------------------------------------

    @property
    def backend(self):
        """The encoder's batching strategy (:mod:`repro.models.backends`)."""
        return self.encoder.backend

    def set_backend(self, backend) -> "SurrogateModel":
        """Swap the batching strategy; embeddings of an exact backend
        (local, or remote with float64 states) are bit-identical, the
        remote float32 tier is within its documented tolerance.  Returns
        self for chaining."""
        self.encoder.backend = resolve_backend(backend)
        return self

    # ------------------------------------------------------------------
    # Pipeline plumbing
    # ------------------------------------------------------------------

    def _effective_table(self, table: Table) -> Table:
        """Apply the model's internal input policy (TaBERT content snapshot)."""
        k = self.config.content_snapshot_rows
        if k is not None and table.num_rows > k:
            return table.head(k)
        return table

    def _encode_table(self, table: Table) -> Tuple[TokenArray, np.ndarray, Table]:
        if self.config.serialization == Serialization.ROW_TEMPLATE:
            raise ModelError(
                f"{self.name} encodes rows independently; use embed_rows"
            )
        effective = self._effective_table(table)
        with telemetry.span("serialize"):
            tokens = self._serializer.serialize(effective)
        with telemetry.span("encode"):
            states = self.encoder.encode(tokens)
        return tokens, states, effective

    def fitted_rows(self, table: Table) -> int:
        """How many leading rows of ``table`` the model actually ingests."""
        effective = self._effective_table(table)
        if self.config.serialization == Serialization.ROW_TEMPLATE:
            return effective.num_rows
        return max(1, min(effective.num_rows, self._serializer.fit_rows(effective)))

    def _require(self, level: EmbeddingLevel) -> None:
        if not self.config.supports(level):
            raise UnsupportedLevelError(self.name, level.value)

    def supported_levels(self) -> frozenset:
        return self.config.levels

    # ------------------------------------------------------------------
    # Bundled / batched level embeddings (the runtime's fast path)
    # ------------------------------------------------------------------

    def _aggregate_level(
        self,
        level: EmbeddingLevel,
        tokens: TokenArray,
        states: np.ndarray,
        table: Table,
        effective: Table,
    ) -> np.ndarray:
        """One level's aggregate from an already-encoded table."""
        if level == EmbeddingLevel.COLUMN:
            return aggregate.column_embeddings(
                tokens,
                states,
                table.num_columns,
                header_weight=self.config.header_weight,
                use_cls_anchor=self.config.cls_per_column,
            )
        if level == EmbeddingLevel.ROW:
            n_rows = aggregate.embedded_row_count(tokens)
            return aggregate.row_embeddings(
                tokens, states, min(n_rows, effective.num_rows)
            )
        if level == EmbeddingLevel.TABLE:
            return aggregate.table_embedding(
                tokens, states, header_weight=self.config.header_weight
            )
        raise ModelError(f"level {level} has no bundled aggregate")

    def embed_levels(
        self, table: Table, levels: Sequence[EmbeddingLevel]
    ) -> Dict[EmbeddingLevel, np.ndarray]:
        """Column/row/table embeddings from a *single* encoder pass.

        The dedicated ``embed_columns``/``embed_rows``/``embed_table``
        methods each re-encode the table; a property that needs several
        levels of the same table (the shuffle sweeps need all three) pays
        the transformer cost once here.  Results are identical to the
        dedicated methods — same tokens, same states, same aggregates.
        """
        levels = tuple(levels)
        for level in levels:
            self._require(level)
        if self.config.serialization == Serialization.ROW_TEMPLATE:
            # Rows are encoded independently; there is no shared pass.
            # Route through the dedicated methods so unsupported levels
            # fail with the same ModelError the single-call path raises.
            dedicated = {
                EmbeddingLevel.COLUMN: self.embed_columns,
                EmbeddingLevel.ROW: self.embed_rows,
                EmbeddingLevel.TABLE: self.embed_table,
            }
            return {level: dedicated[level](table) for level in levels}
        tokens, states, effective = self._encode_table(table)
        with telemetry.span("aggregate"):
            return {
                level: self._aggregate_level(level, tokens, states, table, effective)
                for level in levels
            }

    def serialize_levels(
        self,
        tables: Sequence[Table],
        levels_list: Sequence[Sequence[EmbeddingLevel]],
    ) -> Optional[LevelBatchPlan]:
        """Serialization half of :meth:`embed_levels_batch`.

        Returns ``None`` when there is no shared encoder pass to plan
        (ROW_TEMPLATE models encode rows independently) — callers fall
        back to the per-table path.  Splitting serialization from the
        encode lets the streaming executor overlap the two across chunks.
        """
        if len(tables) != len(levels_list):
            raise ModelError("tables and levels_list must have equal length")
        if self.config.serialization == Serialization.ROW_TEMPLATE:
            return None
        for levels in levels_list:
            for level in levels:
                self._require(level)
        with telemetry.span("serialize"):
            effectives = [self._effective_table(t) for t in tables]
            token_lists = [self._serializer.serialize(e) for e in effectives]
        return LevelBatchPlan(
            tables=list(tables),
            effectives=effectives,
            token_lists=token_lists,
            levels_list=[tuple(levels) for levels in levels_list],
        )

    def finish_levels(
        self, plan: LevelBatchPlan, states_list: Sequence[np.ndarray]
    ) -> List[Dict[EmbeddingLevel, np.ndarray]]:
        """Aggregation half of :meth:`embed_levels_batch`."""
        out: List[Dict[EmbeddingLevel, np.ndarray]] = []
        with telemetry.span("aggregate"):
            for table, effective, tokens, states, levels in zip(
                plan.tables, plan.effectives, plan.token_lists, states_list, plan.levels_list
            ):
                out.append(
                    {
                        level: self._aggregate_level(
                            level, tokens, states, table, effective
                        )
                        for level in levels
                    }
                )
        return out

    def embed_levels_batch(
        self,
        tables: Sequence[Table],
        levels_list: Sequence[Sequence[EmbeddingLevel]],
        *,
        batch_size: int = 8,
    ) -> List[Dict[EmbeddingLevel, np.ndarray]]:
        """Bundled level embeddings for many tables with a batched encoder.

        ``levels_list[i]`` names the levels wanted for ``tables[i]``.  All
        tables are serialized up front (:meth:`serialize_levels`) and
        driven through :meth:`Encoder.encode_batch`, whose configured
        backend batches the transformer math — an exact backend is
        numerically identical to encoding each table alone; the remote
        float32 tier is within its documented tolerance.
        """
        plan = self.serialize_levels(tables, levels_list)
        if plan is None:
            return [
                self.embed_levels(t, lv) for t, lv in zip(tables, levels_list)
            ]
        with telemetry.span("encode"):
            states_list = self.encoder.encode_batch(
                plan.token_lists, batch_size=batch_size
            )
        return self.finish_levels(plan, states_list)

    def embed_value_columns_batch(
        self,
        requests: Sequence[Tuple[str, Sequence[object]]],
        *,
        batch_size: int = 8,
    ) -> List[np.ndarray]:
        """Standalone column embeddings for many requests, batch-encoded.

        Chunk plans are laid out for every request up front and all chunk
        serializations are driven through :meth:`Encoder.encode_batch`;
        per-request aggregation mirrors :meth:`embed_value_column` exactly
        (single-chunk requests return the chunk embedding directly,
        multi-chunk requests the length-weighted mean).
        """
        self._require(EmbeddingLevel.COLUMN)
        if self.config.serialization == Serialization.ROW_TEMPLATE:
            # Rows are encoded independently; the single-call path already
            # is the batch plan.
            return [
                self.embed_value_column(header, values)
                for header, values in requests
            ]
        snapshot = self.config.content_snapshot_rows
        plans: List[Tuple[int, List[int]]] = []  # (first chunk index, chunk lengths)
        token_lists: List[TokenArray] = []
        with telemetry.span("serialize"):
            for header, values in requests:
                values = list(values)
                if not values:
                    raise ModelError("cannot embed an empty column")
                if snapshot is not None:
                    chunks = [values[:snapshot]]
                else:
                    chunks = self._column_chunks(header, values)
                plans.append((len(token_lists), [len(c) for c in chunks]))
                for chunk in chunks:
                    chunk_table = Table.from_columns([(header, list(chunk))])
                    token_lists.append(self._serializer.serialize(chunk_table))
        with telemetry.span("encode"):
            states_list = self.encoder.encode_batch(
                token_lists, batch_size=batch_size
            )
        out: List[np.ndarray] = []
        with telemetry.span("aggregate"):
            for start, chunk_lengths in plans:
                parts = [
                    aggregate.column_embeddings(
                        token_lists[start + i],
                        states_list[start + i],
                        1,
                        header_weight=self.config.header_weight,
                        use_cls_anchor=self.config.cls_per_column,
                    )[0]
                    for i in range(len(chunk_lengths))
                ]
                if snapshot is not None:
                    # Snapshot models return their (single) chunk directly.
                    out.append(parts[0])
                else:
                    # Mirror embed_value_column exactly: the length-weighted
                    # mean is applied even to a single chunk (x*n/n is not
                    # bit-identical to x, and results must match the
                    # single-call path to the last ulp).
                    weights = np.array(chunk_lengths, dtype=np.float64)
                    stacked = np.stack(parts)
                    out.append(
                        (stacked * weights[:, None]).sum(axis=0) / weights.sum()
                    )
        return out

    # ------------------------------------------------------------------
    # Level embeddings
    # ------------------------------------------------------------------

    def embed_columns(self, table: Table) -> np.ndarray:
        self._require(EmbeddingLevel.COLUMN)
        tokens, states, _ = self._encode_table(table)
        return aggregate.column_embeddings(
            tokens,
            states,
            table.num_columns,
            header_weight=self.config.header_weight,
            use_cls_anchor=self.config.cls_per_column,
        )

    def embed_rows(self, table: Table) -> np.ndarray:
        self._require(EmbeddingLevel.ROW)
        if self.config.serialization == Serialization.ROW_TEMPLATE:
            out = np.zeros((table.num_rows, self.dim))
            for r in range(table.num_rows):
                tokens = self._serializer.serialize_row(table, r)
                states = self.encoder.encode(tokens)
                out[r] = states.mean(axis=0)
            return out
        tokens, states, effective = self._encode_table(table)
        n_rows = aggregate.embedded_row_count(tokens)
        return aggregate.row_embeddings(tokens, states, min(n_rows, effective.num_rows))

    def embed_table(self, table: Table) -> np.ndarray:
        self._require(EmbeddingLevel.TABLE)
        tokens, states, _ = self._encode_table(table)
        return aggregate.table_embedding(
            tokens, states, header_weight=self.config.header_weight
        )

    def embed_cells(
        self, table: Table, coords: Sequence[Tuple[int, int]]
    ) -> Dict[Tuple[int, int], np.ndarray]:
        self._require(EmbeddingLevel.CELL)
        tokens, states, _ = self._encode_table(table)
        return aggregate.cell_embeddings(tokens, states, coords)

    def embed_entities(self, table: Table) -> Dict[str, np.ndarray]:
        self._require(EmbeddingLevel.ENTITY)
        tokens, states, _ = self._encode_table(table)
        sums: Dict[str, np.ndarray] = {}
        counts: Dict[str, int] = {}
        for (row, col), entity_id in table.entity_links.items():
            vec = aggregate.entity_embedding(tokens, states, row, col)
            if vec is None:
                continue
            if entity_id in sums:
                sums[entity_id] = sums[entity_id] + vec
                counts[entity_id] += 1
            else:
                sums[entity_id] = vec
                counts[entity_id] = 1
        return {eid: sums[eid] / counts[eid] for eid in sums}

    def embed_value_column(self, header: str, values: Sequence[object]) -> np.ndarray:
        self._require(EmbeddingLevel.COLUMN)
        if not len(values):
            raise ModelError("cannot embed an empty column")
        snapshot = self.config.content_snapshot_rows
        if snapshot is not None:
            # The model never sees beyond its snapshot; no chunking needed.
            values = list(values)[:snapshot]
            return self._embed_chunk(header, values)
        chunks = self._column_chunks(header, values)
        parts = [self._embed_chunk(header, chunk) for chunk in chunks]
        weights = np.array([len(chunk) for chunk in chunks], dtype=np.float64)
        stacked = np.stack(parts)
        return (stacked * weights[:, None]).sum(axis=0) / weights.sum()

    # ------------------------------------------------------------------

    def _column_chunks(
        self, header: str, values: Sequence[object]
    ) -> List[List[object]]:
        """Split values into chunks that each fit the input budget."""
        values = list(values)
        probe = Table.from_columns([(header, values)])
        if self.config.serialization == Serialization.ROW_TEMPLATE:
            return [values]
        fit = self._serializer.fit_rows(probe)
        if fit <= 0:
            fit = 1
        if fit >= len(values):
            return [values]
        return [values[i : i + fit] for i in range(0, len(values), fit)]

    def _embed_chunk(self, header: str, values: Sequence[object]) -> np.ndarray:
        chunk_table = Table.from_columns([(header, list(values))])
        if self.config.serialization == Serialization.ROW_TEMPLATE:
            # Row-template models average their per-row encodings.
            rows = RowTemplateSerializer(self.tokenizer, self.config.max_tokens)
            states = [
                self.encoder.encode(rows.serialize_row(chunk_table, r)).mean(axis=0)
                for r in range(chunk_table.num_rows)
            ]
            return np.stack(states).mean(axis=0)
        tokens = self._serializer.serialize(chunk_table)
        states = self.encoder.encode(tokens)
        return aggregate.column_embeddings(
            tokens,
            states,
            1,
            header_weight=self.config.header_weight,
            use_cls_anchor=self.config.cls_per_column,
        )[0]
