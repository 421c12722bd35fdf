"""Versioned single-file container for fitted models.

Layout: a magic header line, then a compressed npz payload.  Big numeric
arrays (correlation draws, rescaled intercepts) live as npz entries; the
structured remainder (schema, marginals, categorical table, targeted
regression summaries, seeds) travels as one JSON document stored as a uint8
array, so nothing in the file ever needs pickling.
"""
from __future__ import annotations

import io
import json

import numpy as np

from .errors import ArchiveError
from .factor_model import PosteriorDraws
from .marginals import (
    CategoricalProbTable,
    marginal_from_dict,
    marginal_to_dict,
)
from .schema import ColumnSchema, Kind, expand_layout, schema_hash, schema_to_doc
from .synthesizer import FittedCopula
from .target_regression import TargetModelSummary

__all__ = ["MAGIC", "save_archive", "load_archive", "ModelArchive"]

MAGIC = b"MXSYNTH1\n"
_FORMAT_VERSION = 1


class ModelArchive:
    """A loaded archive: the copula model plus any targeted-response models."""

    def __init__(self, model: FittedCopula, targets: dict, schema_hash_: str,
                 seed: int, full_schema: tuple, meta: dict):
        self.model = model
        self.targets = targets
        self.schema_hash = schema_hash_
        self.seed = seed
        self.full_schema = full_schema  # original column order incl. responses
        self.meta = meta


def _table_to_doc(table: CategoricalProbTable | None):
    if table is None:
        return None
    return {
        "var_names": list(table.var_names),
        "marginals": [m.tolist() for m in table.marginals],
        "cells": table.cells.tolist(),
        "cell_probs": table.cell_probs.tolist(),
    }


def _table_from_doc(doc):
    if doc is None:
        return None
    return CategoricalProbTable(
        tuple(doc["var_names"]),
        tuple(np.asarray(m) for m in doc["marginals"]),
        np.asarray(doc["cells"], dtype=np.int64),
        np.asarray(doc["cell_probs"]),
    )


def _schema_from_doc(doc) -> tuple:
    return tuple(
        ColumnSchema(
            d["name"],
            Kind(d["kind"]),
            tuple(d["levels"]) if d["levels"] else None,
            d.get("role", "copula"),
        )
        for d in doc
    )


def save_archive(
    path,
    model: FittedCopula,
    targets: dict | None = None,
    seed: int = 0,
    full_schema: tuple | None = None,
    extra_meta: dict | None = None,
) -> None:
    """Write the model (and optional per-response target summaries) to disk."""
    targets = targets or {}
    full = full_schema if full_schema is not None else model.schema
    meta = {
        "format_version": _FORMAT_VERSION,
        "schema": schema_to_doc(model.schema),
        "full_schema": schema_to_doc(full),
        "schema_hash": schema_hash(full),
        "seed": seed,
        "n_fit": model.n_fit,
        "n_factors": model.draws.n_factors,
        "latent_names": list(model.draws.latent_names),
        "marginals": {
            name: marginal_to_dict(m) for name, m in model.marginals.items()
        },
        "cat_table": _table_to_doc(model.cat_table),
        "targets": {name: t.to_doc() for name, t in targets.items()},
        "extra": extra_meta or {},
    }
    payload = io.BytesIO()
    np.savez_compressed(
        payload,
        meta=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
        corr=model.draws.corr,
        alpha=model.draws.alpha,
    )
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(payload.getvalue())


def load_archive(path) -> ModelArchive:
    """Read an archive back into a synthesizable model."""
    with open(path, "rb") as fh:
        head = fh.read(len(MAGIC))
        if head != MAGIC:
            raise ArchiveError(f"'{path}' is not a model archive (bad magic)")
        body = fh.read()
    try:
        with np.load(io.BytesIO(body)) as npz:
            meta = json.loads(bytes(npz["meta"]).decode("utf-8"))
            corr = npz["corr"]
            alpha = npz["alpha"]
    except Exception as exc:
        raise ArchiveError(f"'{path}' is corrupt: {exc}") from exc
    version = meta.get("format_version")
    if version != _FORMAT_VERSION:
        raise ArchiveError(
            f"archive format version {version} unsupported (expected "
            f"{_FORMAT_VERSION})"
        )

    schema = _schema_from_doc(meta["schema"])
    draws = PosteriorDraws(
        corr, alpha, tuple(meta["latent_names"]), int(meta["n_factors"])
    )
    marginals = {
        name: marginal_from_dict(doc) for name, doc in meta["marginals"].items()
    }
    model = FittedCopula(
        draws,
        schema,
        expand_layout(schema),
        marginals,
        _table_from_doc(meta["cat_table"]),
        int(meta["n_fit"]),
    )
    targets = {
        name: TargetModelSummary.from_doc(doc)
        for name, doc in meta["targets"].items()
    }
    return ModelArchive(
        model,
        targets,
        meta["schema_hash"],
        meta["seed"],
        _schema_from_doc(meta["full_schema"]),
        meta,
    )
