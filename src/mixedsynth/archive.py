"""Versioned single-file container for fitted models.

Layout: a magic header line, then a compressed npz payload.  Entry ``meta``
is a JSON document stored as a uint8 array.  It describes each column once,
in one schema, the full one (`schema.schema_to_doc` form, responses
included); the rest is scalars, names and type tags (seed, fit size, factor
count, each marginal's type, each targeted response's name and covariate
names).  The loader derives from the full schema the copula schema (its
copula-role columns) and the column of each marginal and cell-table column
(in schema order).  Every array is an entry of its own, keyed by position,
never by column name:

- ``corr``, ``alpha``: the retained correlation and intercept draws;
- ``marginal<i>.<field>``: the i-th non-categorical copula column's marginal;
- ``cat.cells``, ``cat.cell_probs``: the categorical cell table;
- ``target<k>.marginal.<field>``, ``target<k>.forest.<field>``,
  ``target<k>.sigma2``: the k-th targeted response's marginal, its kept
  trees (`bart.Forest`) and each kept ensemble's sigma^2.

Each fitted object is stored in the one form it has in memory, so a
continuous column appears only as its inverse-CDF grid (the two grid ends
in meta, the CDF values as an array), which holds none of its values but the
minimum and maximum; a constant one is a one-value discrete marginal.
Nothing in the file needs pickling.  This module is the only one that knows
the layout; the loader reads ``meta`` first and rejects any other format
version.
"""
from __future__ import annotations

import dataclasses
import io
import json

import numpy as np

from .bart import Forest
from .errors import ArchiveError
from .factor_model import PosteriorDraws
from .marginals import CategoricalProbTable, ContinuousMarginal, DiscreteMarginal
from .schema import Kind, schema_from_doc, schema_hash, schema_to_doc
from .synthesizer import FittedCopula
from .target_regression import TargetModelSummary

__all__ = ["MAGIC", "save_archive", "load_archive", "ModelArchive"]

MAGIC = b"MXSYNTH1\n"
_FORMAT_VERSION = 5
_MARGINAL_TYPES = {"discrete": DiscreteMarginal, "continuous": ContinuousMarginal}


@dataclasses.dataclass(frozen=True)
class ModelArchive:
    """A fitted model as the archive stores it: the copula model, one target
    per response-role column, the full schema (responses included), the fit
    seed and JSON-safe extra metadata.  Raises ValueError unless
    ``model.schema`` is the copula-role columns of ``full_schema`` in order
    with one marginal per non-categorical column, the targets' responses are
    the response-role columns of ``full_schema`` in order, and every target
    covariate is a column of ``model.schema``."""

    model: FittedCopula
    targets: tuple
    full_schema: tuple
    seed: int
    extra: dict

    def __post_init__(self):
        full, schema = self.full_schema, tuple(self.model.schema)
        if schema != tuple(c for c in full if c.role == "copula"):
            raise ValueError("model schema is not the copula-role columns of "
                             "full_schema, in order")
        ranked = sum(c.kind is not Kind.CATEGORICAL for c in schema)
        if len(self.model.marginals) != ranked:
            raise ValueError(f"model has {len(self.model.marginals)} marginals for "
                             f"{ranked} non-categorical copula columns")
        responses = tuple(c for c in full if c.role == "response")
        if tuple(t.response for t in self.targets) != responses:
            raise ValueError("target responses are not the response-role "
                             "columns of full_schema, in order")
        for t in self.targets:
            stray = [c.name for c in t.covariates if c not in schema]
            if stray:
                raise ValueError(f"target '{t.response.name}': covariates {stray} "
                                 "are not columns of the copula schema")

    @property
    def schema_hash(self) -> str:
        return schema_hash(self.full_schema)


def _put(arrays: dict, key: str, obj) -> dict:
    """Store the array fields of dataclass ``obj`` as entries ``key.<field>``;
    return its other constructor fields (scalars) for meta."""
    scalars = {}
    for f in dataclasses.fields(obj):
        if f.init:
            v = getattr(obj, f.name)
            if isinstance(v, np.ndarray):
                arrays[f"{key}.{f.name}"] = v
            else:
                scalars[f.name] = v
    return scalars


def _get(arrays: dict, key: str, cls, scalars: dict):
    """Inverse of `_put`."""
    return cls(**scalars, **{
        f.name: arrays[f"{key}.{f.name}"]
        for f in dataclasses.fields(cls) if f.init and f.name not in scalars
    })


def _put_marginal(arrays: dict, key: str, m) -> dict:
    tag = next(t for t, cls in _MARGINAL_TYPES.items() if type(m) is cls)
    return {"type": tag, **_put(arrays, key, m)}


def _get_marginal(arrays: dict, key: str, doc: dict):
    scalars = {k: v for k, v in doc.items() if k != "type"}
    return _get(arrays, key, _MARGINAL_TYPES[doc["type"]], scalars)


def _put_target(arrays: dict, key: str, t: TargetModelSummary) -> dict:
    _put(arrays, f"{key}.forest", t.forest)
    arrays[f"{key}.sigma2"] = t.sigma2
    return {
        "response": t.response.name,
        "covariates": [c.name for c in t.covariates],
        "marginal": _put_marginal(arrays, f"{key}.marginal", t.marginal),
    }


def _get_target(arrays: dict, key: str, doc: dict, columns: dict) -> TargetModelSummary:
    return TargetModelSummary(
        columns[doc["response"]], tuple(columns[name] for name in doc["covariates"]),
        _get(arrays, f"{key}.forest", Forest, {}), arrays[f"{key}.sigma2"],
        _get_marginal(arrays, f"{key}.marginal", doc["marginal"]),
    )


def save_archive(path, archive: ModelArchive) -> None:
    """Write ``archive`` to disk."""
    model = archive.model
    arrays = {"corr": model.draws.corr, "alpha": model.draws.alpha}
    table = model.cat_table
    if table is not None:
        arrays["cat.cells"], arrays["cat.cell_probs"] = table.cells, table.cell_probs
    meta = {
        "format_version": _FORMAT_VERSION,
        "full_schema": schema_to_doc(archive.full_schema),
        "seed": archive.seed,
        "n_fit": model.n_fit,
        "n_factors": model.draws.n_factors,
        "marginals": [_put_marginal(arrays, f"marginal{i}", m)
                      for i, m in enumerate(model.marginals)],
        "targets": [_put_target(arrays, f"target{k}", t)
                    for k, t in enumerate(archive.targets)],
        "extra": archive.extra,
    }
    payload = io.BytesIO()
    np.savez_compressed(
        payload,
        meta=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
        **arrays,
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
            arrays = dict(npz)
        meta = json.loads(bytes(arrays.pop("meta")).decode("utf-8"))
    except Exception as exc:
        raise ArchiveError(f"'{path}' is corrupt: {exc}") from exc
    version = meta.get("format_version")
    if version != _FORMAT_VERSION:
        raise ArchiveError(
            f"archive format version {version} unsupported (expected "
            f"{_FORMAT_VERSION})"
        )

    full = schema_from_doc(meta["full_schema"], path)
    schema = tuple(c for c in full if c.role == "copula")
    draws = PosteriorDraws(arrays["corr"], arrays["alpha"], int(meta["n_factors"]))
    marginals = tuple(_get_marginal(arrays, f"marginal{i}", doc)
                      for i, doc in enumerate(meta["marginals"]))
    table = (CategoricalProbTable(arrays["cat.cells"], arrays["cat.cell_probs"])
             if "cat.cells" in arrays else None)
    model = FittedCopula(draws, schema, marginals, table, int(meta["n_fit"]))
    columns = {c.name: c for c in full}
    targets = tuple(_get_target(arrays, f"target{k}", doc, columns)
                    for k, doc in enumerate(meta["targets"]))
    return ModelArchive(model, targets, full, meta["seed"], meta["extra"])
