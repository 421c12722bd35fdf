"""Versioned single-file container for fitted models.

Layout: a magic header line, then a compressed npz payload.  Entry ``meta``
is a JSON document stored as a uint8 array.  It describes each column once,
in one schema, the full one (`schema.schema_to_doc` form, responses
included); the rest is scalars, names and type tags (seed, fit size, factor
count, each marginal's type, each targeted response's name and covariate
names).  The loader derives from the full schema the copula schema (its
copula-role columns), the schema hash, and the column of each marginal and
cell-table column (in schema order).  Every array is an entry of its own,
keyed by position, never by column name:

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


@dataclasses.dataclass
class ModelArchive:
    """A loaded archive: the copula model plus any targeted-response models
    (keyed by response name)."""

    model: FittedCopula
    targets: dict
    schema_hash: str  # of full_schema
    seed: int
    full_schema: tuple  # original column order incl. responses
    meta: dict


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


def _rank_columns(schema) -> list:
    """The columns that own a marginal, in schema order."""
    return [c for c in schema if c.kind is not Kind.CATEGORICAL]


def _check_columns(model: FittedCopula, targets: dict, full: tuple) -> None:
    """What the loader derives from ``full`` must be what was fitted."""
    if tuple(model.schema) != tuple(c for c in full if c.role == "copula"):
        raise ValueError("model schema is not the copula-role columns of "
                         "full_schema, in order")
    kinds = {c.name: (c.kind, c.levels) for c in full}
    for t in targets.values():
        for cs in (t.response, *t.covariates):
            if kinds.get(cs.name) != (cs.kind, cs.levels):
                raise ValueError(f"target '{t.response.name}': column '{cs.name}' is "
                                 "missing from full_schema or differs from it in "
                                 "kind or levels")


def save_archive(
    path,
    model: FittedCopula,
    targets: dict | None = None,
    seed: int = 0,
    full_schema: tuple | None = None,
    extra_meta: dict | None = None,
) -> None:
    """Write the model (and optional per-response target summaries) to disk.

    Raises ValueError when ``model.schema`` is not the copula-role columns of
    ``full_schema`` in order, or when a target's response or covariate is
    missing from ``full_schema`` or differs from it in kind or levels.
    """
    targets = targets or {}
    full = tuple(full_schema if full_schema is not None else model.schema)
    _check_columns(model, targets, full)
    arrays = {"corr": model.draws.corr, "alpha": model.draws.alpha}
    table = model.cat_table
    if table is not None:
        arrays["cat.cells"], arrays["cat.cell_probs"] = table.cells, table.cell_probs
    meta = {
        "format_version": _FORMAT_VERSION,
        "full_schema": schema_to_doc(full),
        "seed": seed,
        "n_fit": model.n_fit,
        "n_factors": model.draws.n_factors,
        "marginals": [
            _put_marginal(arrays, f"marginal{i}", model.marginals[c.name])
            for i, c in enumerate(_rank_columns(model.schema))
        ],
        "targets": [
            _put_target(arrays, f"target{k}", t) for k, t in enumerate(targets.values())
        ],
        "extra": extra_meta or {},
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
    marginals = {
        c.name: _get_marginal(arrays, f"marginal{i}", doc)
        for i, (c, doc) in enumerate(
            zip(_rank_columns(schema), meta["marginals"], strict=True))
    }
    table = (CategoricalProbTable(arrays["cat.cells"], arrays["cat.cell_probs"])
             if "cat.cells" in arrays else None)
    model = FittedCopula(draws, schema, marginals, table, int(meta["n_fit"]))
    columns = {c.name: c for c in full}
    targets = {
        doc["response"]: _get_target(arrays, f"target{k}", doc, columns)
        for k, doc in enumerate(meta["targets"])
    }
    return ModelArchive(model, targets, schema_hash(full), meta["seed"], full, meta)
