"""Run one ``mixedsynth`` command with spans around calls into each module.

Usage: python tracer.py SPANS_OUT.json.gz RUN_ID -- <mixedsynth arguments>

The program's source is not touched.  Each traced function is replaced,
under the name its caller looks it up by, with a wrapper that records a
span (name, start, end, parent) in memory and, for some, a count taken from
its arguments or result.  Spans, counts and per-span-name totals are written
once, after the command returns.  The exit code is the command's.
"""
from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict

_clock = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index or -1]
        self.stack = [-1]
        self.counts = defaultdict(int)

    def wrap(self, owner, attr, name, count=None):
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name`` is "<layer>.<function>[@<call site>]".  ``count(counts,
        args, result)`` adds work counts at the same boundary.
        """
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = _clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                spans[idx] = [name, start, end, parent]
            if count is not None:
                count(counts, args, result)
            return result

        setattr(owner, attr, traced)

    def summary(self) -> dict:
        """Per span name: calls, inclusive ns and self ns (children removed)."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            s = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            s["calls"] += 1
            s["total_ns"] += end - start
            s["self_ns"] += end - start - child_ns[i]
        return out


def _cells(key):
    def count(counts, args, result):
        counts[key] += int(getattr(result, "size", 1))
    return count


def _records(counts, args, result):
    counts["synthesizer.records"] += sum(ds.n for ds in result)


def _accepted(counts, args, result):
    counts["bart.accepted"] += bool(result)


def install(tr: Tracer):
    """Wrap every traced function where its caller looks it up."""
    from mixedsynth import (
        bart, cli, factor_model, marginals, risk, simulation, synthesizer,
        target_regression, utility,
    )

    for attr, layer in (
        ("load_schema", "schema"), ("load_dataset", "schema"),
        ("write_csv", "schema"), ("save_archive", "archive"),
        ("load_archive", "archive"), ("fit_copula_model", "synthesizer"),
        ("fit_target_model", "target_regression"),
        ("synthesize_response", "target_regression"),
        ("evaluate_utility", "utility"), ("risk_study", "risk"),
    ):
        tr.wrap(cli, attr, f"{layer}.{attr}")
    tr.wrap(cli, "synthesize_datasets", "synthesizer.synthesize_datasets", _records)

    tr.wrap(simulation, "generate_sim_data", "simulation.generate_sim_data")
    tr.wrap(simulation, "fit_copula_model", "synthesizer.fit_copula_model@simulation")
    tr.wrap(simulation, "synthesize_datasets",
            "synthesizer.synthesize_datasets@simulation", _records)

    tr.wrap(synthesizer, "run_chain", "factor_model.run_chain")
    tr.wrap(synthesizer, "truncnorm_sample", "truncated.truncnorm_sample@synthesizer",
            _cells("truncated.synth_cells"))

    for attr in ("gibbs_sweep", "update_loadings", "update_idio_var",
                 "update_factors", "update_local_shrink", "update_global_shrink",
                 "update_intercepts", "update_latent", "update_rank_column"):
        tr.wrap(factor_model, attr, f"factor_model.{attr}")
    tr.wrap(factor_model, "truncnorm_sample", "truncated.truncnorm_sample@factor_model",
            _cells("truncated.fit_cells"))

    tr.wrap(target_regression, "update_rank_column",
            "factor_model.update_rank_column@target_regression")
    tr.wrap(target_regression, "ensemble_predict", "bart.ensemble_predict")
    tr.wrap(bart.BartSampler, "sweep", "bart.sweep")
    tr.wrap(bart.BartSampler, "structure_step", "bart.structure_step", _accepted)
    tr.wrap(bart.BartSampler, "snapshot", "bart.snapshot")

    tr.wrap(marginals.ContinuousMarginal, "cdf", "marginals.cdf")
    tr.wrap(marginals.ContinuousMarginal, "inverse", "marginals.inverse")
    tr.wrap(marginals.DiscreteMarginal, "inverse", "marginals.inverse")

    tr.wrap(utility, "fit_bayes_lm", "utility.fit_bayes_lm")
    tr.wrap(utility, "pmse", "utility.pmse")
    tr.wrap(risk, "cmap_mean", "risk.cmap_mean")
    return cli


def main(argv) -> int:
    out_path, run_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_OUT RUN_ID -- <mixedsynth arguments>")
    t0 = _clock()
    tr = Tracer()
    cli = install(tr)
    import_ns = _clock() - t0
    tr.wrap(cli, "main", "cli.main")
    rc = cli.main(cli_args)
    doc = {
        "run_id": run_id,
        "argv": cli_args,
        "exit_code": rc,
        "import_ns": import_ns,
        "summary": tr.summary(),
        "counts": dict(tr.counts),
        "spans": [[run_id] + s for s in tr.spans],
    }
    with gzip.open(out_path, "wt", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
