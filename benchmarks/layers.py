"""The traced run's wrapper sites and the per-layer metrics taken from them.

The layers are spfext's own modules.  A function is wrapped under every
name its callers look up: `functors` imports `hom_space` and
`check_equivariance` by name, `homology` imports `evaluate` and
`hom_space`, `suites` imports `canonical_map`, and `cli` imports
`run_suite` and `resolve_expression`, so patching only the defining
module would miss those calls.
"""

from __future__ import annotations

import importlib

from workloads import SUITE_NAMES

# (span name, attribute, owners that look it up); an owner is a module,
# or "module:Class" for a method.
SITES = (
    ("cli.main", "main", ("spfext.cli",)),
    ("suites.run_suite", "run_suite", ("spfext.cli",)),
    ("homology.resolve_expression", "resolve_expression",
     ("spfext.homology", "spfext.cli", "spfext")),
    ("homology.resolve", "resolve", ("spfext.homology",)),
    ("homology.ext_dims", "ext_dims", ("spfext.homology",)),
    ("fp.row_reduce", "row_reduce", ("spfext.fp",)),
    ("fp.matmul", "matmul", ("spfext.fp",)),
    ("tensorspace.matrix", "matrix", ("spfext.tensorspace:TensorSpace",)),
    ("tensorspace.build", "_build", ("spfext.tensorspace:TensorSpace",)),
    ("modules.check_equivariance", "check_equivariance",
     ("spfext.modules", "spfext.functors")),
    ("modules.hom_space", "hom_space",
     ("spfext.modules", "spfext.functors", "spfext.homology", "spfext")),
    ("functors.evaluate", "evaluate",
     ("spfext.functors", "spfext.homology", "spfext")),
    ("functors.canonical_map", "canonical_map",
     ("spfext.functors", "spfext.suites", "spfext")),
    ("cache.load", "load", ("spfext.cache:ResolutionCache",)),
    ("cache.store", "store", ("spfext.cache:ResolutionCache",)),
    ("young.oracle", "poincare_polynomial", ("spfext.young", "spfext")),
)

# Operator builds are only counted: a span per build would double the
# spans of the hottest call without telling more than the count does.
COUNTED = {"tensorspace.build"}


def owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _resolved(args, res) -> dict:
    return {"generators": sum(len(stage.summands) for stage in res.stages),
            "stage_dim_sum": sum(stage.dim for stage in res.stages)}


def _loaded(args, res) -> dict:
    if res is None:
        return {"hits": 0, "bytes": 0}
    from spfext.cache import resolution_context

    path = args[0].path_for(resolution_context(res.source, res.p, res.n,
                                               res.depth, res.sweep))
    return {"hits": 1, "bytes": path.stat().st_size}


def _stored(args, path) -> dict:
    return {"bytes": path.stat().st_size}


NOTES = {"homology.resolve": _resolved, "cache.load": _loaded,
         "cache.store": _stored}


def _span_name(name):
    if name == "suites.run_suite":
        return lambda args: f"suites.{args[0]}"
    return name


def install(tracer) -> None:
    for name, attr, owners in SITES:
        for path in owners:
            if name in COUNTED:
                tracer.patch(owner(path), attr,
                             lambda fn, name=name: tracer.counter_around(fn, name))
            else:
                tracer.patch(owner(path), attr,
                             lambda fn, name=name: tracer.span_around(
                                 fn, _span_name(name), NOTES.get(name)))


def summarize(tracer) -> dict:
    rows = tracer.summary()
    memo = {"memo_hits": tracer.calls_without(
        "homology.resolve_expression", ("homology.resolve", "cache.load"))}
    rows.setdefault("homology.resolve_expression", {}).update(memo)
    return rows


def merge(a: dict, b: dict) -> dict:
    out = {name: dict(row) for name, row in a.items()}
    for name, row in b.items():
        into = out.setdefault(name, {})
        for key, value in row.items():
            into[key] = into.get(key, 0) + value
    return out


def metrics(rows: dict) -> dict[str, float]:
    """Per-layer metrics from merged span rows.  `_s` is self time,
    except `suites.<suite>_s`, which is the whole suite."""
    def get(name, key="calls"):
        return rows.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {
        "cli.main_s": get("cli.main", "self_s"),
        "homology.resolve_s": get("homology.resolve", "self_s"),
        "homology.resolve_calls": get("homology.resolve"),
        "homology.generators": get("homology.resolve", "generators"),
        "homology.stage_dim_sum": get("homology.resolve", "stage_dim_sum"),
        "homology.resolve_memo_hit_ratio": ratio(
            get("homology.resolve_expression", "memo_hits"),
            get("homology.resolve_expression")),
        "homology.ext_dims_s": get("homology.ext_dims", "self_s"),
        "fp.row_reduce_s": get("fp.row_reduce", "self_s"),
        "fp.row_reduce_calls": get("fp.row_reduce"),
        "fp.matmul_s": get("fp.matmul", "self_s"),
        "fp.matmul_calls": get("fp.matmul"),
        "tensorspace.matrix_s": get("tensorspace.matrix", "self_s"),
        "tensorspace.matrix_calls": get("tensorspace.matrix"),
        "tensorspace.op_hit_ratio": ratio(
            get("tensorspace.matrix") - get("tensorspace.build"),
            get("tensorspace.matrix")),
        "modules.check_equivariance_s": get("modules.check_equivariance", "self_s"),
        "modules.check_equivariance_calls": get("modules.check_equivariance"),
        "modules.hom_space_s": get("modules.hom_space", "self_s"),
        "modules.hom_space_calls": get("modules.hom_space"),
        "functors.evaluate_s": get("functors.evaluate", "self_s"),
        "functors.canonical_map_s": get("functors.canonical_map", "self_s"),
        "cache.load_s": get("cache.load", "self_s"),
        "cache.bytes_read": get("cache.load", "bytes"),
        "cache.hit_ratio": ratio(get("cache.load", "hits"), get("cache.load")),
        "cache.store_s": get("cache.store", "self_s"),
        "cache.bytes_written": get("cache.store", "bytes"),
        "young.oracle_s": get("young.oracle", "self_s"),
    }
    for suite in SUITE_NAMES:
        out[f"suites.{suite}_s"] = get(f"suites.{suite}", "total_s")
    return out
