"""On-disk resolution cache with content-addressed keys.

Entries are JSON files named by the digest of their context (p, n, the
expression the source shape renders to, depth, sweep, schema version),
so every spelling of one module shares an entry.  An entry stores each
stage's partitions and the differential blocks at dominant weights only,
the blocks a resolution keeps; schema 1 entries held every weight and
are a miss.  Matrices are stored
as rows of digit strings, each entry a fixed-width run of len(str(p - 1))
decimal digits, which round-trip bit exactly and diff cleanly.  A load
decodes every block of an entry in one pass (decode_matrices), so its
checks of row width, digits and field run once over the whole entry;
a block that fails any of them makes the entry a miss.  Writes
go through a temporary file and a rename so concurrent runs never
observe torn entries; a load that finds a damaged entry, such as a stage
label that names no partition of the source's degree, reports a miss.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from itertools import accumulate, chain
from pathlib import Path

import numpy as np

from .young import check_partition, format_partition

SCHEMA_VERSION = 2

ENV_CACHE_DIR = "SPFEXT_CACHE"


def stable_json(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def cache_key(context: dict) -> str:
    return hashlib.sha256(stable_json(context).encode("utf-8")).hexdigest()


def _place_values(p: int) -> np.ndarray:
    """Decimal place values of one matrix entry, most significant first;
    an entry takes len(str(p - 1)) digits, so one digit for p < 10."""
    return 10 ** np.arange(len(str(p - 1)) - 1, -1, -1, dtype=np.int64)


def encode_matrix(mat: np.ndarray, p: int) -> dict:
    rows, cols = mat.shape
    place = _place_values(p)
    digits = (np.asarray(mat, dtype=np.int64)[:, :, None] // place) % 10
    text = (digits + ord("0")).astype(np.uint8).reshape(rows,
                                                        cols * place.size)
    data = [line.tobytes().decode("ascii") for line in text]
    return {"rows": rows, "cols": cols, "data": data}


def decode_matrices(payloads: list[dict], p: int) -> list[np.ndarray]:
    """The matrices of encode_matrix payloads, decoded in one pass over
    all of them: one check of every row's width, one read of every digit,
    one check that each is a digit, one sum of the digits at their place
    values and one check that each entry lies in F_p.  Each matrix is
    then a reshaped slice of the result.  A payload whose row count, row
    width, digits or entries are wrong raises ValueError."""
    size = _place_values(p).size
    rows = [payload["rows"] for payload in payloads]
    cols = [payload["cols"] for payload in payloads]
    data = [payload["data"] for payload in payloads]
    if [len(lines) for lines in data] != rows:
        raise ValueError("corrupt matrix row count in cache entry")
    lines = list(chain.from_iterable(data))
    if not np.array_equal(np.fromiter(map(len, lines), np.int64, len(lines)),
                          np.repeat(np.multiply(cols, size), rows)):
        raise ValueError("corrupt matrix row in cache entry")
    digits = np.frombuffer("".join(lines).encode("ascii"), dtype=np.uint8)
    digits = digits - np.uint8(ord("0"))  # any other character wraps above 9
    if (digits > 9).any():
        raise ValueError("non-digit character in cache entry")
    # Horner's rule, most significant digit first: a product with the
    # place values is far slower on entries of one digit
    digits = digits.reshape(-1, size).T
    entries = digits[0].astype(np.int64)
    for place in digits[1:]:
        entries = entries * 10 + place
    if (entries >= p).any():
        raise ValueError(f"cache entry outside F_{p}")
    ends = accumulate(r * c for r, c in zip(rows, cols))
    return [entries[end - r * c: end].reshape(r, c)
            for end, r, c in zip(ends, rows, cols)]


def _comp_parse(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",")) if text else ()


def _stage_label(text, degree: int, n: int) -> tuple[int, ...]:
    """The partition a stored stage label names; ValueError unless it is
    text naming a partition of the source's degree into at most n parts."""
    lam = check_partition(_comp_parse(text)) if isinstance(text, str) else None
    if lam is None or sum(lam) != degree or len(lam) > n:
        raise ValueError(f"cache stage label {text!r} is no partition of "
                         f"{degree} into at most {n} parts")
    return lam


def resolution_context(source: str, p: int, n: int, depth: int, sweep: str) -> dict:
    return {"expression": source, "p": p, "n": n, "depth": depth,
            "sweep": sweep, "schema": SCHEMA_VERSION}


def resolution_payload(res) -> dict:
    context = resolution_context(res.source, res.p, res.n, res.depth, res.sweep)
    stages = [[format_partition(lam) for lam in stage.summands]
              for stage in res.stages]
    diffs = []
    for diff in res.diffs:
        diffs.append({format_partition(comp): encode_matrix(block, res.p)
                      for comp, block in sorted(diff.items())})
    return {
        "version": SCHEMA_VERSION,
        "key": cache_key(context),
        "context": context,
        "stages": stages,
        "diffs": diffs,
    }


def resolution_from_payload(payload: dict):
    """The resolution a payload stores.  It must hold one stage per degree
    up to its depth, each stage label is checked to be a partition of the
    source's degree, and each block's shape against the dominant weight
    groups of its source and target stage; a mismatch raises ValueError."""
    from .functors import evaluate
    from .homology import Resolution, Stage, gamma_summand

    ctx = payload["context"]
    p, n = ctx["p"], ctx["n"]
    module = evaluate(ctx["expression"], p)
    summands = {}  # each label, checked once however many stages name it
    for text in chain.from_iterable(payload["stages"]):
        if text not in summands:
            summands[text] = gamma_summand(p, n, _stage_label(text, module.D, n))
    stages = [Stage([summands[text] for text in parts])
              for parts in payload["stages"]]
    if len(stages) != ctx["depth"] + 1:
        raise ValueError(f"cache entry has {len(stages)} stages, its depth "
                         f"{ctx['depth']} needs {ctx['depth'] + 1}")
    if len(payload["diffs"]) != len(stages):
        raise ValueError("cache entry has not one differential per stage")
    comps = [[_comp_parse(comp) for comp in stage_diff]
             for stage_diff in payload["diffs"]]
    blocks = iter(decode_matrices([block for stage_diff in payload["diffs"]
                                   for block in stage_diff.values()], p))
    diffs = []
    rows_groups = Stage([(ctx["expression"], module, None)]).groups
    for stage, stage_comps in zip(stages, comps):
        diff = {comp: next(blocks) for comp in stage_comps}
        if set(diff) != set(stage.groups):
            raise ValueError("cache entry's blocks miss the stage's weights")
        for comp, block in diff.items():
            above = rows_groups.get(comp)
            want = (0 if above is None else above.size, stage.groups[comp].size)
            if block.shape != want:
                raise ValueError(f"cache block {comp} has shape {block.shape}, "
                                 f"the stages give {want}")
        diffs.append(diff)
        rows_groups = stage.groups
    return Resolution(source=ctx["expression"], p=p, n=n, module=module,
                      stages=stages, diffs=diffs, depth=ctx["depth"],
                      sweep=ctx["sweep"])


class ResolutionCache:
    """Directory of serialized resolutions, one file per context digest.
    The directory is made by the first store; a load from a directory
    that does not exist is a miss."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)

    def path_for(self, context: dict) -> Path:
        return self.directory / f"{cache_key(context)}.json"

    def load(self, source: str, p: int, n: int, depth: int, sweep: str):
        """The stored resolution, or None on a miss.  A damaged entry (bad
        JSON, a value of the wrong JSON type, another context, a malformed
        or misshapen block) is a miss, so the caller recomputes it and the
        store overwrites the file."""
        context = resolution_context(source, p, n, depth, sweep)
        path = self.path_for(context)
        if not path.exists():
            return None
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            if (payload.get("version") != SCHEMA_VERSION
                    or payload.get("context") != context):
                return None
            return resolution_from_payload(payload)
        except (ValueError, KeyError, TypeError, AttributeError):
            return None

    def store(self, res) -> Path:
        payload = resolution_payload(res)
        path = self.directory / f"{payload['key']}.json"
        self.directory.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(stable_json(payload))
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        return path


def default_cache_dir(cli_value: str | None) -> str | None:
    env = os.environ.get(ENV_CACHE_DIR)
    return env if env else cli_value
