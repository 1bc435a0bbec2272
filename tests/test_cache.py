import hashlib
import json
import time

import numpy as np
import pytest

from spfext import cache as ca
from spfext import homology
from spfext.homology import clear_resolution_memo, ext, ext_dims, resolve_expression
from spfext.functors import evaluate


def decode_by_block(payload: dict, p: int) -> np.ndarray:
    """The reference for cache.decode_matrices: one payload at a time,
    with a Python length check per row."""
    rows, cols = payload["rows"], payload["cols"]
    place = 10 ** np.arange(len(str(p - 1)) - 1, -1, -1, dtype=np.int64)
    lines = payload["data"]
    if len(lines) != rows or any(len(line) != cols * place.size
                                 for line in lines):
        raise ValueError("corrupt matrix row in cache entry")
    digits = np.frombuffer("".join(lines).encode("ascii"), dtype=np.uint8)
    digits = digits - np.uint8(ord("0"))
    if (digits > 9).any():
        raise ValueError("non-digit character in cache entry")
    entries = digits.astype(np.int64).reshape(rows, cols, place.size) @ place
    if (entries >= p).any():
        raise ValueError(f"cache entry outside F_{p}")
    return entries


def test_matrix_digit_round_trip():
    rng = np.random.default_rng(5)
    for p in (2, 3, 5):
        mat = rng.integers(0, p, size=(7, 11))
        payload = ca.encode_matrix(mat, p)
        (back,) = ca.decode_matrices([payload], p)
        assert (back == mat).all()
        assert (decode_by_block(payload, p) == mat).all()


def test_matrix_round_trip_two_digit_field():
    mat = np.array([[10, 0, 3], [1, 10, 7]], dtype=np.int64)
    payload = ca.encode_matrix(mat, 11)
    assert payload["data"] == ["100003", "011007"]
    assert (ca.decode_matrices([payload], 11)[0] == mat).all()
    payload["data"][1] = "01100"
    with pytest.raises(ValueError):
        ca.decode_matrices([payload], 11)


DECODE_PRIMES = (2, 3, 11, 193)


def _random_blocks(p: int, seed: int) -> list[np.ndarray]:
    """Blocks of an entry: random shapes, with 0-row and 0-column ones
    among them, and entries over all of F_p, p - 1 included."""
    rng = np.random.default_rng(seed)
    shapes = [(0, 3), (4, 0), (0, 0), (1, 1)] + [
        (rng.integers(2, 9), rng.integers(1, 9)) for _ in range(8)]
    rng.shuffle(shapes)
    blocks = [rng.integers(0, p, size=shape) for shape in shapes]
    next(block for block in blocks if block.size)[0, 0] = p - 1
    return blocks


@pytest.mark.parametrize("p", DECODE_PRIMES)
def test_decode_matrices_matches_the_per_block_reference(p):
    for seed in range(5):
        blocks = _random_blocks(p, seed)
        payloads = [ca.encode_matrix(block, p) for block in blocks]
        got = ca.decode_matrices(payloads, p)
        assert len(got) == len(blocks)
        for block, payload, back in zip(blocks, payloads, got):
            want = decode_by_block(payload, p)
            assert back.dtype == want.dtype == np.int64
            assert back.shape == want.shape == block.shape
            assert (back == want).all() and (back == block).all()
    assert ca.decode_matrices([], p) == []


def _row_count(block: dict, p: int) -> None:
    block["data"].pop()


def _row_width(block: dict, p: int) -> None:
    """One digit moved from the first row to the last: the block and the
    entry keep their digit counts, so only the row widths tell."""
    block["data"][0] = block["data"][0][:-1]
    block["data"][-1] += "0"


def _non_digit(block: dict, p: int) -> None:
    """A letter as the last digit of an entry whose other digits are 0,
    so that the entry it would give (72) lies in F_p for p = 193."""
    width = len(str(p - 1))
    block["data"][0] = "0" * (width - 1) + "x" + block["data"][0][width:]


def _outside_the_field(block: dict, p: int) -> None:
    width = len(str(p - 1))
    block["data"][0] = str(p) + block["data"][0][width:]


CORRUPTIONS = [_row_count, _row_width, _non_digit, _outside_the_field]


def _corrupt_at(payloads: list[dict], where: str, corrupt, p: int) -> None:
    """Corrupt the first, a middle or the last block of two rows or more."""
    full = [b for b in payloads if b["rows"] > 1 and b["cols"]]
    assert len(full) >= 3
    corrupt({"first": full[0], "middle": full[len(full) // 2],
             "last": full[-1]}[where], p)


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("corrupt", CORRUPTIONS)
@pytest.mark.parametrize("p", DECODE_PRIMES)
def test_decode_matrices_refuses_what_the_reference_refuses(p, corrupt, where):
    payloads = [ca.encode_matrix(block, p) for block in _random_blocks(p, 7)]
    _corrupt_at(payloads, where, corrupt, p)
    with pytest.raises(ValueError):
        ca.decode_matrices(payloads, p)
    assert sum(_refuses(payload, p) for payload in payloads) == 1


@pytest.mark.parametrize("p", DECODE_PRIMES)
def test_decode_matrices_refuses_a_row_moved_to_the_next_block(p):
    """Row widths and the digit count still agree when a row moves to the
    next block of equal width; only the blocks' row counts tell."""
    rng = np.random.default_rng(p)
    payloads = [ca.encode_matrix(rng.integers(0, p, size=(rows, 4)), p)
                for rows in (3, 2)]
    payloads[1]["data"].insert(0, payloads[0]["data"].pop())
    with pytest.raises(ValueError):
        ca.decode_matrices(payloads, p)
    assert _refuses(payloads[0], p) and _refuses(payloads[1], p)


def _refuses(payload: dict, p: int) -> bool:
    try:
        decode_by_block(payload, p)
    except ValueError:
        return True
    return False


def test_cache_key_stability():
    ctx = ca.resolution_context("twist(I,1)", 2, 2, 3, "dominance")
    assert ca.cache_key(ctx) == ca.cache_key(dict(reversed(list(ctx.items()))))


def test_resolution_round_trip(tmp_path):
    res = resolve_expression("twist(I,1)", 2, 3)
    payload = ca.resolution_payload(res)
    rebuilt = ca.resolution_from_payload(payload)
    assert rebuilt.term_partitions() == res.term_partitions()
    for a, b in zip(res.diffs, rebuilt.diffs):
        assert set(a) == set(b)
        for comp in a:
            assert (a[comp] == b[comp]).all()
    # serialize -> deserialize -> serialize is byte stable
    second = ca.resolution_payload(rebuilt)
    assert ca.stable_json(payload) == ca.stable_json(second)


def test_store_and_load(tmp_path):
    store = ca.ResolutionCache(tmp_path)
    res = resolve_expression("twist(I,1)", 2, 3)
    path = store.store(res)
    assert path.exists()
    with open(path, "r", encoding="utf-8") as handle:
        raw = json.load(handle)
    assert raw["version"] == ca.SCHEMA_VERSION
    loaded = store.load("twist(I,1)", 2, 2, 3, "dominance")
    assert loaded is not None
    assert loaded.term_partitions() == res.term_partitions()


def test_equal_resolutions_give_byte_identical_files(tmp_path, monkeypatch):
    """A stored file holds no wall-clock time: one resolution, and a fresh
    resolve of the same module a day later, store byte for byte alike."""
    clock = iter(range(0, 10 ** 7, 86400))
    real_gmtime = time.gmtime
    monkeypatch.setattr(time, "gmtime", lambda *_: real_gmtime(next(clock)))
    clear_resolution_memo()
    res = resolve_expression("twist(I,1)", 2, 3)
    first = ca.ResolutionCache(tmp_path / "a").store(res)
    again = ca.ResolutionCache(tmp_path / "b").store(res)
    clear_resolution_memo()
    fresh = ca.ResolutionCache(tmp_path / "c").store(
        resolve_expression("twist(I,1)", 2, 3))
    assert first.name == again.name == fresh.name
    assert first.read_bytes() == again.read_bytes() == fresh.read_bytes()
    # a file written with the former "created" field still loads
    payload = json.loads(first.read_text(encoding="utf-8"))
    first.write_text(json.dumps(dict(payload, created="2026-01-01T00:00:00Z")),
                     encoding="utf-8")
    loaded = ca.ResolutionCache(tmp_path / "a").load(
        "twist(I,1)", 2, 2, 3, "dominance")
    assert loaded is not None
    assert loaded.term_partitions() == res.term_partitions()
    clear_resolution_memo()


def test_cache_hit_reproduces_tables(tmp_path):
    clear_resolution_memo()
    cold = ext("twist(I,1)", "G(2)", 2, cache_dir=str(tmp_path))
    clear_resolution_memo()
    warm = ext("twist(I,1)", "G(2)", 2, cache_dir=str(tmp_path))
    assert json.dumps(cold.payload(), sort_keys=True) == \
        json.dumps(warm.payload(), sort_keys=True)
    clear_resolution_memo()


def test_memo_hit_is_stored_to_a_cache_dir_that_lacks_it(tmp_path):
    """A resolution first made without a cache directory is written to the
    directory a later call names, byte for byte as a cold run writes it,
    and a file already there is left as it is."""
    clear_resolution_memo()
    cold = tmp_path / "cold"
    ext("twist(I,1)", "S(2)", 2, cache_dir=str(cold))
    (want,) = cold.glob("*.json")
    clear_resolution_memo()
    ext("twist(I,1)", "G(2)", 2)
    hit = tmp_path / "hit"
    ext("twist(I,1)", "S(2)", 2, cache_dir=str(hit))
    (got,) = hit.glob("*.json")
    assert got.name == want.name and got.read_bytes() == want.read_bytes()
    got.write_text("kept", encoding="utf-8")
    ext("twist(I,1)", "L(2)", 2, cache_dir=str(hit))
    assert got.read_text(encoding="utf-8") == "kept"
    clear_resolution_memo()


# one source and its targets: shapes, a submodule, duals and a simple
SPLIT_SOURCE, SPLIT_DEPTH = "twist(I*I,1)", 5
SPLIT_TARGETS = ["S(4)", "L(4)", "schur(3,1)", "dual(schur(2,2))",
                 "dual(G(4))", "simple(2,2)"]


def test_loaded_resolution_supports_ext(tmp_path):
    """A resolution loaded from the disk cache, which builds its own
    coefficient blocks, gives the fresh resolution's Ext dims."""
    store = ca.ResolutionCache(tmp_path)
    for source, depth, targets in (("twist(I,1)", 3, ["L(2)"]),
                                   (SPLIT_SOURCE, SPLIT_DEPTH, SPLIT_TARGETS)):
        fresh = homology.resolve(evaluate(source, 2), depth)
        store.store(fresh)
        loaded = store.load(fresh.source, 2, fresh.n, depth, "dominance")
        assert loaded is not None and loaded is not fresh
        for text in targets:
            target = evaluate(text, 2)
            assert ext_dims(loaded, target) == ext_dims(fresh, target), text


def test_coefficient_blocks_are_built_once_per_resolution(monkeypatch):
    built = []
    real = homology.coefficient_blocks

    def counted(res, s):
        built.append((id(res), s))
        return real(res, s)

    monkeypatch.setattr(homology, "coefficient_blocks", counted)
    module = evaluate(SPLIT_SOURCE, 2)
    res = homology.resolve(module, SPLIT_DEPTH)
    targets = [evaluate(text, 2) for text in SPLIT_TARGETS]
    first = [ext_dims(res, target) for target in targets]
    assert built == [(id(res), s) for s in range(res.depth)]
    assert [ext_dims(res, target) for target in targets] == first
    # another resolution of the same module builds its own, once
    other = homology.resolve(module, SPLIT_DEPTH, sweep="reversed")
    assert [ext_dims(other, target) for target in targets] == first
    assert built[res.depth:] == [(id(other), s) for s in range(other.depth)]


def test_ext_dims_leaves_the_cache_file_byte_identical(tmp_path):
    """The coefficient blocks an Ext table builds on a resolution stay out
    of its cache entry: the file, and a store of the same resolution after
    the tables, match the entry written before them byte for byte."""
    clear_resolution_memo()
    ext(SPLIT_SOURCE, SPLIT_TARGETS[0], 2, cache_dir=str(tmp_path))
    (path,) = tmp_path.glob("*.json")
    before = path.read_bytes()
    clear_resolution_memo()
    for text in SPLIT_TARGETS:
        ext(SPLIT_SOURCE, text, 2, cache_dir=str(tmp_path))
    res = resolve_expression(SPLIT_SOURCE, 2, SPLIT_DEPTH,
                             cache_dir=str(tmp_path))
    assert res._coefficients
    assert path.read_bytes() == before
    again = ca.ResolutionCache(tmp_path / "again").store(res)
    assert again.read_bytes() == before
    clear_resolution_memo()


# sha256 of the file that stores twist(I,1)*twist(I,1) in each context: a
# change to how stages are built, stored or loaded must keep these bytes
PINNED_FILES = {
    (2, 5, "dominance"):
        "04c259b1a2bc5eac75b08948261fc64a02dfc86a431a288a26ca0048c58c29ea",
    (2, 5, "reversed"):
        "20bb4e09cac037ff4f8a2faa39212c97aecf7bac28a58f2fab0ae742b8f3fd62",
    (3, 2, "dominance"):
        "dc2031683721549283790b10ef9eda3742116ac776ef996f59cc5ca37652c173",
    (3, 2, "reversed"):
        "3516adb71e16952da9677e14246fabb24c8aa3b873e1ae0bb44159d43a094d9d",
}


@pytest.mark.parametrize("p,depth,sweep", sorted(PINNED_FILES))
def test_stored_file_bytes_are_pinned(tmp_path, p, depth, sweep):
    """A fresh resolution stores the pinned bytes, and so does the one the
    cache loader rebuilds from them."""
    res = homology.resolve(evaluate("twist(I,1)*twist(I,1)", p), depth,
                           sweep=sweep)
    path = ca.ResolutionCache(tmp_path / "cold").store(res)
    data = path.read_bytes()
    assert hashlib.sha256(data).hexdigest() == PINNED_FILES[p, depth, sweep]
    loaded = ca.ResolutionCache(tmp_path / "cold").load(res.source, p, res.n,
                                                        depth, sweep)
    assert loaded is not None and loaded is not res
    assert ca.ResolutionCache(tmp_path / "warm").store(loaded).read_bytes() == data


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("corrupt", CORRUPTIONS)
def test_damaged_block_of_a_pinned_entry_is_a_miss_and_rewritten(
        tmp_path, corrupt, where):
    """Each damage the one-pass decode refuses, in the first, a middle or
    the last block of a stored entry, makes the entry a miss; the next
    call resolves again and rewrites the pinned bytes."""
    p, depth, sweep = 2, 5, "dominance"
    expr = "twist(I,1)*twist(I,1)"
    clear_resolution_memo()
    resolve_expression(expr, p, depth, sweep=sweep, cache_dir=str(tmp_path))
    (path,) = tmp_path.glob("*.json")
    payload = json.loads(path.read_text(encoding="utf-8"))
    _corrupt_at([block for diff in payload["diffs"] for block in diff.values()],
                where, corrupt, p)
    path.write_text(ca.stable_json(payload), encoding="utf-8")
    store = ca.ResolutionCache(tmp_path)
    assert store.load(expr, p, 4, depth, sweep) is None
    clear_resolution_memo()
    resolve_expression(expr, p, depth, sweep=sweep, cache_dir=str(tmp_path))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == PINNED_FILES[p, depth, sweep]
    assert store.load(expr, p, 4, depth, sweep) is not None
    clear_resolution_memo()


def test_the_directory_is_made_by_the_first_store(tmp_path):
    """A load from a directory that does not exist is a miss and makes
    nothing; the first store makes the directory, and the entry loads."""
    clear_resolution_memo()
    res = resolve_expression("twist(I,1)", 2, 3)
    store = ca.ResolutionCache(tmp_path / "new" / "dir")
    assert store.load(res.source, 2, res.n, 3, res.sweep) is None
    assert not (tmp_path / "new").exists()
    path = store.store(res)
    assert path.parent == tmp_path / "new" / "dir" and path.is_file()
    loaded = store.load(res.source, 2, res.n, 3, res.sweep)
    assert loaded.term_partitions() == res.term_partitions()
    clear_resolution_memo()


def test_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv(ca.ENV_CACHE_DIR, str(tmp_path / "env"))
    assert ca.default_cache_dir("/elsewhere") == str(tmp_path / "env")
    monkeypatch.delenv(ca.ENV_CACHE_DIR)
    assert ca.default_cache_dir("/elsewhere") == "/elsewhere"
    assert ca.default_cache_dir(None) is None


def test_spellings_of_one_module_share_a_resolution():
    clear_resolution_memo()
    tensor = resolve_expression("twist(I,1)*twist(I,1)", 2, 2)
    assert resolve_expression("twist(I*I,1)", 2, 2) is tensor
    assert tensor.source == "twist(I,1)*twist(I,1)"
    assert resolve_expression("S(1)*S(1)", 2, 2) is resolve_expression("I*I", 2, 2)
    clear_resolution_memo()


def test_spellings_share_one_cache_file_per_sweep(tmp_path):
    clear_resolution_memo()
    tables = {}
    for sweep in ("dominance", "reversed"):
        for src in ("twist(I,1)*twist(I,1)", "twist(I*I,1)"):
            tables[sweep, src] = ext(src, "S(4)", 2, depth=2, sweep=sweep,
                                     cache_dir=str(tmp_path)).dims
    files = sorted(tmp_path.glob("*.json"))
    assert len(files) == 2
    contexts = [json.loads(f.read_text(encoding="utf-8"))["context"]
                for f in files]
    assert {c["expression"] for c in contexts} == {"twist(I,1)*twist(I,1)"}
    assert {c["sweep"] for c in contexts} == {"dominance", "reversed"}
    assert len(set(map(tuple, tables.values()))) == 1
    clear_resolution_memo()


def _drop_last_column(payload):
    block = next(b for diff in payload["diffs"] for b in diff.values()
                 if b["cols"])
    block["cols"] -= 1
    block["data"] = [line[:-1] for line in block["data"]]
    return json.dumps(payload)


def _letter_in_block(payload):
    block = next(b for diff in payload["diffs"] for b in diff.values()
                 if b["rows"] and b["cols"])
    block["data"][0] = "x" + block["data"][0][1:]
    return json.dumps(payload)


def _data_not_a_list(payload):
    block = next(b for diff in payload["diffs"] for b in diff.values())
    block["data"] = 5
    return json.dumps(payload)


def _stages_not_a_list(payload):
    return json.dumps(dict(payload, stages=5))


def _top_level_list(payload):
    return json.dumps([payload])


def _one_stage_too_few(payload):
    """The last stage and its differential dropped: the entry would give
    twist(I,1) against G(2) as [0, 0], one degree short of its depth."""
    return json.dumps(dict(payload, stages=payload["stages"][:-1],
                           diffs=payload["diffs"][:-1]))


def _one_stage_too_many(payload):
    return json.dumps(dict(payload, stages=payload["stages"] + [[]],
                           diffs=payload["diffs"] + [{}]))


# a wrong JSON type is damage too: it must not escape as a TypeError
@pytest.mark.parametrize("corrupt", [
    _drop_last_column, _letter_in_block,
    lambda payload: json.dumps(payload)[:-40],
    lambda payload: json.dumps(dict(payload, context=dict(
        payload["context"], expression="twist(I,2)"))),
    _data_not_a_list, _stages_not_a_list, _top_level_list,
    _one_stage_too_few, _one_stage_too_many])
def test_damaged_entry_is_recomputed(tmp_path, corrupt):
    clear_resolution_memo()
    cold = ext("twist(I,1)", "G(2)", 2, cache_dir=str(tmp_path))
    (path,) = tmp_path.glob("*.json")
    payload = json.loads(path.read_text(encoding="utf-8"))
    path.write_text(corrupt(payload), encoding="utf-8")
    store = ca.ResolutionCache(tmp_path)
    assert store.load("twist(I,1)", 2, 2, 3, "dominance") is None
    clear_resolution_memo()
    again = ext("twist(I,1)", "G(2)", 2, cache_dir=str(tmp_path))
    assert again.payload() == cold.payload()
    # the recomputed resolution overwrote the damaged file
    assert store.load("twist(I,1)", 2, 2, 3, "dominance") is not None
    clear_resolution_memo()


@pytest.mark.parametrize("label", ["40", "2,0", "3", "1", 2])
def test_stage_label_that_is_no_partition_of_the_degree_is_a_miss(tmp_path, label):
    """A stage label must be a partition of the source's degree into at
    most n parts: "40" would build a Gamma^40 summand past the ambient
    cap, "2,0" would load with a zero part, and the number 2 is no
    label at all."""
    clear_resolution_memo()
    store = ca.ResolutionCache(tmp_path)
    cold = ext("twist(I,1)", "S(2)", 2, cache_dir=str(tmp_path))
    (path,) = tmp_path.glob("*.json")
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["stages"][0] == ["2"]
    payload["stages"][0] = [label]
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ValueError, match="stage label|parts must be"):
        ca.resolution_from_payload(payload)
    assert store.load("twist(I,1)", 2, 2, 3, "dominance") is None
    clear_resolution_memo()
    again = ext("twist(I,1)", "S(2)", 2, cache_dir=str(tmp_path))
    assert again.payload() == cold.payload()
    loaded = store.load("twist(I,1)", 2, 2, 3, "dominance")
    assert loaded is not None and loaded.term_partitions()[0] == [(2,)]
    clear_resolution_memo()


def test_entry_with_the_former_truncated_key_is_a_hit(tmp_path, monkeypatch):
    """Schema 2 files written before the key was dropped carry
    "truncated": false; they load without a resolve, to the same tables."""
    clear_resolution_memo()
    fresh = {text: ext(SPLIT_SOURCE, text, 2).dims for text in SPLIT_TARGETS}
    res = resolve_expression(SPLIT_SOURCE, 2, SPLIT_DEPTH)
    path = ca.ResolutionCache(tmp_path).store(res)
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert "truncated" not in payload
    path.write_text(ca.stable_json(dict(payload, truncated=False)),
                    encoding="utf-8")
    clear_resolution_memo()

    def no_resolve(*args, **kwargs):
        raise AssertionError("a stored resolution was resolved again")

    monkeypatch.setattr(homology, "resolve", no_resolve)
    for text in SPLIT_TARGETS:
        table = ext(SPLIT_SOURCE, text, 2, cache_dir=str(tmp_path))
        assert table.dims == fresh[text], text
    clear_resolution_memo()


def test_cli_recomputes_a_damaged_stage_label(tmp_path, capsys):
    from spfext import cli

    argv = ["ext", "--p", "2", "--src", "twist(I,1)", "--tgt", "S(2)",
            "--cache-dir", str(tmp_path)]
    clear_resolution_memo()
    assert cli.main(argv) == 0
    cold = capsys.readouterr().out
    (path,) = tmp_path.glob("*.json")
    for label in ("40", "2,0"):
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["stages"][0] = [label]
        path.write_text(json.dumps(payload), encoding="utf-8")
        clear_resolution_memo()
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == cold
        assert json.loads(path.read_text(encoding="utf-8"))["stages"][0] == ["2"]
    clear_resolution_memo()


# A schema 1 entry of twist(I,1) at p = 2, depth 3, as written before
# resolutions were cut to dominant weights: it holds the (0,2) blocks too.
V1_TWISTED_IDENTITY = {
    "context": {"depth": 3, "expression": "twist(I,1)", "n": 2, "p": 2,
                "schema": 1, "sweep": "dominance"},
    "diffs": [{"0,2": {"cols": 1, "data": ["1"], "rows": 1},
               "1,1": {"cols": 1, "data": [], "rows": 0},
               "2,0": {"cols": 1, "data": ["1"], "rows": 1}},
              {"0,2": {"cols": 1, "data": ["0"], "rows": 1},
               "1,1": {"cols": 2, "data": ["11"], "rows": 1},
               "2,0": {"cols": 1, "data": ["0"], "rows": 1}},
              {"0,2": {"cols": 1, "data": ["1"], "rows": 1},
               "1,1": {"cols": 1, "data": ["1", "1"], "rows": 2},
               "2,0": {"cols": 1, "data": ["1"], "rows": 1}},
              {}],
    "key": "7ed9f24a0cb9abd2522dea374916214568965803235cae18bb710148098b860d",
    "stages": [["2"], ["1,1"], ["2"], []],
    "truncated": False, "version": 1}


def test_schema_one_entry_is_recomputed(tmp_path):
    clear_resolution_memo()
    fresh = ext("twist(I,1)", "G(2)", 2)
    clear_resolution_memo()
    v1 = json.dumps(V1_TWISTED_IDENTITY)
    (tmp_path / f"{V1_TWISTED_IDENTITY['key']}.json").write_text(v1)
    current = ca.ResolutionCache(tmp_path).path_for(
        ca.resolution_context("twist(I,1)", 2, 2, 3, "dominance"))
    current.write_text(v1)  # a schema 1 body even under the current name
    table = ext("twist(I,1)", "G(2)", 2, cache_dir=str(tmp_path))
    assert table.payload() == fresh.payload()
    rewritten = json.loads(current.read_text(encoding="utf-8"))
    assert rewritten["version"] == ca.SCHEMA_VERSION == 2
    assert rewritten["context"]["schema"] == 2
    assert [sorted(d) for d in rewritten["diffs"]] == [
        ["1,1", "2,0"], ["1,1", "2,0"], ["1,1", "2,0"], []]
    clear_resolution_memo()
