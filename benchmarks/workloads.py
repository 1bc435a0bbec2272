"""The benchmark's workloads: inputs made from a seed, one pass, and the checks.

A workload is plain data, so the runner can hand it to a fresh worker
process as JSON.  The seed only permutes the order of the inputs inside
a workload; the set of inputs never changes, and neither may any result.
Order still matters for speed, because it decides which in-process memo
and operator-LRU entries a later call can reuse.

Every check is an oracle that does not come from the computation it
checks: committed reference output, the rim-hook slicing polynomial,
mirror duality or sweep independence.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

SUITE_NAMES = ("lemma22", "koszul", "ex34", "ex35", "thm32", "lemma31")


@dataclass
class Outcome:
    """What one pass produced: byte strings to compare across passes, and
    the names of the checks it ran, with the failed ones listed apart."""
    outputs: dict[str, str] = field(default_factory=dict)
    checks: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(what)


@dataclass(frozen=True)
class Suites:
    """`spfext check --suite NAME --format json --jobs 1` through cli.main,
    one suite after another in one process."""
    names: tuple[str, ...] = SUITE_NAMES
    kind: str = "suites"

    def items(self, seed: int) -> list[str]:
        order = list(self.names)
        random.Random(seed).shuffle(order)
        return order

    def run(self, items: list[str], cache_dir: str) -> Outcome:
        from spfext import cli

        out = Outcome()
        for suite in items:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(["check", "--suite", suite, "--format", "json",
                                 "--jobs", "1", "--cache-dir", cache_dir])
            text = buf.getvalue()
            out.outputs[suite] = text
            out.check(code == 0, f"{suite}: exit code {code}")
            try:
                cases = json.loads(text)["cases"]
            except (ValueError, KeyError):
                out.check(False, f"{suite}: stdout is not a suite report")
                continue
            for case in cases:
                out.check(case["passed"], f"{suite}: case {case['name']} failed")
            reference = (REFERENCE_DIR / f"{suite}.json").read_text(encoding="utf-8")
            out.check(text == reference, f"{suite}: stdout differs from "
                                         f"reference/{suite}.json")
        return out


def _pad(poly: list[int], length: int) -> list[int]:
    return poly + [0] * (length - len(poly))


def _conjugate(shape: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(1 for part in shape if part > col)
                 for col in range(shape[0] if shape else 0))


def _schur(shape) -> str:
    return "schur(" + ",".join(map(str, shape)) + ")"


@dataclass(frozen=True)
class Tables:
    """Ext tables through the public `ext(..., cache_dir=...)` call.

    `shapes` are Schur targets against the twisted tensor power
    I^(1) x ... x I^(1) (d factors), checked against the rim p-hook
    polynomial and the conjugate flip.  `mirror_targets` are checked
    against their Kuhn duals for the twisted I^d source.  Every table is
    computed on every sweep, and the sweeps must agree byte for byte.
    """
    p: int = 2
    d: int = 0
    shapes: tuple[tuple[int, ...], ...] = ()
    mirror_targets: tuple[str, ...] = ()
    sweeps: tuple[str, ...] = ("dominance",)
    kind: str = "tables"

    @property
    def tensor_source(self) -> str:
        return "*".join(["twist(I,1)"] * self.d)

    @property
    def mirror_source(self) -> str:
        return "twist(" + "*".join(["I"] * self.d) + ",1)"

    def pairs(self) -> list[tuple[str, str]]:
        pairs = [(self.tensor_source, _schur(shape)) for shape in self.shapes]
        for tgt in self.mirror_targets:
            pairs += [(self.mirror_source, tgt),
                      (self.mirror_source, f"dual({tgt})")]
        return pairs

    def items(self, seed: int) -> list[list[str]]:
        order = [[sweep, src, tgt] for sweep in self.sweeps
                 for src, tgt in self.pairs()]
        random.Random(seed).shuffle(order)
        return order

    def run(self, items: list[list[str]], cache_dir: str) -> Outcome:
        import spfext

        out = Outcome()
        dims = {}
        for sweep, src, tgt in items:
            table = spfext.ext(src, tgt, self.p, sweep=sweep, cache_dir=cache_dir)
            out.outputs[f"{sweep}|{src}|{tgt}"] = json.dumps(table.payload(),
                                                            sort_keys=True)
            dims[sweep, src, tgt] = table.dims
        self.verify(dims, out)
        return out

    def verify(self, dims: dict, out: Outcome) -> None:
        from spfext import young

        flip = (self.p - 1) * self.d
        window = 2 * (self.p - 1) * self.d
        for sweep in self.sweeps:
            for shape in self.shapes:
                got = dims[sweep, self.tensor_source, _schur(shape)]
                want = _pad(young.poincare_polynomial(shape, self.p), len(got))
                out.check(got == want, f"{sweep} {_schur(shape)}: {got} != "
                                       f"slicing polynomial {want}")
                conj = dims[sweep, self.tensor_source, _schur(_conjugate(shape))]
                out.check(all(got[s] == conj[flip - s] for s in range(flip + 1)),
                          f"{sweep} {_schur(shape)}: conjugate flip fails")
            for tgt in self.mirror_targets:
                fwd = dims[sweep, self.mirror_source, tgt]
                bwd = dims[sweep, self.mirror_source, f"dual({tgt})"]
                out.check(len(fwd) == len(bwd) == window + 1
                          and all(fwd[s] == bwd[window - s]
                                  for s in range(window + 1)),
                          f"{sweep} {tgt}: mirror {fwd} vs dual {bwd}")
        first = self.sweeps[0]
        for sweep in self.sweeps[1:]:
            for src, tgt in self.pairs():
                out.check(out.outputs[f"{sweep}|{src}|{tgt}"]
                          == out.outputs[f"{first}|{src}|{tgt}"],
                          f"Ext({src}, {tgt}): {sweep} payload differs from {first}")


# The six suites are the user's own verification run, and the only
# workload where cli, suites and the sampled Koszul equivariance check
# carry the load.
# The degree-4 tables are the A5 slicing and A6 mirror inputs on both
# sweeps: the cold pass is dominated by resolve and fp work and writes
# the disk cache; the warm pass skips resolve and measures target
# construction, cache reads and ext_dims.
WORKLOADS = {
    "suites": Suites(),
    "deg4_tables": Tables(
        p=2, d=2,
        shapes=((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)),
        mirror_targets=("S(4)", "L(4)", "G(4)", "schur(2,2)", "schur(3,1)",
                        "simple(2,2)"),
        sweeps=("dominance", "reversed")),
}


def _tuples(value):
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def from_spec(spec: dict):
    """The workload that `dataclasses.asdict` turned into `spec`."""
    fields = {key: _tuples(value) for key, value in spec.items() if key != "kind"}
    return {"suites": Suites, "tables": Tables}[spec["kind"]](**fields)
