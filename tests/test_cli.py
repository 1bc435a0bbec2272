import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from spfext.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ext_lemma_value(capsys):
    code, out, _ = run_cli(capsys, "ext", "--p", "2", "--i", "1",
                           "--src", "twist(I,1)", "--tgt", "G(2)",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dims"] == [0, 0, 1]
    assert payload["depth"] == 3 and payload["d"] == 1


def test_ext_hom_of_projective(capsys):
    code, out, _ = run_cli(capsys, "ext", "--p", "2", "--src", "G(2)",
                           "--tgt", "G(2)", "--format", "json")
    assert code == 0
    assert json.loads(out)["dims"] == [1, 0, 0]


def test_ext_parse_error(capsys):
    code, out, err = run_cli(capsys, "ext", "--p", "2", "--src", "G(2",
                             "--tgt", "G(2)")
    assert code == 2
    assert out == ""
    assert "parse error" in err


def test_ext_degree_mismatch(capsys):
    code, _, err = run_cli(capsys, "ext", "--p", "2", "--src", "G(2)",
                           "--tgt", "G(3)")
    assert code == 3


def test_ext_nonprime(capsys):
    code, _, err = run_cli(capsys, "ext", "--p", "4", "--src", "G(2)",
                           "--tgt", "G(2)")
    assert code == 3


def test_ext_prime_past_the_exact_bound(capsys):
    """A prime whose products overflow int64 sums is refused as a semantic
    error, not met by a failed invariant check inside a resolution."""
    code, out, err = run_cli(capsys, "ext", "--p", "4294967311", "--src",
                             "I*I*I", "--tgt", "schur(2,1)")
    assert code == 3
    assert out == "" and "not below 65536" in err


def test_ext_large_degree_guard(capsys):
    code, _, err = run_cli(capsys, "ext", "--p", "2", "--i", "1",
                           "--src", "twist(G(4),1)", "--tgt", "twist(G(4),1)")
    assert code == 3
    assert "allow-large" in err


def test_ext_d_flag_validation(capsys):
    code, _, err = run_cli(capsys, "ext", "--p", "2", "--d", "3",
                           "--src", "G(2)", "--tgt", "G(2)")
    assert code == 3


def test_ambient_cap_exit(capsys):
    """Exit code 4 means the ambient dimension cap: G(8) at p = 2 needs
    8^8 = 2^24 tensor coordinates, past the cap of 2^22."""
    code, out, err = run_cli(capsys, "ext", "--allow-large", "--src", "G(8)",
                             "--tgt", "G(8)")
    assert code == 4 and out == ""
    assert err == ("budget exceeded: ambient dimension 16777216 exceeds "
                   "cap 4194304\n")


def test_ext_csv_format(capsys):
    code, out, _ = run_cli(capsys, "ext", "--p", "2", "--src", "twist(I,1)",
                           "--tgt", "L(2)", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["s,dim", "0,0", "1,1", "2,0"]


def test_slicings_square(capsys):
    code, out, _ = run_cli(capsys, "slicings", "--shape", "2,2", "--p", "2")
    assert code == 0
    assert "2" in out.splitlines()[0]
    assert "polynomial" in out.splitlines()[-1]


def test_slicings_row(capsys):
    code, out, _ = run_cli(capsys, "slicings", "--shape", "4", "--p", "2",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["polynomial"] == [1]
    assert len(payload["slicings"]) == 1


def test_slicings_indivisible(capsys):
    code, out, err = run_cli(capsys, "slicings", "--shape", "3", "--p", "2")
    assert code == 3
    assert out == ""


def test_check_suite_pass(capsys):
    code, out, _ = run_cli(capsys, "check", "--suite", "lemma31", "--p", "3",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert all(case["passed"] for case in payload["cases"])


def test_check_unknown_filter(capsys):
    code, _, err = run_cli(capsys, "check", "--suite", "ex34", "--p", "5")
    assert code == 3


def test_resolve_prints_terms(capsys):
    code, out, _ = run_cli(capsys, "resolve", "--expr", "twist(I,1)",
                           "--p", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"source", "p", "depth", "terms"}
    assert payload["terms"] == [["2"], ["1,1"], ["2"], []]


def test_selftest(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    assert all(line.startswith("PASS") for line in out.splitlines())


@pytest.mark.parametrize("argv,message", [
    (("resolve", "--expr", "twist(I,1)", "--format", "csv"), "invalid choice"),
    (("selftest", "--format", "json"), "unrecognized arguments: --format")])
def test_format_offers_only_what_the_command_prints(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("argv,flag", [
    (("selftest", "--p", "3"), "--p"),
    (("slicings", "--shape", "2,2", "--depth", "1"), "--depth"),
    (("slicings", "--shape", "2,2", "--cache-dir", "x"), "--cache-dir"),
    (("check", "--suite", "koszul", "--mem-budget", "1"), "--mem-budget"),
    (("check", "--suite", "koszul", "--allow-large"), "--allow-large"),
    (("ext", "--src", "I", "--tgt", "I", "--jobs", "2"), "--jobs"),
    (("resolve", "--expr", "I", "--jobs", "2"), "--jobs"),
    (("ext", "--src", "I", "--tgt", "I", "--mem-budget", "1"), "--mem-budget"),
    (("resolve", "--expr", "I", "--mem-budget", "1"), "--mem-budget")])
def test_subcommands_take_only_the_flags_they_read(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert f"unrecognized arguments: {flag}" in captured.err


def test_cache_dir_used(capsys, tmp_path):
    from spfext.homology import clear_resolution_memo
    clear_resolution_memo()
    code, out1, _ = run_cli(capsys, "ext", "--p", "2", "--src", "twist(I,1)",
                            "--tgt", "S(2)", "--format", "json",
                            "--cache-dir", str(tmp_path))
    assert code == 0
    assert list(tmp_path.glob("*.json"))
    clear_resolution_memo()
    code, out2, _ = run_cli(capsys, "ext", "--p", "2", "--src", "twist(I,1)",
                            "--tgt", "S(2)", "--format", "json",
                            "--cache-dir", str(tmp_path))
    assert out1 == out2
    clear_resolution_memo()


def test_env_cache_override(capsys, tmp_path, monkeypatch):
    from spfext.homology import clear_resolution_memo
    clear_resolution_memo()
    env_dir = tmp_path / "from-env"
    monkeypatch.setenv("SPFEXT_CACHE", str(env_dir))
    code, _, _ = run_cli(capsys, "ext", "--p", "2", "--src", "twist(I,1)",
                         "--tgt", "S(2)", "--format", "json",
                         "--cache-dir", str(tmp_path / "ignored"))
    assert code == 0
    assert list(env_dir.glob("*.json"))
    assert not (tmp_path / "ignored").exists()
    clear_resolution_memo()


def test_jobs_byte_identical(capsys):
    outputs = []
    for jobs in ("1", "4"):
        code, out, _ = run_cli(capsys, "check", "--suite", "ex34", "--p", "2",
                               "--jobs", jobs, "--format", "json")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_resolve_default_depth_matches_library(capsys):
    from spfext.homology import default_depth
    code, out, _ = run_cli(capsys, "resolve", "--expr", "twist(I,1)",
                           "--p", "3", "--format", "json")
    assert code == 0
    assert json.loads(out)["depth"] == default_depth(3, 1, 3)[0] == 5


def test_resolve_refuses_zero_twist(capsys):
    code, _, _ = run_cli(capsys, "resolve", "--expr", "twist(I,1)",
                         "--p", "2", "--i", "0")
    assert code == 3


def test_ext_cache_round_trip_at_two_digit_prime(capsys, tmp_path,
                                                monkeypatch):
    from spfext.cache import ResolutionCache
    from spfext.homology import clear_resolution_memo
    loaded = []
    load = ResolutionCache.load

    def spy(self, *args):
        loaded.append(load(self, *args))
        return loaded[-1]

    monkeypatch.setattr(ResolutionCache, "load", spy)
    argv = ("ext", "--p", "11", "--src", "I*I", "--tgt", "S(2)",
            "--cache-dir", str(tmp_path))
    clear_resolution_memo()
    cold = run_cli(capsys, *argv)
    assert cold[0] == 0
    assert len(list(tmp_path.glob("*.json"))) == 1
    clear_resolution_memo()
    warm = run_cli(capsys, *argv)
    clear_resolution_memo()
    assert loaded[0] is None and loaded[-1] is not None
    assert warm == cold


def test_resolve_prints_the_users_spelling(capsys):
    from spfext.homology import clear_resolution_memo
    clear_resolution_memo()
    for expr in ("twist(I,1)*twist(I,1)", "twist(I*I,1)"):
        code, out, _ = run_cli(capsys, "resolve", "--expr", expr, "--p", "2",
                               "--depth", "1")
        assert code == 0
        assert out.splitlines()[0] == f"resolution of {expr} over F_2, depth 1"
        code, out, _ = run_cli(capsys, "resolve", "--expr", expr, "--p", "2",
                               "--depth", "1", "--format", "json")
        assert json.loads(out)["source"] == expr
    clear_resolution_memo()


NO_SCIPY = textwrap.dedent("""
    import json, sys

    class RefuseScipy:
        def find_spec(self, name, path=None, target=None):
            if name.split(".")[0] == "scipy":
                raise ImportError(f"{name} is refused")

    def loaded(name):
        return sorted(m for m in sys.modules
                      if m == name or m.startswith(name + "."))

    sys.meta_path.insert(0, RefuseScipy())
    from spfext.cli import main
    pool = loaded("concurrent.futures")
    assert main(["selftest"]) == 0
    assert main(["ext", "--p", "2", "--src", "twist(I,1)", "--tgt", "G(2)",
                 "--i", "1", "--format", "json"]) == 0
    print(json.dumps({"scipy": loaded("scipy"), "numpy.ma": loaded("numpy.ma"),
                      "concurrent.futures": pool}))
""")


def test_cli_runs_without_scipy():
    """The runtime needs numpy only: with every scipy import refused, the
    self-test and a degree-2 Ext table run, and no scipy module loads.
    Neither does numpy.ma, nor, on importing the CLI, the thread pool."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "SPFEXT_CACHE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", NO_SCIPY], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    *selftest, table, loaded = done.stdout.splitlines()
    assert selftest and all(line.startswith("PASS") for line in selftest)
    assert json.loads(table)["dims"] == [0, 0, 1]
    assert json.loads(loaded) == {"scipy": [], "numpy.ma": [],
                                  "concurrent.futures": []}
