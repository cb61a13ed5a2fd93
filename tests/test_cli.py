import collections
import contextlib
import gc
import hashlib
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from conftest import NOT_ARRAYS, criterion_05_instances, replaced_at, reversed_flag
from hypothesis import given, settings
from hypothesis import strategies as st

import diagflag
from diagflag import cli, diagembed, flagcore, indlimit
from diagflag.cli import build_parser, main, selftest_digest
from diagflag.egraph import GRAPH_SIZE_LIMIT
from diagflag.errors import DomainError, InternalCheckError, ScaleError, reading, strict_list

MIXED_GRAPH_OBJ = {
    "q": 3,
    "p": 4,
    "d": 2,
    "edges": [[1, 1, 1], [2, 3, 1], [3, 4, 1], [2, 2, 2], [3, 3, 2]],
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, (json.loads(out) if out else None)


@pytest.fixture
def mixed_graph_file(tmp_path):
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(MIXED_GRAPH_OBJ))
    return str(path)


def test_restrict_parabolic(capsys):
    code, doc = run_json(capsys, "restrict", "--alpha", "1,2,2,3", "--m", "2")
    assert code == 0
    assert doc["verdict"] == "Parabolic"
    assert doc["flag_type"] == {"ambient": 2, "dims": [1]}
    assert doc["schema_version"] == "3"
    assert doc["selftest_digest"] == selftest_digest()


def test_restrict_not_parabolic_exits_zero(capsys):
    code, doc = run_json(capsys, "restrict", "--alpha", "1,2,2,1", "--m", "2")
    assert code == 0
    assert doc["verdict"] == "NotParabolic"
    assert doc["witness"] == [[1, 2], [2, 1]]


SRC = str(Path(diagflag.__file__).resolve().parent.parent)
# What a CLI process need not load: the value classes generate no code,
# and the selftest digest takes sha256 from the interpreter's builtin
# module, so `hashlib` and its OpenSSL `_hashlib` load only on a build
# without one.
UNUSED_MODULES = ("dataclasses", "inspect") + (
    ("hashlib", "_hashlib") if any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256")) else ()
)


def cold_stdout(code: str) -> str:
    """The stdout of `code` in a fresh interpreter that imports from src."""
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", f"import sys; sys.path.insert(0, {SRC!r})\n{code}"],
        capture_output=True,
        text=True,
    )
    assert (done.returncode, done.stderr) == (0, "")
    return done.stdout


def test_cold_import_loads_neither_dataclasses_nor_inspect():
    """Every CLI process pays for what `import diagflag.cli` loads."""
    code = f"import diagflag.cli\nprint([m for m in {UNUSED_MODULES!r} if m in sys.modules])"
    assert cold_stdout(code) == "[]\n"


def test_a_cold_main_builds_only_the_global_and_its_commands_parser():
    """A process builds the global parser and the parser of the command it
    runs, and no other; printing a report loads none of the unused modules."""
    code = f"""
import io
from diagflag import cli
progs, init = [], cli._CliParser.__init__
def counted(self, *args, **kwargs):
    progs.append(kwargs["prog"])
    init(self, *args, **kwargs)
cli._CliParser.__init__ = counted
stdout, sys.stdout = sys.stdout, io.StringIO()
code = cli.main(["--seed", "3", "restrict", "--alpha", "1,2,2,3", "--m", "2"])
stdout, sys.stdout = sys.stdout, stdout
pinned = '"selftest_digest":"3f42de50f4ebcd3a"' in stdout.getvalue()
print(code, progs, pinned, [m for m in {UNUSED_MODULES!r} if m in sys.modules])
"""
    assert cold_stdout(code) == "0 ['diagflag', 'diagflag restrict'] True []\n"


RESTRICT = ["--seed", "3", "restrict", "--alpha", "1,2,2,3", "--m", "2"]


def test_in_process_main_leaves_the_collector_as_it_found_it(tmp_path, capsys):
    """Only the process entry `console_main` freezes the heap: `main`, for
    a report, an input error and an `--out` run, leaves the frozen count
    and the collector's switch as they were."""
    for argv, expected in ((RESTRICT, 0), (RESTRICT[:-1], 1), (["--out", str(tmp_path / "r.json"), *RESTRICT], 0)):
        before = gc.get_freeze_count(), gc.isenabled()
        assert main(argv) == expected
        assert (gc.get_freeze_count(), gc.isenabled()) == before
    capsys.readouterr()


def cold_console_main(*argv):
    """`cli.console_main` with `argv` in a fresh interpreter that imports
    from src; an exit hook reports on stderr whether the heap was frozen."""
    code = (
        f"import sys; sys.path.insert(0, {SRC!r})\n"
        "import atexit, gc\n"
        "atexit.register(lambda: sys.stderr.write(f'frozen {gc.get_freeze_count() > 0}\\n'))\n"
        "from diagflag.cli import console_main\n"
        "console_main()"
    )
    return subprocess.run([sys.executable, "-I", "-S", "-c", code, *argv], capture_output=True, timeout=60)


def test_a_cold_console_main_exits_with_mains_code_and_bytes(tmp_path, capsys):
    """A process exits with `main`'s code, 0 or 1, and writes the bytes
    that `main` writes in-process, to stdout and to `--out`, after it has
    frozen its heap."""
    for argv, expected in ((RESTRICT, 0), (["oracle", "--n-max", "4", "--d", "2"], 0), (RESTRICT[:-1], 1)):
        assert main(argv) == expected
        out, err = capsys.readouterr()
        done = cold_console_main(*argv)
        assert done.returncode == expected
        assert (done.stdout, done.stderr) == (out.encode(), f"{err}frozen True\n".encode())
    assert main(["--out", str(tmp_path / "in.json"), *RESTRICT]) == 0
    done = cold_console_main("--out", str(tmp_path / "cold.json"), *RESTRICT)
    assert (done.returncode, done.stdout, done.stderr) == (0, b"", b"frozen True\n")
    assert (tmp_path / "cold.json").read_bytes() == (tmp_path / "in.json").read_bytes()
    assert b'"verdict":"Parabolic"' in (tmp_path / "cold.json").read_bytes()


def test_the_selftest_digest_is_pinned_and_the_same_under_hashlib(monkeypatch):
    """The sha256 the CLI picked digests as `hashlib.sha256` does, on the
    battery and on other bytes."""
    assert selftest_digest() == "3f42de50f4ebcd3a"
    for data in (b"", b"abc", "diagflag \u00e9".encode(), bytes(range(256)) * 300):
        assert cli._sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()
    monkeypatch.setattr(cli, "_sha256", hashlib.sha256)
    assert selftest_digest() == "3f42de50f4ebcd3a"


def test_sha256_falls_back_to_hashlib_without_a_builtin_module(monkeypatch):
    for name in ("_sha2", "_sha256"):
        monkeypatch.setitem(sys.modules, name, None)  # makes `import name` fail
    assert cli._builtin_sha256() is hashlib.sha256


def test_input_error_exit_code(capsys):
    assert main(["restrict", "--alpha", "1,2,2,1", "--m", "3"]) == 1
    assert main(["restrict", "--alpha", "1,2,2,1"]) == 1  # missing --m
    assert main(["no-such-command"]) == 1


def test_picard_from_graph(capsys, mixed_graph_file):
    code, doc = run_json(capsys, "picard", "--graph", mixed_graph_file)
    assert code == 0
    assert doc["matrix"] == [[1, 0], [1, 1], [0, 1]]
    assert doc["linear"] is False
    assert doc["standard_extension"] is False


def test_picard_rejects_invalid_graph(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"q": 2, "p": 1, "d": 1, "edges": [[1, 1, 1]]}))
    assert main(["picard", "--graph", str(bad)]) == 1
    assert "input error: invalid graph" in capsys.readouterr().err


def test_validate_egraph(capsys, mixed_graph_file, tmp_path):
    code, doc = run_json(capsys, "validate-egraph", "--graph", mixed_graph_file)
    assert code == 0 and doc["verdict"] == "valid"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"q": 2, "p": 1, "d": 1, "edges": [[1, 1, 1]]}))
    code, doc = run_json(capsys, "validate-egraph", "--graph", str(bad))
    assert code == 0 and doc["verdict"] == "invalid" and doc["violations"]


def test_embed_and_classify(capsys, tmp_path):
    flag = tmp_path / "flag.json"
    flag.write_text(json.dumps({"ambient": 2, "chain": [[["1", "1"]]]}))
    code, doc = run_json(
        capsys, "embed", "--alpha", "1,2,2,3", "--m", "2", "--flag", str(flag)
    )
    assert code == 0
    assert doc["image"]["chain"][0] == [["1", "1", "0", "0"]]
    code, doc = run_json(capsys, "classify", "--alpha", "1,2,2,3", "--m", "2")
    assert code == 0 and doc["verdict"] == "not_se"


def test_classify_strict(capsys, tmp_path):
    emb = tmp_path / "emb.json"
    emb.write_text(
        json.dumps(
            {
                "graph": {"q": 2, "p": 2, "d": 2, "edges": [[1, 1, 1], [2, 2, 1], [2, 2, 2]]},
                "source_type": {"ambient": 2, "dims": [1]},
            }
        )
    )
    code, doc = run_json(capsys, "classify", "--embedding", str(emb))
    assert code == 0 and doc["verdict"] == "strict_se"
    assert doc["witness"]["kappa"] == [1]


def test_constants(capsys, mixed_graph_file):
    code, doc = run_json(
        capsys, "constants", "--graph", mixed_graph_file, "--source-ambient", "3"
    )
    assert code == 0
    assert doc["dims"] == [0, 0, 3]
    assert doc["support"] == [1, 2, 3]


def test_embedding_options_name_what_is_missing(capsys, mixed_graph_file, tmp_path):
    flag = write(tmp_path, "flag.json", {"ambient": 2, "chain": [[["1", "1"]]]})
    for argv, message in [
        (["embed", "--alpha", "1,2,2,3", "--flag", flag], "--alpha requires --m"),
        (["classify", "--graph", mixed_graph_file], "--graph requires --source-dims and --source-ambient"),
        (
            ["classify", "--graph", mixed_graph_file, "--source-dims", "1,2"],
            "--graph requires --source-ambient",
        ),
        (["classify"], "specify the embedding via --embedding, --alpha/--m, or --graph/--source-*"),
    ]:
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"input error: {message}\n")


def test_constants_takes_a_full_embedding(capsys):
    code, doc = run_json(capsys, "constants", "--alpha", "1,2,2,3", "--m", "2")
    assert code == 0
    assert doc["dims"] == [0, 2]
    assert doc["support"] == [1, 2]
    assert doc["constants"] == [[], [["1", "0", "0", "0"], ["0", "1", "0", "0"]]]


# A linear level graph with two monochromatic factors.
LINEAR_GRAPH = {"q": 3, "p": 3, "d": 2, "edges": [[1, 1, 1], [3, 2, 1], [2, 2, 2], [3, 3, 2]]}


def test_factor(capsys, tmp_path):
    graph = tmp_path / "level.json"
    graph.write_text(json.dumps(LINEAR_GRAPH))
    code, doc = run_json(capsys, "factor", "--graph", str(graph))
    assert code == 0
    assert len(doc["factors"]) == 2
    assert doc["factors"][0]["left_map"] == [1, 3]


def test_factor_rejects_nonlinear(capsys, mixed_graph_file):
    assert main(["factor", "--graph", mixed_graph_file]) == 1


def test_oracle_sweep(capsys):
    code, doc = run_json(capsys, "oracle", "--n-max", "4", "--d", "2")
    assert code == 0
    assert doc["verdict"] == "agree"
    assert doc["report"]["parabolic_disagreements"] == []


@pytest.mark.parametrize("d", ["0", "2,0", "-1"])
def test_oracle_rejects_block_counts_below_one(capsys, d):
    assert main(["oracle", "--n-max", "4", "--d", d]) == 1
    assert "input error:" in capsys.readouterr().err


@pytest.mark.parametrize("n_max", ["7", "8"])
def test_oracle_refuses_sweeps_beyond_the_work_limit(capsys, n_max):
    started = time.monotonic()
    assert main(["oracle", "--n-max", n_max, "--d", "1"]) == 1
    assert time.monotonic() - started < 1.0
    _one_input_error(capsys)


def test_an_oracle_disagreement_exits_2_with_its_report(capsys, monkeypatch):
    code, doc = run_json(capsys, "oracle", "--n-max", "4", "--d", "2")
    assert code == 0
    parabolic = doc["report"]["unipotent_agreements"]
    inclusion = diagembed.unipotent_inclusion
    monkeypatch.setattr(diagembed, "unipotent_inclusion", lambda g: not inclusion(g))
    code, doc = run_json(capsys, "oracle", "--n-max", "4", "--d", "2")
    assert code == 2 and doc["verdict"] == "disagree"
    report = doc["report"]
    assert report["ok"] is False and report["parabolic_disagreements"] == []
    assert report["unipotent_agreements"] == 0
    assert len(report["unipotent_disagreements"]) == parabolic > 0


# One argv builder per internal check of the CLI, with the attribute the
# check compares against and a wrong stand-in built from the original.
INTERNAL_CHECKS = {
    "oracle (closed formula)": (
        lambda t: ["oracle", "--n-max", "4", "--d", "2"],
        diagembed.DiagonalEmbedding, "evaluate", lambda fn: lambda emb, f: reversed_flag(fn(emb, f)),
    ),
}


@pytest.mark.parametrize("check", list(INTERNAL_CHECKS))
def test_a_failed_internal_check_exits_2(capsys, tmp_path, monkeypatch, check):
    argv, owner, name, wrong = INTERNAL_CHECKS[check]
    argv = argv(tmp_path)
    assert main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(owner, name, wrong(getattr(owner, name)))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("internal check failed:"), captured.err


# One argv builder per command that runs one route, with the names of a
# cross-check of that route that only the tests run: the brute-force
# classifier and its sampling (criterion 05 and the graph route's tests),
# criterion 06 (sampled against closed-form constants), the factor
# additivity sweep and the chain validation beyond the levels built.
SECOND_ROUTES = {
    "classify": (
        lambda t: ["classify", "--alpha", "1,2,2,3", "--m", "2"],
        flagcore, ("classify_bruteforce", "_settle", "random_flag"),
    ),
    "constants": (
        lambda t: ["constants", "--graph", write(t, "g.json", MIXED_GRAPH_OBJ), "--source-ambient", "3"],
        flagcore, ("support_and_constants",),
    ),
    "factor": (
        lambda t: ["factor", "--graph", write(t, "g.json", LINEAR_GRAPH)],
        indlimit, ("factor_pullback_additivity",),
    ),
    "exhaust --gft": (
        lambda t: ["exhaust", *_sn_spec(t), "--gft", write(t, "gft.json", GFT_LINE_THEN_REST)],
        indlimit, ("validate_sn_graph",),
    ),
}


def refuse_second_routes(monkeypatch, owner, names):
    for name in names:
        def second_route(*args, name=name, **kwargs):
            raise AssertionError(f"ran {name}")

        monkeypatch.setattr(owner, name, second_route)


@pytest.mark.parametrize("command", list(SECOND_ROUTES))
def test_a_command_runs_no_second_route(capsys, tmp_path, monkeypatch, command):
    argv, owner, names = SECOND_ROUTES[command]
    argv = argv(tmp_path)
    code, expected = run(capsys, *argv)
    assert code == 0 and expected
    refuse_second_routes(monkeypatch, owner, names)
    assert run(capsys, *argv) == (0, expected)


def test_classify_reports_the_brute_force_witness_without_sampling(capsys, tmp_path, monkeypatch):
    """Every tenth criterion-05 embedding at two seeds, point targets and
    point sources among them: with the brute force and its sampling
    refused, `classify` reports the witness of `classify_bruteforce`."""
    cases = []
    for g, ft in criterion_05_instances()[::10]:
        path = write(tmp_path, f"e{len(cases)}.json", {"graph": g.to_json_obj(), "source_type": ft.to_json_obj()})
        for seed in (0, 3):
            expected = flagcore.classify_bruteforce(diagembed.DiagonalEmbedding(g, ft).evaluate, ft, seed)
            cases.append((["--seed", str(seed), "classify", "--embedding", path], expected.to_json_obj()))
    refuse_second_routes(monkeypatch, flagcore, SECOND_ROUTES["classify"][2])
    kinds = collections.Counter()
    for argv, expected in cases:
        code, doc = run_json(capsys, *argv)
        assert code == 0 and (doc["verdict"], doc["witness"]) == (expected["kind"], expected["data"])
        kinds[doc["verdict"]] += 1
    assert kinds == {"not_se": 170, "strict_se": 62}


# One argv builder per embedding source given an option it does not read.
UNREAD_OPTIONS = {
    "classify --embedding --alpha --m": (
        lambda t: ["classify", "--embedding", write(t, "e.json", {"alpha": [1, 2, 2, 3], "m": 2}),
                   "--alpha", "1,1,1,2,2,2", "--m", "3"],
        "--alpha cannot be combined with --embedding",
    ),
    "classify --embedding --m": (
        lambda t: ["classify", "--embedding", write(t, "e.json", {"alpha": [1, 2, 2, 3], "m": 2}), "--m", "5"],
        "--m cannot be combined with --embedding",
    ),
    "classify --alpha --source-ambient": (
        lambda t: ["classify", "--alpha", "1,2,2,3", "--m", "2", "--source-ambient", "3"],
        "--source-ambient cannot be combined with --alpha",
    ),
    "embed --graph --m": (
        lambda t: ["embed", "--graph", write(t, "g.json", MIXED_GRAPH_OBJ), "--source-dims", "1,2",
                   "--source-ambient", "3", "--m", "2", "--flag", "unread.json"],
        "--m cannot be combined with --graph",
    ),
    "picard --graph --alpha --m": (
        lambda t: ["picard", "--graph", write(t, "g.json", MIXED_GRAPH_OBJ), "--alpha", "1,2", "--m", "1"],
        "--alpha cannot be combined with --graph",
    ),
    "picard --graph --source-ambient": (
        lambda t: ["picard", "--graph", write(t, "g.json", MIXED_GRAPH_OBJ), "--source-ambient", "3"],
        "--source-ambient cannot be combined with --graph",
    ),
    "constants --graph --alpha --m": (
        lambda t: ["constants", "--graph", write(t, "g.json", MIXED_GRAPH_OBJ), "--alpha", "1,2", "--m", "7"],
        "--alpha cannot be combined with --graph",
    ),
}


@pytest.mark.parametrize("case", list(UNREAD_OPTIONS))
def test_an_option_its_source_does_not_read_is_refused(capsys, tmp_path, case):
    argv, message = UNREAD_OPTIONS[case]
    assert main(argv(tmp_path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {message}\n"


def test_an_option_given_twice_is_refused(capsys, tmp_path, monkeypatch):
    """Every option of every command, and the global `--seed` and `--out`,
    given twice, even with the same value, is one input error before any
    document is read or any report written; argparse alone would keep the
    last value, so `--d 2 --d 3` would sweep block count 3 alone.  An
    abbreviation is named by its option."""
    monkeypatch.chdir(tmp_path)
    cases = [(["--seed", "1", "--seed", "1", "dot", "--graph", "g.json"], "--seed"),
             (["--out", "a", "--out", "b", "dot", "--graph", "g.json"], "--out"),
             (["oracle", "--n-max", "3", "--d", "2", "--d", "3"], "--d"),
             (["oracle", "--n-max", "3", "--n", "4", "--d", "2"], "--n-max")]
    for command in cli._COMMANDS:
        for action in build_parser(command)._actions:
            if action.dest != "help":
                option = action.option_strings[0]
                cases.append(([command, option, "1", option, "1"], option))
    assert len(cases) == 43
    for argv, option in cases:
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"input error: {option} given twice\n")
    assert list(tmp_path.iterdir()) == []


LONG_TOKEN = "1" + "0" * 5000
TOO_LONG = "has 5001 digits, beyond the limit of"
# One argv builder per boundary input, with what its message must say.
BOUNDARY_INPUTS = {
    "--d beyond the digit limit": (lambda t: ["oracle", "--n-max", "3", "--d", LONG_TOKEN], TOO_LONG),
    "--alpha beyond the digit limit": (
        lambda t: ["restrict", "--alpha", f"1,{LONG_TOKEN}", "--m", "1"], TOO_LONG,
    ),
    "--source-dims beyond the digit limit": (
        lambda t: [
            "picard", "--graph", write(t, "g.json", MIXED_GRAPH_OBJ),
            "--source-ambient", "3", "--source-dims", f"1,{LONG_TOKEN}",
        ],
        TOO_LONG,
    ),
    "--m beyond the digit limit": (lambda t: ["restrict", "--alpha", "1,2", "--m", LONG_TOKEN], TOO_LONG),
    "oracle --n-max below 2": (
        lambda t: ["oracle", "--n-max", "-5", "--d", "2"], "sweeps need 2 <= n_max <= 8, got -5",
    ),
    "exhaust --gft --levels 0": (
        lambda t: ["exhaust", *_sn_spec(t), "--gft", write(t, "gft.json", GFT_LINE_THEN_REST), "--levels", "0"],
        "a realization needs levels >= 1, got 0",
    ),
}


@pytest.mark.parametrize("case", list(BOUNDARY_INPUTS))
def test_boundary_inputs_name_what_is_wrong(capsys, tmp_path, case):
    argv, message = BOUNDARY_INPUTS[case]
    assert main(argv(tmp_path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("input error:") and message in lines[0], captured.err
    assert len(lines[0]) < 200 and "_parse_int" not in lines[0]


@pytest.mark.parametrize("command", ["restrict", "embed", "classify"])
def test_a_huge_alpha_value_is_refused_at_once(capsys, tmp_path, command):
    huge = 10**18
    argv = {
        "restrict": ["restrict", "--alpha", f"1,{huge}", "--m", "1"],
        "embed": ["embed", "--alpha", f"1,{huge}", "--m", "1", "--flag", "unread.json"],
        "classify": ["classify", "--embedding", write(tmp_path, "emb.json", {"alpha": [1, huge], "m": 1})],
    }[command]
    prefix = "bad embedding document: " if command == "classify" else ""
    _refused_at_once(capsys, argv, f"{prefix}map must be surjective onto 1..{huge}")


def test_admissible(capsys, tmp_path):
    sn = tmp_path / "sn.json"
    sn.write_text(json.dumps({"factors": {"2": "inf"}}))
    gft = tmp_path / "gft.json"
    gft.write_text(
        json.dumps(
            {
                "finite_quotients": [],
                "tail": {"kind": "constant", "value": 1},
                "infinite_quotients": True,
                "ordered": None,
            }
        )
    )
    code, doc = run_json(capsys, "admissible", "--gft", str(gft), "--sn", str(sn))
    assert code == 0
    assert doc["verdict"] == "NotAdmissible"
    assert doc["proof"] == {"kind": "constant_tail_divisibility", "constant_value": 1}


def test_admissible_constant_tail_beyond_twice_its_value(capsys, tmp_path):
    # 3^inf has no divisor in (28, 64]; the refutation names only the 28.
    gft = {"finite_quotients": [], "tail": {"kind": "constant", "value": 28},
           "infinite_quotients": True, "ordered": None}
    sn = write(tmp_path, "sn.json", {"factors": {"3": "inf"}})
    argv = ["admissible", "--gft", write(tmp_path, "gft.json", gft), "--sn", sn]
    code, doc = run_json(capsys, *argv)
    assert code == 0
    assert doc["verdict"] == "NotAdmissible"
    assert doc["proof"] == {"kind": "constant_tail_divisibility", "constant_value": 28}


def test_admissible_constant_tail_of_three_hundred_digits_at_once(capsys, tmp_path):
    gft = {"finite_quotients": [], "tail": {"kind": "constant", "value": 10**300},
           "infinite_quotients": True, "ordered": None}
    sn = write(tmp_path, "sn.json", {"factors": {"2": "inf", "3": "inf"}})
    started = time.monotonic()
    code, doc = run_json(capsys, "admissible", "--gft", write(tmp_path, "gft.json", gft), "--sn", sn)
    assert time.monotonic() - started < 1.0
    assert code == 0
    assert doc["proof"] == {"kind": "constant_tail_divisibility", "constant_value": 10**300}


def test_admissible_refuses_a_constant_tail_with_too_many_divisors_below_it(capsys, tmp_path):
    """Over 2^inf 3^inf 5^inf 7^inf there are about 10^7 divisors below
    10^300, beyond `DIVISOR_LIMIT`, but a constant tail's refutation lists
    none: c = 10^60 and c = 10^300 are both refuted at once."""
    sn = write(tmp_path, "sn.json", {"factors": {"2": "inf", "3": "inf", "5": "inf", "7": "inf"}})
    for value in (10**60, 10**300):
        gft = {"finite_quotients": [], "tail": {"kind": "constant", "value": value},
               "infinite_quotients": True, "ordered": None}
        started = time.monotonic()
        code, doc = run_json(capsys, "admissible", "--gft", write(tmp_path, "gft.json", gft), "--sn", sn)
        assert time.monotonic() - started < 1.0
        assert code == 0 and doc["verdict"] == "NotAdmissible"
        assert doc["proof"] == {"kind": "constant_tail_divisibility", "constant_value": value}


@pytest.mark.parametrize("bound", ["-5", "0", "1"])
def test_admissible_rejects_bound_below_two(capsys, tmp_path, bound):
    sn = tmp_path / "sn.json"
    sn.write_text(json.dumps({"factors": {"2": "inf"}}))
    gft = tmp_path / "gft.json"
    gft.write_text(
        json.dumps(
            {
                "finite_quotients": [],
                "tail": {"kind": "geometric", "base": 1, "ratio": 2},
                "infinite_quotients": True,
                "ordered": None,
            }
        )
    )
    argv = ["admissible", "--gft", str(gft), "--sn", str(sn), "--bound", bound]
    assert main(argv) == 1
    assert "input error:" in capsys.readouterr().err


@pytest.mark.parametrize("levels", ["-3", "-1"])
def test_exhaust_rejects_negative_levels(capsys, tmp_path, levels):
    sn = tmp_path / "sn.json"
    sn.write_text(json.dumps({"factors": {"2": "inf"}}))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"s1": 2, "cycle": [2]}))
    assert main(["exhaust", "--sn", str(sn), "--spec", str(spec), "--levels", levels]) == 1
    assert "input error:" in capsys.readouterr().err


def test_exhaust_with_realization(capsys, tmp_path):
    sn = tmp_path / "sn.json"
    sn.write_text(json.dumps({"factors": {"2": "inf"}}))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"s1": 2, "cycle": [2]}))
    gft = tmp_path / "gft.json"
    gft.write_text(
        json.dumps(
            {
                "finite_quotients": [1],
                "tail": None,
                "infinite_quotients": True,
                "ordered": [1, "inf"],
            }
        )
    )
    code, doc = run_json(
        capsys,
        "exhaust",
        "--sn",
        str(sn),
        "--spec",
        str(spec),
        "--gft",
        str(gft),
        "--levels",
        "6",
    )
    assert code == 0 and doc["verdict"] == "valid"
    assert len(doc["realization"]["sn_graph"]["levels"]) == 6
    assert doc["realization"]["level_types"][0] == {"ambient": 2, "dims": [1]}


def test_exhaust_invalid(capsys, tmp_path):
    sn = tmp_path / "sn.json"
    sn.write_text(json.dumps({"factors": {"2": "inf", "3": "inf"}}))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"s1": 1, "cycle": [2]}))
    code, doc = run_json(capsys, "exhaust", "--sn", str(sn), "--spec", str(spec))
    assert code == 0 and doc["verdict"] == "invalid"


def test_exhaust_reports_a_factor_too_long_to_print(capsys, tmp_path):
    """Over 2^inf, the cycle (7^4000,) x 3 introduces 7^12000, past the
    digits the interpreter prints: a report, not an error."""
    sn = write(tmp_path, "sn.json", {"factors": {"2": "inf"}})
    spec = write(tmp_path, "spec.json", {"s1": 1, "cycle": [7**4000] * 3})
    code, doc = run_json(capsys, "exhaust", "--sn", sn, "--spec", spec, "--levels", "0")
    assert code == 0 and doc["verdict"] == "invalid" and doc["terms"] == [1]
    assert doc["violations"][0] == (
        f"membership: cycle introduces a factor of {(7**12000).bit_length()} bits, prime to the number"
    )


def test_dot_output(capsys, mixed_graph_file):
    code, out = run(capsys, "dot", "--graph", mixed_graph_file)
    assert code == 0
    assert out.startswith("graph two_column {")
    assert out.count("--") == 5


def test_dot_rejects_invalid_graph(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"q": 2, "p": 1, "d": 1, "edges": [[1, 1, 1]]}))
    assert main(["dot", "--graph", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "input error: invalid graph" in captured.err


def test_exhaust_with_a_large_prime_s1_is_fast(capsys, tmp_path):
    sn = tmp_path / "sn.json"
    sn.write_text(json.dumps({"factors": {"2": "inf"}}))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"s1": 2**61 - 1, "cycle": [2]}))
    started = time.monotonic()
    code, doc = run_json(capsys, "exhaust", "--sn", str(sn), "--spec", str(spec))
    assert time.monotonic() - started < 1.0
    assert code == 0 and doc["verdict"] == "invalid"
    assert doc["violations"] == [
        f"membership: s1 carries the factor {2**61 - 1}, prime to the number"
    ]


@pytest.mark.parametrize(
    "sn_doc, spec_doc",
    [
        ({"factors": {"2": 1.9, "3": "inf"}}, {"s1": 2, "cycle": [3]}),
        ({"factors": {"2": True, "3": "inf"}}, {"s1": 2, "cycle": [3]}),
        ({"factors": {"2": "inf"}}, {"s1": 2.0, "cycle": [2]}),
        ({"factors": {"2": "inf"}}, {"s1": "2", "cycle": [2]}),
        ({"factors": {"2": "inf"}}, {"s1": 2, "cycle": [2.5]}),
        ({"factors": {"2": "inf"}}, {"s1": 2, "cycle": [True]}),
    ],
)
def test_exhaust_rejects_non_integer_numbers(capsys, tmp_path, sn_doc, spec_doc):
    sn = tmp_path / "sn.json"
    sn.write_text(json.dumps(sn_doc))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(spec_doc))
    assert main(["exhaust", "--sn", str(sn), "--spec", str(spec)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "input error:" in captured.err


def test_the_cached_parser_answers_as_a_fresh_one(capsys, tmp_path, mixed_graph_file):
    """`main` builds the global parser and each command's parser once per
    process.  After calls the parsers refuse, calls that fail later and
    calls with options set, each call gives the exit code and the bytes,
    on both streams, that freshly built parsers give."""
    sn = write(tmp_path, "sn.json", {"factors": {"2": "inf"}})
    spec = write(tmp_path, "spec.json", {"s1": 2, "cycle": [2]})
    calls = [
        ["restrict", "--alpha", "1,2,2,1"],
        ["restrict", "--alpha", "1,2,2,3", "--m", "2"],
        ["no-such-command"],
        ["--seed", "x", "picard", "--graph", mixed_graph_file],
        ["--seed", "7", "classify", "--alpha", "1,2,2,3", "--m", "2"],
        ["classify", "--alpha", "1,2,2,3", "--m", "2"],
        ["exhaust", "--sn", sn, "--spec", spec, "--levels", "-1"],
        ["exhaust", "--sn", sn, "--spec", spec, "--levels", "3"],
        ["exhaust", "--sn", sn, "--spec", spec],
        ["picard", "--graph", str(tmp_path / "missing.json")],
        ["picard", "--graph", mixed_graph_file],
    ]

    def answer(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(answer(argv))
    assert [answer(argv) for argv in calls] == fresh
    # The global parser, then one per command parsed: `--seed x` and
    # `no-such-command` are refused before any command's parser is built.
    assert build_parser.cache_info().misses == 1 + len({"restrict", "classify", "exhaust", "picard"})
    assert [code for code, _, _ in fresh] == [1, 0, 1, 1, 0, 0, 1, 0, 0, 1, 0]


def test_out_file(tmp_path, capsys, mixed_graph_file):
    target = tmp_path / "report.json"
    code, out = run(capsys, "--out", str(target), "picard", "--graph", mixed_graph_file)
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["matrix"] == [[1, 0], [1, 1], [0, 1]]


def test_reports_byte_identical(capsys, mixed_graph_file):
    outputs = []
    for _ in range(2):
        code, out = run(capsys, "--seed", "7", "classify", "--alpha", "1,2,2,3", "--m", "2")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


GFT_LINE_THEN_REST = {
    "finite_quotients": [1],
    "tail": None,
    "infinite_quotients": True,
    "ordered": [1, "inf"],
}


def _graph_with(**changes):
    return {**MIXED_GRAPH_OBJ, **changes}


def _admissible(tmp_path, gft):
    sn = write(tmp_path, "sn.json", {"factors": {"2": "inf"}})
    return ["admissible", "--gft", write(tmp_path, "gft.json", gft), "--sn", sn]


# One argv builder per place a document carries an integer; each puts the
# given non-integer number there.
BAD_NUMBER_ARGV = {
    "graph q (validate-egraph)": lambda t, x: [
        "validate-egraph", "--graph", write(t, "g.json", _graph_with(q=x))
    ],
    "graph p (dot)": lambda t, x: ["dot", "--graph", write(t, "g.json", _graph_with(p=x))],
    "graph d (picard)": lambda t, x: ["picard", "--graph", write(t, "g.json", _graph_with(d=x))],
    "graph edge (factor)": lambda t, x: [
        "factor", "--graph",
        write(t, "g.json", _graph_with(edges=[[1, 1, x]] + MIXED_GRAPH_OBJ["edges"][1:])),
    ],
    "flag-type ambient": lambda t, x: [
        "classify", "--embedding",
        write(t, "e.json", {"graph": MIXED_GRAPH_OBJ, "source_type": {"ambient": x, "dims": [1, 2]}}),
    ],
    "flag-type dims": lambda t, x: [
        "classify", "--embedding",
        write(t, "e.json", {"graph": MIXED_GRAPH_OBJ, "source_type": {"ambient": 3, "dims": [1, x]}}),
    ],
    "embedding alpha": lambda t, x: [
        "classify", "--embedding", write(t, "e.json", {"alpha": [1, 2, x, 3], "m": 2})
    ],
    "embedding m": lambda t, x: [
        "classify", "--embedding", write(t, "e.json", {"alpha": [1, 2, 2, 3], "m": x})
    ],
    "flag ambient": lambda t, x: [
        "embed", "--alpha", "1,2,2,3", "--m", "2",
        "--flag", write(t, "f.json", {"ambient": x, "chain": [[["1", "1"]]]}),
    ],
    "gft finite quotients": lambda t, x: _admissible(
        t, {**GFT_LINE_THEN_REST, "finite_quotients": [x], "ordered": None}
    ),
    "gft ordered": lambda t, x: _admissible(t, {**GFT_LINE_THEN_REST, "ordered": [x, "inf"]}),
    "gft tail": lambda t, x: _admissible(
        t,
        {
            "finite_quotients": [],
            "tail": {"kind": "geometric", "base": 1, "ratio": x},
            "infinite_quotients": False,
            "ordered": None,
        },
    ),
}


@pytest.mark.parametrize("bad", [3.0, 2.5, True, "3"])
@pytest.mark.parametrize("kind", list(BAD_NUMBER_ARGV))
def test_documents_take_json_integers_only(capsys, tmp_path, kind, bad):
    assert main(BAD_NUMBER_ARGV[kind](tmp_path, bad)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error:") and "must be an integer" in captured.err


def test_exhaust_with_a_large_prime_key_is_fast(capsys, tmp_path):
    big = 2**61 - 1
    sn = write(tmp_path, "sn.json", {"factors": {str(big): "inf"}})
    spec = write(tmp_path, "spec.json", {"s1": big, "cycle": [big]})
    started = time.monotonic()
    code, doc = run_json(capsys, "exhaust", "--sn", sn, "--spec", spec, "--levels", "2")
    assert time.monotonic() - started < 1.0
    assert code == 0 and doc["verdict"] == "valid"
    assert doc["terms"] == [big, big**2, big**3]


def run_cold(*argv):
    """`diagflag.cli` with `argv` in a fresh interpreter that imports this
    checkout's package: the finished process and its wall seconds."""
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-m", "diagflag.cli", *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    return done, time.monotonic() - started


@pytest.mark.parametrize(
    "levels, code, stdout, stderr",
    [
        ("2", 1, "", "input error: the report holds an integer beyond 4300 digits\n"),
        ("0", 0, '"terms":[1],"verdict":"valid","violations":[]}', ""),
    ],
)
def test_exhaust_of_many_huge_entries_exits_at_once(tmp_path, levels, code, stdout, stderr):
    """A cold process on a 1.7 MB spec of 400 entries 10^4299 over
    2^inf 5^inf ran past a minute while it formed the cycle product."""
    sn = write(tmp_path, "sn.json", {"factors": {"2": "inf", "5": "inf"}})
    spec = tmp_path / "spec.json"
    spec.write_text('{"s1": 1, "cycle": [' + ",".join(["1" + "0" * 4299] * 400) + "]}")
    done, seconds = run_cold("exhaust", "--sn", sn, "--spec", str(spec), "--levels", levels)
    assert seconds < 5.0
    assert done.returncode == code and stdout in done.stdout and done.stderr == stderr


def test_realization_of_a_long_cycle_finds_no_period_at_once(tmp_path):
    """A cold process on a 3.0 MB spec of 999,999 entries 2 then one 4 over
    2^inf, realizing (1, inf) at 1,000 levels: trying every period against
    a rotated copy of the whole cycle took 11.3 s of its 11.9 s."""
    sn = write(tmp_path, "sn.json", {"factors": {"2": "inf"}})
    gft = write(tmp_path, "gft.json", GFT_LINE_THEN_REST)
    spec = tmp_path / "spec.json"
    spec.write_text('{"s1": 2, "cycle": [' + ", ".join(["2"] * 999_999 + ["4"]) + "]}")
    done, seconds = run_cold("exhaust", "--sn", sn, "--spec", str(spec), "--gft", gft, "--levels", "1000")
    assert seconds < 5.0
    assert done.returncode == 0 and done.stderr == ""
    doc = json.loads(done.stdout)
    assert doc["verdict"] == "valid" and doc["realization"]["sn_graph"]["period"] is None
    assert len(doc["realization"]["level_quotients"]) == 1001


def test_exhaust_names_a_long_foreign_factor_without_forming_it(tmp_path):
    """A cold process on a 2.7 MB spec of 800 distinct entries 7^4000 + 2i
    over 2^inf: their product, prime to the number, would have about 9
    million bits and took 36 s to form.  It is named by a lower bound on
    its bit length, 800 times the 11,229 bits each entry has past its top
    one, plus 1."""
    sn = write(tmp_path, "sn.json", {"factors": {"2": "inf"}})
    spec = write(tmp_path, "spec.json", {"s1": 1, "cycle": [7**4000 + 2 * i for i in range(800)]})
    done, seconds = run_cold("exhaust", "--sn", sn, "--spec", spec, "--levels", "0")
    assert seconds < 2.0
    doc = json.loads(done.stdout)
    assert done.returncode == 0 and doc["verdict"] == "invalid"
    assert doc["violations"][0] == (
        f"membership: cycle introduces a factor of at least {800 * 11229 + 1} bits, prime to the number"
    )


def test_exhaust_rejects_keys_beyond_the_prime_test_bound(capsys, tmp_path):
    sn = write(tmp_path, "sn.json", {"factors": {str(2**89 - 1): "inf"}})
    spec = write(tmp_path, "spec.json", {"s1": 1, "cycle": [2]})
    assert main(["exhaust", "--sn", sn, "--spec", spec]) == 1
    assert capsys.readouterr().err.startswith("input error: primality")


@pytest.mark.parametrize(
    "factors",
    [{"2": 1, "02": "inf"}, {"0_2": "inf"}, {" 2 ": "inf"}, {"\u0662": "inf"}],
    ids=["leading-zero-duplicate", "underscore", "spaces", "arabic-indic-digit"],
)
def test_exhaust_rejects_non_canonical_prime_keys(capsys, tmp_path, factors):
    sn = write(tmp_path, "sn.json", {"factors": factors})
    spec = write(tmp_path, "spec.json", {"s1": 2, "cycle": [2]})
    assert main(["exhaust", "--sn", sn, "--spec", spec]) == 1
    _one_input_error(capsys)


def test_realization_refuses_a_step_ratio_beyond_the_colour_cap(capsys, tmp_path):
    big = 2**61 - 1
    started = time.monotonic()
    code = main([
        "exhaust",
        "--sn", write(tmp_path, "sn.json", {"factors": {str(big): "inf"}}),
        "--spec", write(tmp_path, "spec.json", {"s1": big, "cycle": [big]}),
        "--gft", write(tmp_path, "gft.json", GFT_LINE_THEN_REST),
        "--levels", "2",
    ])
    assert time.monotonic() - started < 1.0
    assert code == 1
    assert capsys.readouterr() == (
        "",
        "input error: 2 levels need 4611686018427387904 edges; realizations are limited to 100000\n",
    )


def test_realization_refuses_more_bounding_edges_than_its_cap_at_once(capsys, tmp_path):
    # 20 levels over 9973^inf would build 20 * 2 straight and
    # 20 * 9972 = 199,440 bounding edges.
    argv = [
        "exhaust",
        "--sn", write(tmp_path, "sn.json", {"factors": {"9973": "inf"}}),
        "--spec", write(tmp_path, "spec.json", {"s1": 9973, "cycle": [9973]}),
        "--gft", write(tmp_path, "gft.json", GFT_LINE_THEN_REST),
    ]
    started = time.monotonic()
    assert main([*argv, "--levels", "20"]) == 1
    assert time.monotonic() - started < 1.0
    assert capsys.readouterr() == (
        "",
        "input error: 20 levels need 199480 edges; realizations are limited to 100000\n",
    )
    assert main([*argv, "--levels", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["realization"]["sn_graph"]["levels"]) == 1


def test_realization_counts_the_straight_edges_of_a_long_presentation(tmp_path):
    """A presentation of 10,000 quotients builds 10,000 straight edges per
    level, so 100 levels over 2^inf, 1,000,100 edges, are refused before
    any level is built, in a cold process."""
    gft = {"finite_quotients": [1] * 9999, "tail": None, "infinite_quotients": True, "ordered": [1] * 9999 + ["inf"]}
    done, seconds = run_cold(
        "exhaust",
        "--sn", write(tmp_path, "sn.json", {"factors": {"2": "inf"}}),
        "--spec", write(tmp_path, "spec.json", {"s1": 16384, "cycle": [2]}),
        "--gft", write(tmp_path, "gft.json", gft),
        "--levels", "100",
    )
    assert seconds < 2.0
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr == "input error: 100 levels need 1000100 edges; realizations are limited to 100000\n"


def test_validate_egraph_rejects_a_huge_graph_at_once(capsys, tmp_path):
    graph = write(tmp_path, "g.json", {"q": 10**8, "p": 1, "d": 1, "edges": [[1, 1, 1]]})
    started = time.monotonic()
    assert main(["validate-egraph", "--graph", graph]) == 1
    assert time.monotonic() - started < 1.0
    assert capsys.readouterr().err.startswith("input error: vertex and colour counts are limited")


def _one_input_error(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("input error:"), captured.err


# Each spelling reads as 2 under `int()`; put in for the last "2" of a
# valid value, it must be an input error, not that value.
NOT_ASCII_TWOS = ["\u0662", "0_2", " 2", "2 ", "+2"]


@pytest.mark.parametrize("two", NOT_ASCII_TWOS)
@pytest.mark.parametrize("option", ["--alpha", "--source-dims", "--d"])
def test_comma_separated_options_take_ascii_integers_only(capsys, mixed_graph_file, option, two):
    argv = {
        "--alpha": ["restrict", "--alpha", "1,2,2,3", "--m", "2"],
        "--source-dims": ["picard", "--graph", mixed_graph_file, "--source-ambient", "3", "--source-dims", "1,2"],
        "--d": ["oracle", "--n-max", "3", "--d", "2"],
    }[option]
    assert main(argv) == 0
    capsys.readouterr()
    at = argv.index(option) + 1
    value = argv[at]
    argv[at] = value[: value.rindex("2")] + two + value[value.rindex("2") + 1 :]
    assert main(argv) == 1
    _one_input_error(capsys)


@pytest.mark.parametrize("two", NOT_ASCII_TWOS)
@pytest.mark.parametrize(
    "option", ["--m", "--n-max", "--source-ambient", "--bound", "--levels", "--seed"]
)
def test_integer_options_take_ascii_integers_only(capsys, tmp_path, option, two):
    small_graph = write(tmp_path, "small.json", {"q": 2, "p": 2, "d": 1, "edges": [[1, 1, 1], [2, 2, 1]]})
    gft = write(tmp_path, "gft.json", {
        "finite_quotients": [],
        "tail": {"kind": "constant", "value": 1},
        "infinite_quotients": True,
        "ordered": None,
    })
    argv = {
        "--m": ["restrict", "--alpha", "1,2,2,3", "--m", "2"],
        "--n-max": ["oracle", "--n-max", "2", "--d", "2"],
        "--source-ambient": ["picard", "--graph", small_graph, "--source-dims", "1", "--source-ambient", "2"],
        "--bound": ["admissible", "--gft", gft, *_sn_spec(tmp_path)[:2], "--bound", "2"],
        "--levels": ["exhaust", *_sn_spec(tmp_path), "--levels", "2"],
        "--seed": ["--seed", "2", "restrict", "--alpha", "1,2,2,3", "--m", "2"],
    }[option]
    assert main(argv) == 0
    capsys.readouterr()
    at = argv.index(option) + 1
    assert argv[at] == "2"
    argv[at] = two
    assert main(argv) == 1
    _one_input_error(capsys)


@pytest.mark.parametrize("two", NOT_ASCII_TWOS)
def test_flag_entries_take_ascii_rationals_only(capsys, tmp_path, two):
    """A flag document's string entries read as `str(Fraction)` writes
    them; the same spellings of 2 are one input error there too."""
    flag = {"ambient": 2, "chain": [[["1/2", "2"]]]}
    argv = ["embed", "--alpha", "1,2,2,3", "--m", "2", "--flag", write(tmp_path, "flag.json", flag)]
    assert main(argv) == 0
    capsys.readouterr()
    flag["chain"][0][0][1] = two
    argv[-1] = write(tmp_path, "flag.json", flag)
    assert main(argv) == 1
    _one_input_error(capsys)


def test_negative_levels_keep_their_message(capsys, tmp_path):
    assert main(["exhaust", *_sn_spec(tmp_path), "--levels", "-1"]) == 1
    assert capsys.readouterr().err == "input error: --levels must be at least 0, got -1\n"


def _sn_spec(tmp_path):
    return [
        "--sn", write(tmp_path, "sn.json", {"factors": {"2": "inf"}}),
        "--spec", write(tmp_path, "spec.json", {"s1": 2, "cycle": [2]}),
    ]


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe{\x00}", b"[" * 100_000, b'{"q": 1' + b"1" * 5000 + b"}"],
    ids=["not-utf8", "nested-past-the-recursion-limit", "integer-past-the-digit-limit"],
)
def test_unreadable_documents_are_input_errors(capsys, tmp_path, content):
    path = tmp_path / "g.json"
    path.write_bytes(content)
    assert main(["validate-egraph", "--graph", str(path)]) == 1
    _one_input_error(capsys)


@pytest.mark.parametrize("command", ["admissible", "exhaust"])
def test_documents_must_be_json_objects(capsys, tmp_path, command):
    gft = write(tmp_path, "gft.json", [GFT_LINE_THEN_REST])
    argv = [command, "--gft", gft] + _sn_spec(tmp_path)
    if command == "admissible":
        argv = argv[:5]
    assert main(argv) == 1
    _one_input_error(capsys)


def test_unwritable_out_is_an_input_error(capsys, tmp_path):
    out = str(tmp_path / "no-such-dir" / "x.json")
    assert main(["--out", out, "restrict", "--alpha", "1,2,2,3", "--m", "2"]) == 1
    _one_input_error(capsys)


@pytest.mark.parametrize("bad", ["no", 1, "true", None])
def test_infinite_quotients_must_be_a_boolean(capsys, tmp_path, bad):
    gft = write(tmp_path, "gft.json", {**GFT_LINE_THEN_REST, "infinite_quotients": bad})
    assert main(["exhaust", "--gft", gft] + _sn_spec(tmp_path)) == 1
    _one_input_error(capsys)
    assert main(["admissible", "--gft", gft] + _sn_spec(tmp_path)[:2]) == 1
    _one_input_error(capsys)


def test_source_ambient_zero_is_not_the_default(capsys, mixed_graph_file):
    for ambient in ("0", "-1"):
        assert main(["constants", "--graph", mixed_graph_file, "--source-ambient", ambient]) == 1
        _one_input_error(capsys)


@pytest.mark.parametrize("entry", ["1e3000000", "1E5", "2.5e-3"])
def test_exponent_notation_is_an_input_error(capsys, tmp_path, entry):
    # Fraction("1e3000000") would build 10**3000000 before any bound applies.
    flag = write(tmp_path, "flag.json", {"ambient": 2, "chain": [[[entry, "1"]]]})
    started = time.monotonic()
    assert main(["embed", "--alpha", "1,2,2,3", "--m", "2", "--flag", flag]) == 1
    assert time.monotonic() - started < 1.0
    _one_input_error(capsys)


def test_a_result_beyond_the_printing_limit_is_an_input_error(capsys, tmp_path):
    """A valid flag whose reduced basis has integers that str() refuses."""
    rng = random.Random(7)
    big = lambda: str(rng.randrange(10**2999, 10**3000))
    member = [[big(), big(), "0"], ["0", big(), big()]]
    flag = write(tmp_path, "flag.json", {"ambient": 3, "chain": [member]})
    started = time.monotonic()
    assert main(["embed", "--alpha", "1,1,2,1,1,2", "--m", "3", "--flag", flag]) == 1
    assert time.monotonic() - started < 1.0
    _one_input_error(capsys)


@pytest.mark.parametrize(
    "flag, message",
    [
        ({"ambient": 0, "chain": []}, "ambient dimension must be positive"),
        ({"ambient": 2, "chain": []}, "flag does not match the source type"),
        ({"ambient": 3, "chain": [[["1", "0", "0"]]]}, "flag does not match the source type"),
        # An ambient or member count that cannot match is named before any
        # member is read.
        ({"ambient": 0, "chain": [[["1"]]]}, "ambient dimension must be positive"),
        ({"ambient": 3, "chain": [[["1", "0"]]]}, "flag does not match the source type"),
        ({"ambient": 2, "chain": [[["1", "0"]], [["x", "1"]]]}, "flag does not match the source type"),
        # Otherwise the members are read first.
        ({"ambient": 2, "chain": [[["x", "1"]]]}, "bad flag document: cannot interpret 'x' as an exact rational"),
        ({"ambient": 2, "chain": [[["1", "0"], ["0", "1"]]]}, "flag members must be proper and nonzero"),
    ],
)
def test_embed_names_a_flag_of_the_wrong_type(capsys, tmp_path, flag, message):
    flag = write(tmp_path, "flag.json", flag)
    assert main(["embed", "--alpha", "1,2,2,3", "--m", "2", "--flag", flag]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"input error: {message}\n"


def test_embed_refuses_a_flag_of_the_wrong_shape_before_reducing_it(tmp_path):
    """One member of 39 rows of 40 random 300-digit entries in Q^40 (474
    KB) cannot have the type FlagType(40, ()) of eighty 1s at block size
    40; a cold process refuses it without the elimination, which takes
    tens of seconds."""
    rng = random.Random(35)
    rows = [[str(rng.randrange(10**299, 10**300)) for _ in range(40)] for _ in range(39)]
    flag = write(tmp_path, "flag.json", {"ambient": 40, "chain": [rows]})
    done, seconds = run_cold("embed", "--alpha", ",".join(["1"] * 80), "--m", "40", "--flag", flag)
    assert seconds < 2.0
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == "input error: flag does not match the source type\n"


def test_block_size_zero_is_named_by_embed_as_by_restrict(capsys, tmp_path):
    flag = write(tmp_path, "flag.json", {"ambient": 2, "chain": [[["1", "1"]]]})
    for argv in (["restrict"], ["embed", "--flag", flag]):
        assert main([*argv, "--alpha", "1,2,2,3", "--m", "0"]) == 1
        assert capsys.readouterr().err == "input error: block size 0 does not divide 4\n"


def test_admissible_refuses_a_search_beyond_its_limit_at_once(capsys, tmp_path):
    """(5,) and tail(60061, 60060) over 2^inf ... 13^inf at bound 10^6
    would walk 2,636,052 exhaustions, about 2 s; none is walked."""
    gft = write(tmp_path, "gft.json", {
        "finite_quotients": [5],
        "tail": {"kind": "geometric", "base": 60061, "ratio": 60060},
        "infinite_quotients": True,
        "ordered": None,
    })
    sn = write(tmp_path, "sn.json", {"factors": {str(p): "inf" for p in (2, 3, 5, 7, 11, 13)}})
    started = time.monotonic()
    assert main(["admissible", "--gft", gft, "--sn", sn, "--bound", "1000000"]) == 1
    assert time.monotonic() - started < 1.0
    _one_input_error(capsys)


@pytest.mark.parametrize("bound", ["10000", "100000"])
def test_admissible_answers_a_ratio_with_a_prime_the_number_lacks_at_once(capsys, tmp_path, bound):
    """tail(1, 5) over 2^inf 3^inf: no cycle obeys the period rule, so the
    search walks nothing at any bound."""
    gft = write(tmp_path, "gft.json", {
        "finite_quotients": [],
        "tail": {"kind": "geometric", "base": 1, "ratio": 5},
        "infinite_quotients": True,
        "ordered": None,
    })
    sn = write(tmp_path, "sn.json", {"factors": {"2": "inf", "3": "inf"}})
    started = time.monotonic()
    code, doc = run_json(capsys, "admissible", "--gft", gft, "--sn", sn, "--bound", bound)
    assert time.monotonic() - started < 1.0
    assert code == 0 and doc["verdict"] == "Unknown" and doc["candidates_searched"] == 0


@pytest.mark.parametrize("levels", ["1001", "400000"])
def test_exhaust_refuses_levels_beyond_the_cap_at_once(capsys, tmp_path, levels):
    assert main(["exhaust", *_sn_spec(tmp_path), "--levels", "1000"]) == 0
    assert len(json.loads(capsys.readouterr().out)["terms"]) == 1001
    started = time.monotonic()
    assert main(["exhaust", *_sn_spec(tmp_path), "--levels", levels]) == 1
    assert time.monotonic() - started < 1.0
    assert capsys.readouterr().err == f"input error: --levels is limited to 1000, got {levels}\n"


def test_restrict_runs_a_long_chain_in_linear_time(capsys):
    """1..10,000 in one block: 10,000 distinct tuples, which a scan over all
    pairs of them would compare 5*10^7 times."""
    n = 10_000
    started = time.monotonic()
    code, doc = run_json(capsys, "restrict", "--alpha", ",".join(map(str, range(1, n + 1))), "--m", str(n))
    assert time.monotonic() - started < 1.0
    assert code == 0 and doc["verdict"] == "Parabolic"
    assert doc["flag_type"] == {"ambient": n, "dims": list(range(1, n))}
    assert len(doc["beta_image"]) == n and doc["graph"]["q"] == n


# q = 2, p = 3, d = 2: the second target member holds a full source block.
SPREAD_GRAPH = {"q": 2, "p": 3, "d": 2, "edges": [[1, 1, 1], [2, 3, 1], [2, 2, 2]]}
# q = p = 2, d = 1: the identity embedding of a line.
LINE_GRAPH = {"q": 2, "p": 2, "d": 1, "edges": [[1, 1, 1], [2, 2, 1]]}
# q = p = d = 1: flags with no members on either side.
POINT_GRAPH = {"q": 1, "p": 1, "d": 1, "edges": [[1, 1, 1]]}


def _refused_at_once(capsys, argv, message):
    started = time.monotonic()
    assert main(argv) == 1
    assert time.monotonic() - started < 1.0
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"input error: {message}\n"


def test_embed_refuses_an_image_beyond_its_entry_limit_at_once(capsys, tmp_path):
    """The image of a unit row in Q^m has target dimensions (1, m + 1) in
    Q^(2m): 2m(m + 2) entries, 18,012,000 at m = 3000."""
    graph = write(tmp_path, "graph.json", SPREAD_GRAPH)

    def argv(m):
        flag = write(tmp_path, f"flag{m}.json", {"ambient": m, "chain": [[[1] + [0] * (m - 1)]]})
        return ["embed", "--graph", graph, "--source-dims", "1", "--source-ambient", str(m), "--flag", flag]

    _refused_at_once(
        capsys,
        argv(3000),
        "embed is limited to images of 1000000 entries; got 18012000",
    )
    assert main(argv(700)) == 0  # 983,200 entries
    doc = json.loads(capsys.readouterr().out)
    assert [len(member) for member in doc["image"]["chain"]] == [1, 701]


@pytest.mark.parametrize(
    "rows, ambient, digits",
    [(39, 40, 300), (5_001, 2, 1)],
    ids=["long_entries", "many_short_rows"],
)
def test_embed_refuses_a_flag_beyond_its_character_limit_before_reducing_it(tmp_path, rows, ambient, digits):
    """A flag of the source type's shape, one member of `rows` random rows
    in Q^ambient through the identity of a line: 39 rows of 40 300-digit
    entries (474 KB) took 40.8 s to reduce in-process, and 5,001 rows of
    two one-digit entries hold 10,002 characters.  A cold process refuses
    each with one input error."""
    rng = random.Random(38)
    entries = [[str(rng.randrange(10 ** (digits - 1), 10**digits)) for _ in range(ambient)] for _ in range(rows)]
    flag = write(tmp_path, "flag.json", {"ambient": ambient, "chain": [entries]})
    graph = write(tmp_path, "graph.json", LINE_GRAPH)
    done, seconds = run_cold(
        "embed", "--graph", graph, "--source-dims", str(ambient - 1), "--source-ambient", str(ambient), "--flag", flag
    )
    assert seconds < 2.0
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == (
        f"input error: flag documents are limited to 10000 characters of entries; got {rows * ambient * digits}\n"
    )


def test_embed_refuses_digit_string_rows_before_reducing_them(tmp_path):
    """199 rows of 200 one-digit entries, each row written as one string:
    39,800 characters, four times the limit, none of them in a row array.
    Read as lists of digits, such rows were counted as nothing and then
    reduced, for seconds; a cold process refuses the document at once."""
    rng = random.Random(39)
    rows = ["".join(str(rng.randrange(10)) for _ in range(200)) for _ in range(199)]
    flag = write(tmp_path, "flag.json", {"ambient": 200, "chain": [rows]})
    graph = write(tmp_path, "graph.json", LINE_GRAPH)
    done, seconds = run_cold(
        "embed", "--graph", graph, "--source-dims", "199", "--source-ambient", "200", "--flag", flag
    )
    assert seconds < 1.0
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == "input error: bad flag document: a row must be an array, not str\n"


def test_embed_reads_a_flag_at_its_character_limit(capsys, tmp_path):
    """5,000 rows [1, 0] span a line in Q^2: 10,000 characters, accepted;
    one row more is refused at once."""
    graph = write(tmp_path, "graph.json", LINE_GRAPH)

    def argv(rows):
        flag = write(tmp_path, f"flag{rows}.json", {"ambient": 2, "chain": [[[1, 0]] * rows]})
        return ["embed", "--graph", graph, "--source-dims", "1", "--source-ambient", "2", "--flag", flag]

    assert main(argv(5_000)) == 0
    assert json.loads(capsys.readouterr().out)["image"] == {"ambient": 2, "chain": [[["1", "0"]]]}
    _refused_at_once(capsys, argv(5_001), "flag documents are limited to 10000 characters of entries; got 10002")


def test_constants_refuses_an_image_beyond_its_entry_limit_at_once(capsys, tmp_path):
    """`constants` shares `embed`'s entry limit.  Through the spreading
    graph, the type of one line in Q^m has target dimensions (1, m + 1) in
    Q^(2m), 2m(m + 2) entries: 999,696 at m = 706 and 1,002,526 at 707.
    Its second constant space is a full block."""
    spread = write(tmp_path, "spread.json", SPREAD_GRAPH)
    _refused_at_once(
        capsys,
        ["constants", "--graph", spread, "--source-ambient", "707"],
        "constants is limited to images of 1000000 entries; got 1002526",
    )
    code, doc = run_json(capsys, "constants", "--graph", spread, "--source-ambient", "706")
    assert code == 0 and doc["dims"] == [0, 706] and doc["support"] == [1, 2]
    assert len(doc["constants"][1]) == 706


@pytest.mark.parametrize(
    "graph, ambient, dims",
    [(LINE_GRAPH, "6000", [0]), (LINE_GRAPH, "1000000", [0]), (POINT_GRAPH, str(10**18), [])],
    ids=["line-6000", "line-1000000", "point-10**18"],
)
def test_constants_builds_no_block_its_image_lacks(capsys, tmp_path, graph, ambient, dims):
    """No constant space of the line (target dimension 1) or of a point
    target (none) holds a full block, so none is built, however large the
    ambient."""
    started = time.monotonic()
    code, doc = run_json(capsys, "constants", "--graph", write(tmp_path, "g.json", graph), "--source-ambient", ambient)
    assert time.monotonic() - started < 1.0
    assert code == 0 and doc["dims"] == dims and doc["support"] == [1] * len(dims)


def test_classify_refuses_a_large_target_before_building_a_flag(capsys, tmp_path):
    graph = write(tmp_path, "graph.json", LINE_GRAPH)
    _refused_at_once(
        capsys,
        ["classify", "--graph", graph, "--source-ambient", "3000", "--source-dims", "2999"],
        "classification is limited to target dimension 6; got 3000",
    )
    spread = write(tmp_path, "spread.json", SPREAD_GRAPH)
    _refused_at_once(
        capsys,
        ["classify", "--graph", spread, "--source-ambient", "4", "--source-dims", "1"],
        "classification is limited to target dimension 6; got 8",
    )
    # picard needs only the graph and stays uncapped.
    code, doc = run_json(capsys, "picard", "--graph", graph, "--source-ambient", "3000", "--source-dims", "2999")
    assert code == 0 and doc["matrix"] == [[1]]


def test_factor_refuses_factors_beyond_the_pullback_limit_at_once(capsys, tmp_path):
    """The linear graph q = 2, p = d = N with edges (2, c, c) and (1, 1, 2):
    its d factors hold up to d*(p-1)*max(d, q-1) pullback entries."""

    def linear(n):
        edges = [[2, c, c] for c in range(1, n + 1)] + [[1, 1, 2]]
        return write(tmp_path, f"linear{n}.json", {"q": 2, "p": n, "d": n, "edges": edges})

    _refused_at_once(
        capsys,
        ["factor", "--graph", linear(400)],
        "factors are limited to 1000000 pullback entries; d*(p-1)*max(d, q-1) = 63840000",
    )
    code, doc = run_json(capsys, "factor", "--graph", linear(100))  # 990,000 entries
    assert code == 0 and len(doc["factors"]) == 100


def test_exhaust_stops_at_the_first_term_beyond_the_printing_limit(capsys, tmp_path):
    # The sixth term, 10^5000, is past the limit; the 1000th would hold 10^6 digits.
    sn = write(tmp_path, "sn.json", {"factors": {"2": "inf", "5": "inf"}})
    spec = write(tmp_path, "spec.json", {"s1": 1, "cycle": [10**1000]})
    started = time.monotonic()
    assert main(["exhaust", "--sn", sn, "--spec", spec, "--levels", "1000"]) == 1
    assert time.monotonic() - started < 1.0
    limit = sys.get_int_max_str_digits()
    assert capsys.readouterr() == ("", f"input error: the report holds an integer beyond {limit} digits\n")


def _star(n):
    """The valid star graph q = 1, p = d = n with edges (1, c, c)."""
    return {"q": 1, "p": n, "d": n, "edges": [[1, c, c] for c in range(1, n + 1)]}


def test_closed_indices_beyond_the_bound_exit_at_once(capsys, tmp_path):
    # (p - 1) * d = 1000 * 1001 is just over 10^6
    graph = write(tmp_path, "g.json", _star(1001))
    started = time.monotonic()
    assert main(["picard", "--graph", graph]) == 1
    assert time.monotonic() - started < 1.0
    assert "closed indices and pullbacks are limited" in capsys.readouterr().err


def test_largest_accepted_star_answers_picard(capsys, tmp_path):
    graph = write(tmp_path, "g.json", _star(1000))
    started = time.monotonic()
    code, doc = run_json(capsys, "picard", "--graph", graph)
    assert time.monotonic() - started < 2.0
    assert code == 0 and doc["matrix"] == [[]] * 999


def test_picard_of_the_most_colours_answers_at_once(tmp_path):
    """A cold process on a 139 KB graph, q = p = 2 with 10,000 colours and
    edges (1, 1, 1) and (2, 2, c) for every c: finding each colour's edges
    by a scan of every edge took about 5 s."""
    d = GRAPH_SIZE_LIMIT
    graph = write(tmp_path, "g.json", {"q": 2, "p": 2, "d": d, "edges": [[1, 1, 1]] + [[2, 2, c] for c in range(1, d + 1)]})
    done, seconds = run_cold("picard", "--graph", graph)
    assert seconds < 2.0
    assert done.returncode == 0 and done.stderr == ""
    doc = json.loads(done.stdout)
    assert (doc["linear"], doc["standard_extension"], doc["matrix"]) == (True, True, [[1]])


# -- fuzzing the document boundary --------------------------------------------

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.sampled_from(["", "1", "-1/2", "1/0", "inf", "x", "1e3000000", "-2E5", "1.5e-7"]),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(
            st.sampled_from(["q", "p", "d", "edges", "x", "factors", "2", "02", "0_2", " 2 ", "\u0662"]),
            inner,
            max_size=3,
        ),
    ),
    max_leaves=12,
)

REFERENCE_DOCS = {
    "graph": MIXED_GRAPH_OBJ,
    "embedding": {"alpha": [1, 2, 2, 3], "m": 2},
    "flag": {"ambient": 2, "chain": [[["1", "1"]]]},
    "gft": GFT_LINE_THEN_REST,
    "sn": {"factors": {"2": "inf"}},
    "spec": {"s1": 2, "cycle": [2]},
}

# Every document-reading subcommand with its document options.
DOCUMENT_COMMANDS = {
    "validate-egraph": ["graph"],
    "dot": ["graph"],
    "factor": ["graph"],
    "picard": ["graph"],
    "constants": ["graph"],
    "classify": ["embedding"],
    "embed": ["embedding", "flag"],
    "admissible": ["gft", "sn"],
    "exhaust": ["sn", "spec", "gft"],
}


# The command that reads each document, with the reference documents of
# its other options.
READING_COMMAND = {
    "graph": "validate-egraph",
    "embedding": "classify",
    "flag": "embed",
    "gft": "admissible",
    "sn": "admissible",
    "spec": "exhaust",
}

# Each reference document with array fields, as (option, document, the
# paths of its array fields); `dims` sits in an embedding given by its
# graph and source type.
ARRAY_DOCUMENTS = {
    "graph": ("graph", MIXED_GRAPH_OBJ, [("edges",), ("edges", 0)]),
    "alpha_embedding": ("embedding", REFERENCE_DOCS["embedding"], [("alpha",)]),
    "graph_embedding": (
        "embedding",
        {"graph": LINE_GRAPH, "source_type": {"ambient": 2, "dims": [1]}},
        [("source_type", "dims"), ("graph", "edges")],
    ),
    "flag": ("flag", REFERENCE_DOCS["flag"], [("chain",), ("chain", 0), ("chain", 0, 0)]),
    "gft": ("gft", GFT_LINE_THEN_REST, [("finite_quotients",), ("ordered",)]),
    "spec": ("spec", REFERENCE_DOCS["spec"], [("cycle",)]),
}


def _run_reading(tmp_path, option, doc):
    """`main` on the command that reads `option`, given `doc` there and the
    reference documents elsewhere: (exit code, stdout, stderr)."""
    command = READING_COMMAND[option]
    argv = [command]
    for name in DOCUMENT_COMMANDS[command]:
        argv += [f"--{name}", write(tmp_path, f"{name}.json", doc if name == option else REFERENCE_DOCS[name])]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("label", sorted(ARRAY_DOCUMENTS))
def test_the_documents_with_array_fields_are_read(tmp_path, label):
    option, doc, _ = ARRAY_DOCUMENTS[label]
    code, out, err = _run_reading(tmp_path, option, doc)
    assert (code, err) == (0, "") and json.loads(out)["command"] == READING_COMMAND[option]


@NOT_ARRAYS
@pytest.mark.parametrize(
    "label, path",
    [(label, path) for label, (_, _, paths) in ARRAY_DOCUMENTS.items() for path in paths],
    ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else v,
)
def test_a_string_or_an_object_for_an_array_is_one_input_error(tmp_path, label, path, value):
    option, doc, _ = ARRAY_DOCUMENTS[label]
    code, out, err = _run_reading(tmp_path, option, replaced_at(doc, path, value))
    lines = err.splitlines()
    assert (code, out) == (1, "")
    assert len(lines) == 1 and lines[0].startswith("input error: bad "), err
    assert lines[0].endswith(f" must be an array, not {type(value).__name__}"), err


def test_reading_turns_each_fault_of_a_document_into_one_domain_error():
    for fault in (KeyError("q"), TypeError("t"), ValueError("v"), AttributeError("a"), DomainError("d")):
        with pytest.raises(DomainError) as caught:
            with reading("graph"):
                raise fault
        assert type(caught.value) is DomainError and caught.value.__cause__ is fault
        assert str(caught.value) == f"bad graph document: {fault}"


def test_reading_passes_a_scale_error_and_any_other_fault_unchanged():
    for fault in (ScaleError("past a limit"), InternalCheckError("i"), RecursionError("r")):
        with pytest.raises(type(fault)) as caught:
            with reading("graph"):
                raise fault
        assert caught.value is fault


def test_strict_list_takes_a_json_array_only():
    rows = [[1, 2]]
    assert strict_list(rows, "rows") is rows
    for value in ("", "12", {}, (1, 2), None, 3):
        name = type(value).__name__
        with pytest.raises(DomainError, match=f"^rows must be an array, not {name}$"):
            strict_list(value, "rows")


def test_an_embedding_document_past_the_graph_size_limit_names_the_limit(capsys, tmp_path):
    """An alpha of 10,001 values at m = 1 builds a graph past
    GRAPH_SIZE_LIMIT: the embedding reader lets the ScaleError through as
    it is, as every reader does, so the refusal names the limit."""
    doc = {"alpha": list(range(1, GRAPH_SIZE_LIMIT + 2)), "m": 1}
    message = f"vertex and colour counts are limited to {GRAPH_SIZE_LIMIT}; got q=1, p=10001, d=10001"
    with pytest.raises(ScaleError) as caught:
        diagembed.DiagonalEmbedding.from_json_obj(doc)
    assert type(caught.value) is ScaleError and str(caught.value) == message
    _refused_at_once(capsys, ["classify", "--embedding", write(tmp_path, "emb.json", doc)], message)


@st.composite
def malformed_documents(draw, kinds):
    """One of the documents `kinds`: a reference document with one field
    replaced, dropped or added, or with an array field replaced; any JSON
    value at all; or bytes that are not JSON.  Also whether an array field
    was replaced by something that is not an array, which must be refused
    (`ordered` may be null, which leaves it out)."""
    kind = draw(st.sampled_from(kinds))
    shape = draw(st.sampled_from(("mutate", "array", "value", "bytes")))
    if shape == "bytes":
        return kind, draw(st.binary(max_size=24)), False
    if shape == "value":
        return kind, json.dumps(draw(json_values)).encode(), False
    doc = dict(REFERENCE_DOCS[kind])
    arrays = sorted(k for k, v in doc.items() if isinstance(v, list))
    key = draw(st.sampled_from(arrays if shape == "array" and arrays else sorted(doc) + ["extra"]))
    if shape == "mutate" and draw(st.booleans()):
        doc.pop(key, None)
        return kind, json.dumps(doc).encode(), False
    value = doc[key] = draw(json_values)
    not_an_array = isinstance(REFERENCE_DOCS[kind].get(key), list) and not isinstance(value, list)
    return kind, json.dumps(doc).encode(), not_an_array and not (key == "ordered" and value is None)


non_canonical_keys = st.one_of(
    st.sampled_from(["02", "0_2", " 2 ", "\u0662", "+2", "2.0", "0", ""]),
    st.text(max_size=4).filter(lambda t: not (t[:1] in "123456789" and t.isascii() and t.isdigit())),
)


@given(
    st.sampled_from(["admissible", "exhaust"]),
    st.dictionaries(non_canonical_keys, st.sampled_from(["inf", 1, 2]), min_size=1, max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_fuzzed_prime_keys_are_one_input_error(tmp_path_factory, command, bad):
    folder = tmp_path_factory.mktemp("keys")
    argv = [command]
    for option in DOCUMENT_COMMANDS[command]:
        doc = {"factors": {"2": "inf", **bad}} if option == "sn" else REFERENCE_DOCS[option]
        path = folder / f"{option}.json"
        path.write_text(json.dumps(doc))
        argv += [f"--{option}", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    assert code == 1 and out.getvalue() == ""
    assert len(lines) == 1 and lines[0].startswith("input error:"), err.getvalue()


@given(
    st.sampled_from(sorted(DOCUMENT_COMMANDS)).flatmap(
        lambda command: st.tuples(st.just(command), malformed_documents(DOCUMENT_COMMANDS[command]))
    )
)
@settings(max_examples=200, deadline=None)
def test_fuzzed_documents_never_escape_main(tmp_path_factory, case):
    """Every malformed document a command reads exits 0, 1 or 2 within
    5 s, and exits 1 when an array field holds anything but an array."""
    command, (kind, content, must_refuse) = case
    folder = tmp_path_factory.mktemp("fuzz")
    argv = [command]
    for option in DOCUMENT_COMMANDS[command]:
        path = folder / f"{option}.json"
        if option == kind:
            path.write_bytes(content)
        else:
            path.write_text(json.dumps(REFERENCE_DOCS[option]))
        argv += [f"--{option}", str(path)]
    started = time.monotonic()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in ((1,) if must_refuse else (0, 1, 2))
    assert time.monotonic() - started < 5.0
