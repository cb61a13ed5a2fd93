import contextlib
import io
import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from conftest import reversed_flag
from hypothesis import given, settings
from hypothesis import strategies as st

import diagflag
from diagflag import diagembed, flagcore, indlimit
from diagflag.cli import main, selftest_digest
from diagflag.errors import ValidationReport

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
    assert doc["schema_version"] == "1"
    assert doc["selftest_digest"] == selftest_digest()


def test_restrict_not_parabolic_exits_zero(capsys):
    code, doc = run_json(capsys, "restrict", "--alpha", "1,2,2,1", "--m", "2")
    assert code == 0
    assert doc["verdict"] == "NotParabolic"
    assert doc["witness"] == [[1, 2], [2, 1]]


def test_cold_import_loads_neither_dataclasses_nor_inspect():
    """Every CLI process pays for what `import diagflag.cli` loads; the
    value classes generate no code, so neither module is needed."""
    src = str(Path(diagflag.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import diagflag.cli; "
        "print([m for m in ('dataclasses', 'inspect') if m in sys.modules])"
    )
    done = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


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


def test_constants_rejects_empty_window(capsys, mixed_graph_file):
    argv = ["constants", "--graph", mixed_graph_file, "--source-ambient", "3"]
    assert main(argv + ["--window", "0"]) == 1
    assert "input error:" in capsys.readouterr().err


def test_constants_rejects_a_window_beyond_the_limit(capsys, mixed_graph_file):
    # A window the sample budget cannot fill is an input error, not a
    # failure to stabilize.
    argv = ["constants", "--graph", mixed_graph_file, "--source-ambient", "3"]
    assert main(argv + ["--window", "600"]) == 1
    _one_input_error(capsys)
    assert main(argv + ["--window", str(flagcore.WINDOW_LIMIT + 1)]) == 1
    _one_input_error(capsys)


def test_constants_accepts_the_window_limit(capsys, mixed_graph_file):
    code, doc = run_json(
        capsys,
        "constants", "--graph", mixed_graph_file, "--source-ambient", "3",
        "--window", str(flagcore.WINDOW_LIMIT),
    )
    assert code == 0
    assert doc["dims"] == [0, 0, 3]


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


def _negated(fn):
    return lambda *args: not fn(*args)


# One argv builder per internal check of the CLI, with the attribute the
# check compares against and a wrong stand-in built from the original.
INTERNAL_CHECKS = {
    "classify": (
        lambda t: ["classify", "--alpha", "1,2,2,3", "--m", "2"],
        diagembed, "is_standard_extension_graph", _negated,
    ),
    "constants": (
        lambda t: ["constants", "--graph", write(t, "g.json", MIXED_GRAPH_OBJ), "--source-ambient", "3"],
        diagembed, "constant_spaces", lambda fn: lambda emb: fn(emb)[::-1],
    ),
    "factor": (
        lambda t: ["factor", "--graph", write(t, "g.json", LINEAR_GRAPH)],
        indlimit, "factor_pullback_additivity", _negated,
    ),
    "exhaust --gft": (
        lambda t: ["exhaust", *_sn_spec(t), "--gft", write(t, "gft.json", GFT_LINE_THEN_REST)],
        indlimit, "validate_sn_graph", lambda fn: lambda *args, **kw: ValidationReport(("wrong",)),
    ),
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
    assert doc["proof"]["witness_divisor"] == 2


def test_admissible_constant_tail_beyond_twice_its_value(capsys, tmp_path):
    # 3^inf has no divisor in (28, 64]; the least above 28 is 81.
    gft = {"finite_quotients": [], "tail": {"kind": "constant", "value": 28},
           "infinite_quotients": True, "ordered": None}
    sn = write(tmp_path, "sn.json", {"factors": {"3": "inf"}})
    argv = ["admissible", "--gft", write(tmp_path, "gft.json", gft), "--sn", sn]
    code, doc = run_json(capsys, *argv)
    assert code == 0
    assert doc["verdict"] == "NotAdmissible"
    assert doc["proof"]["witness_divisor"] == 81


def test_admissible_constant_tail_of_three_hundred_digits_at_once(capsys, tmp_path):
    gft = {"finite_quotients": [], "tail": {"kind": "constant", "value": 10**300},
           "infinite_quotients": True, "ordered": None}
    sn = write(tmp_path, "sn.json", {"factors": {"2": "inf", "3": "inf"}})
    started = time.monotonic()
    code, doc = run_json(capsys, "admissible", "--gft", write(tmp_path, "gft.json", gft), "--sn", sn)
    assert time.monotonic() - started < 1.0
    assert code == 0
    assert 10**300 < doc["proof"]["witness_divisor"] <= 2 * 10**300


def test_admissible_refuses_a_constant_tail_with_too_many_divisors_below_it(capsys, tmp_path):
    """Over 2^inf 3^inf 5^inf 7^inf the witness search lists the 3-, 5-
    and 7-smooth numbers up to 2c: 136,281 at c = 10^60, about 10^7 at
    c = 10^300, beyond `DIVISOR_LIMIT`."""
    sn = write(tmp_path, "sn.json", {"factors": {"2": "inf", "3": "inf", "5": "inf", "7": "inf"}})
    gft = {"finite_quotients": [], "tail": {"kind": "constant", "value": 10**60},
           "infinite_quotients": True, "ordered": None}
    code, doc = run_json(capsys, "admissible", "--gft", write(tmp_path, "gft.json", gft), "--sn", sn)
    assert code == 0 and doc["verdict"] == "NotAdmissible"
    assert doc["proof"]["witness_divisor"] == 1000006182732750065940640756249558180248787905851869701468750
    gft["tail"]["value"] = 10**300
    started = time.monotonic()
    assert main(["admissible", "--gft", write(tmp_path, "gft.json", gft), "--sn", sn]) == 1
    assert time.monotonic() - started < 1.0
    _one_input_error(capsys)


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
    assert "exceeds the graph colour limit" in capsys.readouterr().err


def test_realization_refuses_more_bounding_edges_than_its_cap_at_once(capsys, tmp_path):
    # 20 levels over 9973^inf would build 20 * 9972 = 199,440 bounding edges.
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
        "input error: 20 levels need 199440 bounding edges; realizations are limited to 100000\n",
    )
    assert main([*argv, "--levels", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["realization"]["sn_graph"]["levels"]) == 1


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
    "option", ["--m", "--n-max", "--source-ambient", "--window", "--bound", "--levels", "--seed"]
)
def test_integer_options_take_ascii_integers_only(capsys, tmp_path, mixed_graph_file, option, two):
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
        "--window": ["constants", "--graph", mixed_graph_file, "--source-ambient", "3", "--window", "2"],
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
    ],
)
def test_embed_names_a_flag_of_the_wrong_type(capsys, tmp_path, flag, message):
    flag = write(tmp_path, "flag.json", flag)
    assert main(["embed", "--alpha", "1,2,2,3", "--m", "2", "--flag", flag]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"input error: {message}\n"


def test_block_size_zero_is_named_by_embed_as_by_restrict(capsys, tmp_path):
    flag = write(tmp_path, "flag.json", {"ambient": 2, "chain": [[["1", "1"]]]})
    for argv in (["restrict"], ["embed", "--flag", flag]):
        assert main([*argv, "--alpha", "1,2,2,3", "--m", "0"]) == 1
        assert capsys.readouterr().err == "input error: block size 0 does not divide 4\n"


def test_admissible_refuses_a_search_beyond_its_limit_at_once(capsys, tmp_path):
    gft = write(tmp_path, "gft.json", {
        "finite_quotients": [],
        "tail": {"kind": "geometric", "base": 1, "ratio": 5},
        "infinite_quotients": True,
        "ordered": None,
    })
    sn = write(tmp_path, "sn.json", {"factors": {"2": "inf", "3": "inf"}})
    started = time.monotonic()
    assert main(["admissible", "--gft", gft, "--sn", sn, "--bound", "100000"]) == 1
    assert time.monotonic() - started < 1.0
    _one_input_error(capsys)


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


def test_constants_refuses_a_target_beyond_its_sampling_limit_at_once(capsys, tmp_path):
    graph = write(tmp_path, "graph.json", LINE_GRAPH)
    for m in ("17", "200", "3000"):
        _refused_at_once(
            capsys,
            ["constants", "--graph", graph, "--source-ambient", m],
            f"constant-space sampling is limited to target dimension 16; got {m}",
        )
    code, doc = run_json(capsys, "constants", "--graph", graph, "--source-ambient", "16")
    assert code == 0 and doc["dims"] == [0]


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


@st.composite
def malformed_documents(draw):
    """A reference document with one field replaced, dropped or added, any
    JSON value at all, or bytes that are not JSON."""
    kind = draw(st.sampled_from(sorted(REFERENCE_DOCS)))
    shape = draw(st.sampled_from(("mutate", "value", "bytes")))
    if shape == "bytes":
        return kind, draw(st.binary(max_size=24))
    if shape == "value":
        return kind, json.dumps(draw(json_values)).encode()
    doc = dict(REFERENCE_DOCS[kind])
    key = draw(st.sampled_from(sorted(doc) + ["extra"]))
    if draw(st.booleans()):
        doc.pop(key, None)
    else:
        doc[key] = draw(json_values)
    return kind, json.dumps(doc).encode()


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


@given(st.sampled_from(sorted(DOCUMENT_COMMANDS)), malformed_documents())
@settings(max_examples=200, deadline=None)
def test_fuzzed_documents_never_escape_main(tmp_path_factory, command, fuzzed):
    kind, content = fuzzed
    folder = tmp_path_factory.mktemp("fuzz")
    argv = [command]
    for option in DOCUMENT_COMMANDS[command]:
        path = folder / f"{option}.json"
        if option == kind:
            path.write_bytes(content)
        else:
            path.write_text(json.dumps(REFERENCE_DOCS[option]))
        argv += [f"--{option}", str(path)]
    if command == "constants":
        argv += ["--window", "3"]
    started = time.monotonic()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2)
    assert time.monotonic() - started < 5.0
