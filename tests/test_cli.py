import json
import time

import pytest

from diagflag import diagembed
from diagflag.cli import main, selftest_digest

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


def test_embed_exits_2_when_the_reference_disagrees(capsys, tmp_path, monkeypatch):
    flag = tmp_path / "flag.json"
    flag.write_text(json.dumps({"ambient": 2, "chain": [[["1", "1"]]]}))
    argv = ["embed", "--alpha", "1,2,2,3", "--m", "2", "--flag", str(flag)]
    reference = diagembed.cumulative_evaluate
    monkeypatch.setattr(
        diagembed, "cumulative_evaluate", lambda emb, f: reference(emb, f).apply(
            ((0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1))
        )
    )
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal check failed" in captured.err


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


def test_constants_rejects_empty_window(capsys, mixed_graph_file):
    argv = ["constants", "--graph", mixed_graph_file, "--source-ambient", "3"]
    assert main(argv + ["--window", "0"]) == 1
    assert "input error:" in capsys.readouterr().err


def test_factor(capsys, tmp_path):
    graph = tmp_path / "level.json"
    graph.write_text(
        json.dumps(
            {"q": 3, "p": 3, "d": 2, "edges": [[1, 1, 1], [3, 2, 1], [2, 2, 2], [3, 3, 2]]}
        )
    )
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
