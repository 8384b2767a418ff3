import json
import os
import subprocess
import sys

import pytest

import ppm
from ppm import matio, modmat
from ppm.cli import EXIT_INCONCLUSIVE, EXIT_INPUT, EXIT_OK, main
from ppm.qpcore import PContext


@pytest.fixture
def matrix_file(tmp_path):
    path = tmp_path / "mat.json"
    path.write_text(json.dumps(
        {"p": 3, "n": 2, "entries": [["1/3", "0"], ["0", "1"]]}))
    return str(path)


@pytest.fixture
def gens_file(tmp_path):
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(
        {"p": 3, "n": 2, "gens": [[["1", "1"], ["0", "1"]],
                                  [["1", "1/3"], ["0", "1"]]]}))
    return str(path)


@pytest.fixture
def integral_gens_file(tmp_path):
    path = tmp_path / "igens.json"
    path.write_text(json.dumps(
        {"p": 3, "n": 2, "gens": [[["1", "1"], ["0", "1"]],
                                  [["0", "-1"], ["1", "0"]]]}))
    return str(path)


def test_scale_command(matrix_file, capsys):
    assert main(["scale", matrix_file]) == EXIT_OK
    assert "3^1" in capsys.readouterr().out


def test_scale_json(matrix_file, capsys):
    assert main(["--json", "scale", matrix_file]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"p": 3, "scale_exponent": 1, "scale": "3^1"}


def test_tidy_command(matrix_file, capsys):
    assert main(["tidy", matrix_file, "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["scale_exponent"] == 1
    assert payload["method_agreement"] is True
    assert payload["minimizing_lattice"]["lattice"] is True


def test_typer_and_flag_commands(gens_file, capsys):
    assert main(["typer", gens_file]) == EXIT_OK
    assert "type R" in capsys.readouterr().out
    assert main(["flag", gens_file, "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["dims"] == [0, 1, 2]


def test_flag_of_the_eight_cycle_is_certified(eight_cycle, tmp_path, capsys):
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(
        {"p": 3, "n": 8, "gens": [matio.matrix_doc(eight_cycle, PContext(3))["entries"]]}))
    assert main(["flag", str(path), "--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["dims"] == [0, 1, 8]


def test_flag_of_a_steep_symmetric_group_is_certified(steep_symmetric, tmp_path, capsys):
    path = tmp_path / "s8.json"
    path.write_text(json.dumps({"p": 3, "n": 8, "gens": [
        matio.matrix_doc(g, PContext(3))["entries"] for g in steep_symmetric(8, 20)]}))
    assert main(["flag", str(path), "--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["dims"] == [0, 1, 8]


def test_order_command(capsys):
    assert main(["order", "GLn_Zp", "-n", "2", "-p", "3"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "2^4 · 3^inf"
    assert main(["order", "UnitsZp", "-p", "2", "--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["order"] == "2^inf"


def test_root_commands(tmp_path, capsys):
    uni = tmp_path / "uni.json"
    uni.write_text(json.dumps({"p": 3, "n": 2, "entries": [["1", "1"], ["0", "1"]]}))
    assert main(["root", "--kind", "unipotent", "-k", "2", str(uni)]) == EXIT_OK
    assert "1/2" in capsys.readouterr().out

    cong = tmp_path / "cong.json"
    cong.write_text(json.dumps({"p": 5, "n": 1, "entries": [["6"]]}))
    assert main(["root", "--kind", "congruence", "-k", "3", "--level", "2",
                 str(cong)]) == EXIT_OK
    assert "11" in capsys.readouterr().out

    fin = tmp_path / "fin.json"
    fin.write_text(json.dumps({"p": 3, "n": 1, "entries": [["2"]]}))
    assert main(["root", "--kind", "finite", "-k", "2", "--level", "2",
                 str(fin)]) == EXIT_OK
    assert "no root" in capsys.readouterr().out

    axb = tmp_path / "axb.json"
    axb.write_text(json.dumps({"p": 5, "a": "6", "b": "1"}))
    assert main(["root", "--kind", "axb", "-k", "3", "--level", "2",
                 str(axb), "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["root"] == {"a": 11, "b": 22, "level": 2}


def test_oracle_command(integral_gens_file, capsys):
    assert main(["oracle", integral_gens_file, "--level", "1", "-k", "5"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["f1_agree"] is True
    assert payload["order"] == 24  # SL(2, F_3)


def test_oracle_command_computes_the_power_image_once(integral_gens_file, capsys,
                                                      monkeypatch):
    from ppm import oracle
    real = oracle.power_surjective
    calls = []

    def counted(table, k):
        calls.append(k)
        return real(table, k)

    monkeypatch.setattr("ppm.oracle.power_surjective", counted)
    monkeypatch.setattr("ppm.cli.power_surjective", counted, raising=False)
    assert main(["oracle", integral_gens_file, "--level", "1", "-k", "5"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"order": 24, "image_size": 24, "surjective": True, "f1_agree": True}
    assert calls == [5]


def test_analyze_catalog(capsys):
    assert main(["analyze", "AdditiveZp", "-p", "3", "-k", "3"]) == EXIT_OK
    assert "NotDense" in capsys.readouterr().out
    assert main(["analyze", "GL_Zp(2)", "-p", "3", "-k", "5", "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["conclusion"] == "SurjectiveAndDense"
    assert "coprimality" in payload["citations"]


def test_analyze_subgroup(capsys):
    assert main(["analyze", "AdditiveQp(1)", "-p", "3", "-k", "3",
                 "--sub", "AdditiveZp", "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["parent"]["conclusion"] == "SurjectiveAndDense"
    assert payload["subgroup"]["conclusion"] == "NotDense"
    assert "non-algebraic" in payload["note"]


def test_analyze_finitely_generated_is_inconclusive(gens_file, capsys):
    assert main(["analyze", gens_file, "-k", "4"]) == EXIT_INCONCLUSIVE
    assert "Inconclusive" in capsys.readouterr().out


def test_input_errors(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["scale", missing]) == EXIT_INPUT
    bad = tmp_path / "bad.json"
    bad.write_text("{\"p\": 4, \"n\": 1, \"entries\": [[\"1\"]]}")
    assert main(["scale", str(bad)]) == EXIT_INPUT
    mism = tmp_path / "mism.json"
    mism.write_text(json.dumps({"p": 3, "n": 1, "entries": [["1"]]}))
    assert main(["scale", str(mism), "-p", "5"]) == EXIT_INPUT
    capsys.readouterr()


def test_usage_errors_are_input_errors(matrix_file, capsys):
    # argparse exits 2 on a usage error, which is ppm's inconclusive code
    assert main(["scale"]) == EXIT_INPUT
    assert main(["scale", matrix_file, "--bogus"]) == EXIT_INPUT
    assert main(["analyze", "GL_Zp(2)", "-k", "x"]) == EXIT_INPUT
    assert main(["root", "--kind", "finite", matrix_file]) == EXIT_INPUT  # no -k
    assert capsys.readouterr().err.count("usage: ppm") == 4
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == EXIT_OK
    assert "usage: ppm" in capsys.readouterr().out


def test_negative_caps_are_input_errors(matrix_file, gens_file, capsys):
    assert main(["typer", gens_file, "--word-len", "-1"]) == EXIT_INPUT
    assert main(["flag", gens_file, "--word-len", "-2"]) == EXIT_INPUT
    assert main(["tidy", matrix_file, "--cap", "-1"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "word_len must be non-negative" in err and "cap must be non-negative" in err
    assert main(["typer", gens_file, "--word-len", "0"]) == EXIT_OK
    assert main(["tidy", matrix_file, "--cap", "0"]) == EXIT_OK
    capsys.readouterr()


def test_prime_flag_consistency(matrix_file, capsys):
    assert main(["scale", matrix_file, "-p", "3"]) == EXIT_OK
    capsys.readouterr()


def test_module_entry_point(matrix_file):
    # the child imports the same ppm as this process, installed or not
    src = os.path.dirname(os.path.dirname(ppm.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-m", "ppm", "scale", matrix_file],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0
    assert "3^1" in out.stdout


def test_catalog_name_wins_over_a_file_of_that_name(tmp_path, monkeypatch, capsys):
    # a type-R generator file would give an inconclusive verdict
    (tmp_path / "UnitsZp").write_text(json.dumps(
        {"p": 3, "n": 1, "gens": [[["1"]]]}))
    monkeypatch.chdir(tmp_path)
    assert main(["analyze", "UnitsZp", "-p", "3", "-k", "2", "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["conclusion"] == "NotDense"
    assert "compact-group-order" in payload["citations"]


def test_coerced_numbers_are_input_errors(tmp_path, capsys):
    docs = {
        "float_p.json": {"p": 3.7, "n": 1, "entries": [["1"]]},
        "string_p.json": {"p": "3", "n": 1, "entries": [["1"]]},
        "float_n.json": {"p": 3, "n": 1.0, "entries": [["1"]]},
        "bool_entry.json": {"p": 3, "n": 1, "entries": [[True]]},
        "decimal_entry.json": {"p": 3, "n": 1, "entries": [["1.5"]]},
        "exponent_entry.json": {"p": 3, "n": 1, "entries": [["1e3"]]},
    }
    for name, doc in docs.items():
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        assert main(["scale", str(path)]) == EXIT_INPUT, name
    axb = tmp_path / "axb.json"
    axb.write_text(json.dumps({"p": 5, "a": 1.5, "b": "1"}))
    assert main(["root", "--kind", "axb", "-k", "3", str(axb)]) == EXIT_INPUT
    capsys.readouterr()


def test_finite_root_of_a_3x3_matrix_at_p5(tmp_path, capsys):
    # the square of [[2, 1, 0], [0, 3, 1], [1, 0, 1]]; the seeds come from
    # its centralizer mod 5, not from all 5^9 matrices
    entries = [[4, 5, 1], [1, 9, 4], [3, 1, 1]]
    path = tmp_path / "fin3.json"
    path.write_text(json.dumps({"p": 5, "n": 3, "entries": [[str(x) for x in row]
                                                            for row in entries]}))
    assert main(["root", "--kind", "finite", "-k", "2", "--level", "3", str(path),
                 "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    if payload["status"] == "found":
        root = tuple(tuple(row) for row in payload["root"])
        assert modmat.mat_pow(root, 2, 125) == modmat.reduce_mat(entries, 125)
    else:
        assert payload["status"] == "no_root"


def test_finite_root_past_the_seed_cap_is_inconclusive(tmp_path, capsys):
    # the centralizer of the identity is all of M_3(F_5): 5^9 > 10^6 seeds
    path = tmp_path / "id3.json"
    identity = [[str(int(i == j)) for j in range(3)] for i in range(3)]
    path.write_text(json.dumps({"p": 5, "n": 3, "entries": identity}))
    assert main(["root", "--kind", "finite", "-k", "2", "--level", "2",
                 str(path)]) == EXIT_INCONCLUSIVE
    assert "inconclusive" in capsys.readouterr().err


def test_malformed_catalog_numbers_are_input_errors(capsys):
    assert main(["order", "GLn_Zp", "-n", "-1", "-p", "3"]) == EXIT_INPUT
    assert main(["order", "GLn_Zp", "-n", "0", "-p", "3"]) == EXIT_INPUT
    assert main(["analyze", "AdditiveQp(1)", "-p", "3", "-k", "2",
                 "--spot-checks", "-3"]) == EXIT_INPUT
    assert main(["analyze", "AxB", "-p", "5", "-k", "3", "--spot-checks", "-1"]) == EXIT_INPUT
    capsys.readouterr()


def test_order_rejects_a_dimension_where_analyze_does(capsys):
    # ppm order UnitsZp -n 5 -p 3 printed 2 · 3^inf and exited 0
    for name in ("UnitsZp", "AdditiveZp"):
        assert main(["order", name, "-n", "5", "-p", "3"]) == EXIT_INPUT
        assert "does not take a dimension" in capsys.readouterr().err
        assert main(["analyze", f"{name}(2)", "-p", "3", "-k", "2"]) == EXIT_INPUT
    assert main(["order", "PrincipalCongruence", "-p", "3", "--level", "2"]) == EXIT_INPUT
    capsys.readouterr()


def test_oracle_command_rejects_a_non_positive_k_with_one_message(integral_gens_file, capsys):
    for k in ("0", "-2"):
        assert main(["oracle", integral_gens_file, "--level", "1", "-k", k]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "k must be a positive integer" in captured.err


def test_tidy_past_its_cap_exits_inconclusive(tmp_path, capsys):
    # c^-1 [[3, 1], [0, 1/3]] c with c = [[1, 0], [1/27, 1]] needs one tidying step
    path = tmp_path / "sheared.json"
    path.write_text(json.dumps(
        {"p": 3, "n": 2, "entries": [["82/27", "1"], ["-73/729", "8/27"]]}))
    assert main(["tidy", str(path), "--cap", "0"]) == EXIT_INCONCLUSIVE
    assert "inconclusive" in capsys.readouterr().err
    assert main(["tidy", str(path), "--cap", "1"]) == EXIT_OK


def test_tidy_past_its_cap_prints_its_trace_under_json(tmp_path, capsys):
    path = tmp_path / "sheared.json"
    path.write_text(json.dumps(
        {"p": 3, "n": 2, "entries": [["82/27", "1"], ["-73/729", "8/27"]]}))
    assert main(["tidy", str(path), "--cap", "0", "--json"]) == EXIT_INCONCLUSIVE
    captured = capsys.readouterr()
    assert "inconclusive" in captured.err
    assert json.loads(captured.out) == {
        "inconclusive": "tidying did not certify the scale within 0 steps", "trace": [[0, 6]]}


def test_an_inconclusive_run_without_a_trace_prints_null_under_json(tmp_path, capsys):
    # the centralizer of the identity is all of M_3(F_5): 5^9 > 10^6 seeds
    path = tmp_path / "id3.json"
    identity = [[str(int(i == j)) for j in range(3)] for i in range(3)]
    path.write_text(json.dumps({"p": 5, "n": 3, "entries": identity}))
    assert main(["root", "--kind", "finite", "-k", "2", "--level", "2", str(path),
                 "--json"]) == EXIT_INCONCLUSIVE
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["trace"] is None and "seed cap" in payload["inconclusive"]
    assert "inconclusive" in captured.err


def test_typer_and_flag_report_a_witness_word(tmp_path, capsys):
    path = tmp_path / "expanding.json"
    path.write_text(json.dumps(
        {"p": 3, "n": 2, "gens": [[["3", "0"], ["0", "1"]], [["1", "1"], ["0", "1"]]]}))
    assert main(["typer", str(path), "--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == {"ok": False, "witness": "g1"}
    assert main(["flag", str(path), "--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == {"flag": None, "witness": "g1"}


def test_an_axb_root_without_an_integral_translation_is_obstructed(tmp_path, capsys):
    path = tmp_path / "axb.json"
    path.write_text(json.dumps({"p": 3, "a": "1", "b": "1"}))
    assert main(["root", "--kind", "axb", "-k", "3", "--level", "3", str(path),
                 "--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["status"] == "obstructed"


def test_missing_prime_or_field_is_an_input_error(tmp_path, capsys):
    assert main(["order", "GLn_Zp"]) == EXIT_INPUT
    assert main(["analyze", "GL_Zp(2)", "-k", "2"]) == EXIT_INPUT
    path = tmp_path / "axb.json"
    path.write_text(json.dumps({"p": 3, "a": "1"}))
    assert main(["root", "--kind", "axb", "-k", "3", str(path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "order needs -p" in err and "analyze needs -p" in err and "\"b\"" in err
