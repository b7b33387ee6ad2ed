"""End-to-end command-line runs, executed in process via main(argv)."""

import json
from pathlib import Path

import pytest

from g2jones import cli, filtration, presentation
from g2jones.characters import CharacterTable
from g2jones import rep as rep_module
from g2jones.cli import CACHE_FILENAME, main
from g2jones.presentation import RELATIONS
from g2jones.rep import RepDefinition, rep_from_document, rep_to_document

DEEP_WORD = "[[(c1 c2)^6, (c2 c3)^6], (c3 c4)^6]"
ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.fixture()
def rep_file(workdir, rep6):
    path = workdir / "rep.json"
    path.write_text(json.dumps(rep_to_document(rep6)), encoding="utf-8")
    return str(path)


def _table_text_with_bad_value() -> str:
    lines = CharacterTable.build(6).export_text().splitlines()
    # lines[2] is the all-ones trivial row; corrupt its last entry
    assert lines[2].startswith("[6]:")
    lines[2] = lines[2][:-1] + "2"
    return "\n".join(lines) + "\n"


class TestValidate:
    def test_searches_then_caches(self, workdir, capsys):
        assert main(["validate", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "validate"
        assert doc["passed"] is True
        assert doc["dim"] == 5
        assert doc["provenance"] == "constructed"
        assert doc["determinant"] == 1
        assert doc["normalization"] == {"eta": 1, "a": -4, "m": 5}
        assert len(doc["relations"]) == 18
        assert all(entry["passed"] for entry in doc["relations"])

        cache = workdir / CACHE_FILENAME
        assert cache.exists()
        cached = json.loads(cache.read_text(encoding="utf-8"))
        assert rep_from_document(cached).normalization.m == 5

        # second run must reuse the cache instead of searching again
        assert main(["validate", "--json"]) == 0
        doc2 = json.loads(capsys.readouterr().out)
        assert doc2["provenance"] == "loaded"
        assert doc2["normalization"] == doc["normalization"]

    def test_text_output(self, workdir, rep_file, capsys):
        assert main(["validate", "--rep", rep_file]) == 0
        out = capsys.readouterr().out
        assert "determinant: +1" in out
        assert "18 checked, 18 passed" in out
        assert out.strip().endswith("PASS")
        assert "FAIL" not in out

    def test_out_writes_document(self, workdir, rep_file, capsys):
        target = workdir / "report.json"
        assert main(["validate", "--rep", rep_file, "--out", str(target)]) == 0
        capsys.readouterr()
        doc = json.loads(target.read_text(encoding="utf-8"))
        assert doc["command"] == "validate"
        assert doc["passed"] is True

    def test_missing_rep_file_is_io_error(self, workdir, capsys):
        assert main(["validate", "--rep", "nope.json"]) == 3
        assert "i/o error" in capsys.readouterr().err

    def test_unparseable_json_is_io_error(self, workdir, capsys):
        bad = workdir / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["validate", "--rep", str(bad)]) == 3
        assert "i/o error" in capsys.readouterr().err

    def test_schema_violation_is_exit_3(self, workdir, capsys):
        bad = workdir / "bad.json"
        bad.write_text(json.dumps({"dim": 5}), encoding="utf-8")
        assert main(["validate", "--rep", str(bad)]) == 3
        assert "schema error" in capsys.readouterr().err

    def test_cache_is_written_whole_and_leaves_no_temporary(self, workdir, capsys):
        assert main(["validate", "--json"]) == 0
        capsys.readouterr()
        assert sorted(p.name for p in workdir.iterdir()) == [CACHE_FILENAME]
        cached = json.loads((workdir / CACHE_FILENAME).read_text(encoding="utf-8"))
        assert rep_to_document(rep_from_document(cached)) == cached

    def test_failed_cache_write_leaves_nothing_behind(self, workdir, monkeypatch, capsys):
        def refuse(src, dst):
            raise PermissionError("rename refused")

        monkeypatch.setattr(cli.os, "replace", refuse)
        assert main(["validate"]) == 3
        assert "i/o error" in capsys.readouterr().err
        assert list(workdir.iterdir()) == []

    def test_determinant_gate_runs_once_in_the_loader_and_once_in_validation(
            self, workdir, rep_file, monkeypatch, capsys):
        calls = []
        gate = rep_module.rep_determinant_sign

        def counting(rep):
            calls.append(rep)
            return gate(rep)

        monkeypatch.setattr(rep_module, "rep_determinant_sign", counting)
        monkeypatch.setattr(cli, "rep_determinant_sign", counting)
        assert main(["validate", "--rep", rep_file, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["determinant"] == 1
        assert len(calls) == 2

    def test_relations_run_once_for_the_loader_and_validation(
            self, workdir, rep_file, monkeypatch, capsys):
        checked = []
        evaluate = presentation._evaluate_relations

        def counting(generators, relations):
            for name, lhs, rhs in evaluate(generators, relations):
                checked.append(name)
                yield name, lhs, rhs

        monkeypatch.setattr(presentation, "_evaluate_relations", counting)
        presentation._presentation_report.cache_clear()
        assert main(["validate", "--rep", rep_file, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True
        # each of the 17 relations, once, in table order
        assert checked == [name for name, _, _ in RELATIONS]

    def test_failing_document_reads_the_failed_gate(self, workdir, rep6, monkeypatch, capsys):
        # c1 negated: determinants disagree and the braid c1 c2 fails; the
        # loader would refuse it, so it is handed to the command directly
        gens = (-rep6.generators[0],) + rep6.generators[1:]
        broken = RepDefinition(dim=5, generators=gens, normalization=None,
                               provenance="constructed")
        monkeypatch.setattr(cli, "_resolve_rep", lambda args: broken)
        gate = "determinants in {+1, -1} (generator determinants disagree)"
        assert main(["validate", "--json"]) == 2
        assert capsys.readouterr().out == json.dumps({
            "command": "validate",
            "dim": 5,
            "provenance": "constructed",
            "normalization": None,
            "determinant": None,
            "relations": [{"name": gate, "passed": False}] + [
                {"name": name, "passed": name != "braid c1 c2"} for name, _, _ in RELATIONS
            ],
            "passed": False,
        }, indent=2, sort_keys=True) + "\n"
        assert main(["validate"]) == 2
        assert capsys.readouterr().out == (
            "representation: dim 5, provenance constructed\n"
            "normalization: None\n"
            "determinant: not +/-1\n"
            "relations: 18 checked, 16 passed\n"
            f"  FAIL {gate}\n"
            "  FAIL braid c1 c2\n"
            "FAIL\n"
        )

    def test_mathematically_broken_rep_is_exit_2(self, workdir, rep6, capsys):
        doc = rep_to_document(rep6)
        doc["generators"][0][0][1].append([99, "1"])  # schema-valid, math-invalid
        bad = workdir / "broken.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", "--rep", str(bad)]) == 2
        assert capsys.readouterr().err.strip()


class TestLoaderRejectsBrokenRelations:
    @pytest.mark.parametrize("command", [
        ["validate"], ["analyze", "--word", "(c1 c2)^6"], ["decompose"],
    ])
    def test_identical_shears_are_exit_2(self, workdir, capsys, shear_document, command):
        path = workdir / "shears.json"
        path.write_text(json.dumps(shear_document), encoding="utf-8")
        assert main([command[0], "--rep", str(path), *command[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "RelationFailureError: relation failed: chain (c1 c2 c3 c4 c5)^6 = 1\n"
        )


class TestAnalyze:
    def test_single_word_both_cases(self, workdir, rep_file, capsys):
        code = main(["analyze", "--rep", rep_file, "--word", "(c1 c2)^6", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "analyze"
        assert doc["order"] == 12
        assert doc["passed"] is True
        assert [entry["epsilon"] for entry in doc["reports"]] == [1, -1]
        for entry in doc["reports"]:
            assert entry["word"] == "(c1 c2)^6"  # input spelling, not the reduced one
            assert entry["torelli"] is True
            assert entry["degree0_trivial"] is True
            assert entry["depth"] == 1
            assert entry["trace"] == "0"
            assert entry["trivial_projection"] == "0"
            assert entry["det_lemma_ok"] is True

    def test_catalog_json_equals_the_golden_reports(self, workdir, rep_file, capsys):
        golden = json.loads((ROOT / "benchmarks" / "golden" / "analyze_catalog.json")
                            .read_text(encoding="utf-8"))
        assert main(["analyze", "--rep", rep_file, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["reports"]) == len(golden["reports"]) == 40
        for ours, theirs in zip(doc["reports"], golden["reports"]):
            assert ours == theirs
        assert doc == golden

    def test_minus_case_is_the_minus_half_of_both(self, workdir, rep_file, capsys):
        # the minus reports read the plus images when the memo holds them
        # and evaluate at +1 themselves when it does not: the same bytes
        def run(case, *flags):
            assert main(["analyze", "--rep", rep_file, "--case", case, *flags]) == 0
            return capsys.readouterr().out

        filtration._t_image.cache_clear()
        cold = [run("minus", "--json"), run("minus")]
        both_json, both_text = run("both", "--json"), run("both")
        warm = [run("minus", "--json"), run("minus")]
        doc = json.loads(both_json)
        doc["reports"] = [r for r in doc["reports"] if r["epsilon"] == -1]
        expected_json = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        expected_text = "".join(line for line in both_text.splitlines(keepends=True)
                                if "[plus]" not in line)
        assert cold == warm == [expected_json, expected_text]

    def test_case_and_order_flags(self, workdir, rep_file, capsys):
        code = main(["analyze", "--rep", rep_file, "--word", "(c2 c3)^6",
                     "--case", "minus", "--order", "4", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["order"] == 4
        assert len(doc["reports"]) == 1
        assert doc["reports"][0]["epsilon"] == -1

    def test_not_torelli_word(self, workdir, rep_file, capsys):
        code = main(["analyze", "--rep", rep_file, "--word", "c1", "--json"])
        assert code == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is False
        assert doc["reports"][0]["error"] == "NOT_TORELLI"
        assert doc["reports"][0]["message"]
        assert "hint" not in doc["reports"][0]

    def test_depth_beyond_order_gets_hint(self, workdir, rep_file, capsys):
        code = main(["analyze", "--rep", rep_file, "--word", DEEP_WORD,
                     "--case", "plus", "--order", "2", "--json"])
        assert code == 2
        entry = json.loads(capsys.readouterr().out)["reports"][0]
        assert entry["error"] == "VALUATION_EXCEEDS_ORDER"
        assert entry["hint"] == "retry with a larger --order"

    def test_bad_expression_is_exit_2(self, workdir, rep_file, capsys):
        assert main(["analyze", "--rep", rep_file, "--word", "c9"]) == 2
        assert "c9" in capsys.readouterr().err

    def test_deeply_nested_expression_is_exit_2(self, workdir, rep_file, capsys):
        word = "(" * 3000 + "c1" + ")" * 3000
        assert main(["analyze", "--rep", rep_file, "--word", word]) == 2
        assert "ParseError" in capsys.readouterr().err

    @pytest.mark.parametrize("word", [
        "c1^1000000000",
        "[" * 30 + "c1, c2]" + ", c3]" * 29,
    ])
    def test_word_beyond_the_letter_cap_is_exit_2(self, workdir, rep_file, capsys, word):
        assert main(["analyze", "--rep", rep_file, "--word", word]) == 2
        assert "more than 10000 letters" in capsys.readouterr().err

    def test_long_word_error_is_shortened(self, workdir, rep_file, capsys):
        code = main(["analyze", "--rep", rep_file, "--word", "(c1 c2)^301",
                     "--case", "plus", "--json"])
        assert code == 2
        entry = json.loads(capsys.readouterr().out)["reports"][0]
        assert entry["error"] == "NOT_TORELLI"
        assert entry["message"].endswith("(602 letters) acts nontrivially on homology")
        assert entry["message"].count("c1") == 4

    def test_order_below_two_is_schema_error(self, workdir, rep_file, capsys):
        code = main(["analyze", "--rep", rep_file, "--word", "(c1 c2)^6", "--order", "1"])
        assert code == 3
        assert "schema error" in capsys.readouterr().err

    def test_catalog_file(self, workdir, rep_file, capsys):
        words = workdir / "words.txt"
        words.write_text("(c1 c2)^6\n# comment line\n(c4 c5)^6\n", encoding="utf-8")
        code = main(["analyze", "--rep", rep_file, "--catalog", str(words),
                     "--case", "plus", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert [entry["word"] for entry in doc["reports"]] == ["(c1 c2)^6", "(c4 c5)^6"]

    def test_default_catalog_text_mode(self, workdir, rep_file, capsys):
        assert main(["analyze", "--rep", rep_file, "--case", "plus"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("analyzed 20 word(s), order 12")
        assert out.strip().endswith("PASS")

    def test_out_file_is_deterministic(self, workdir, rep_file, capsys):
        args = ["analyze", "--rep", rep_file, "--word", "(c3 c4)^6",
                "--case", "plus", "--out"]
        first, second = workdir / "a.json", workdir / "b.json"
        assert main(args + [str(first)]) == 0
        assert main(args + [str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()
        assert json.loads(first.read_text(encoding="utf-8"))["passed"] is True


    def test_out_equals_the_json_stdout_and_leaves_no_temporary(self, workdir, rep_file, capsys):
        target = workdir / "report.json"
        assert main(["analyze", "--rep", rep_file, "--word", "(c3 c4)^6",
                     "--json", "--out", str(target)]) == 0
        assert target.read_text(encoding="utf-8") == capsys.readouterr().out
        assert sorted(p.name for p in workdir.iterdir()) == ["rep.json", "report.json"]

    def test_failed_out_write_leaves_nothing_behind(self, workdir, rep_file, monkeypatch, capsys):
        def refuse(src, dst):
            raise PermissionError("rename refused")

        monkeypatch.setattr(cli.os, "replace", refuse)
        assert main(["analyze", "--rep", rep_file, "--word", "(c3 c4)^6",
                     "--out", str(workdir / "report.json")]) == 3
        assert "i/o error" in capsys.readouterr().err
        assert sorted(p.name for p in workdir.iterdir()) == ["rep.json"]


class TestDecompose:
    def test_full_document(self, workdir, rep_file, capsys):
        assert main(["decompose", "--rep", rep_file, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "decompose"
        assert doc["passed"] is True
        assert set(doc["cases"]) == {"plus", "minus"}
        for data in doc["cases"].values():
            assert data["group_order"] == 720
            assert data["matches_expected"] is True
            assert data["multiplicities"]["[4,2]"] == 1
            assert data["multiplicities"]["[5,1]"] == 0
            assert data["projector_ranks"] == {
                "[6]": 1, "[4,2]": 9, "[2,2,2]": 5, "[3,1,1,1]": 10,
            }
        assert doc["weyl_dims"] == {"[0,0]": 1, "[0,1]": 5, "[2,0]": 10, "[0,2]": 14}
        assert doc["weyl_dim_sum_1_10_14"] == 25

    def test_external_chartable_accepted(self, workdir, rep_file, capsys):
        table = workdir / "table.txt"
        table.write_text(CharacterTable.build(6).export_text(), encoding="utf-8")
        code = main(["decompose", "--rep", rep_file, "--case", "plus",
                     "--chartable", str(table)])
        assert code == 0
        assert capsys.readouterr().out.strip().endswith("PASS")

    def test_tampered_chartable_is_exit_2(self, workdir, rep_file, capsys):
        table = workdir / "table.txt"
        table.write_text(_table_text_with_bad_value(), encoding="utf-8")
        code = main(["decompose", "--rep", rep_file, "--case", "plus",
                     "--chartable", str(table)])
        assert code == 2
        assert "orthogonality" in capsys.readouterr().err

    def test_garbage_chartable_is_exit_3(self, workdir, rep_file, capsys):
        table = workdir / "table.txt"
        table.write_text("not a table\n", encoding="utf-8")
        code = main(["decompose", "--rep", rep_file, "--chartable", str(table)])
        assert code == 3
        assert "schema error" in capsys.readouterr().err

    def test_repeat_runs_byte_identical(self, workdir, rep_file, capsys):
        args = ["decompose", "--rep", rep_file, "--case", "plus", "--json"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first


class TestSearch:
    def test_default_search_round_trips(self, workdir, capsys):
        assert main(["search", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        rep = rep_from_document(doc)
        norm = rep.normalization
        assert (norm.eta, norm.a, norm.m) == (1, -4, 5)

    def test_text_mode_reports_the_normalization(self, workdir, capsys):
        assert main(["search"]) == 0
        out = capsys.readouterr().out
        assert "found: eta +1, a -4, m 5" in out
        assert "determinant of each generator: +1" in out

    def test_eta_minus_window(self, workdir, capsys):
        assert main(["search", "--eta", "minus", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        norm = rep_from_document(doc).normalization
        assert (norm.eta, norm.a, norm.m) == (-1, -4, 5)

    def test_exhausted_window_is_exit_2(self, workdir, capsys):
        assert main(["search", "--max-m", "4"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("search exhausted")
        # one line per rejected candidate: 2 etas * 9 a-values * 4 m-values
        assert len(err.strip().splitlines()) == 1 + 72

    def test_bad_window_is_schema_error(self, workdir, capsys):
        assert main(["search", "--max-a", "-1"]) == 3
        assert "schema error" in capsys.readouterr().err

    def test_huge_window_is_schema_error(self, workdir, capsys):
        assert main(["search", "--max-a", "100000", "--max-m", "100000"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("schema error: search range holds 20000200000 candidates")

    def test_long_exhaustion_lists_are_cut(self, workdir, capsys):
        assert main(["search", "--max-m", "4", "--max-a", "1000"]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        listed = rep_module.MAX_LISTED_FAILURES
        assert lines[0] == "search exhausted: no valid candidate among 8008 tried"
        assert len(lines) == 1 + listed + 1
        assert lines[-1] == f"  ... {8008 - listed} more not listed"

    def test_out_feeds_validate(self, workdir, capsys):
        target = workdir / "found.json"
        assert main(["search", "--out", str(target)]) == 0
        capsys.readouterr()
        assert main(["validate", "--rep", str(target), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["provenance"] == "loaded"
        assert doc["passed"] is True


class TestChartable:
    def test_computed_table_passes(self, workdir, capsys):
        assert main(["chartable"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("symmetric group S6 character table")
        assert "orthogonality: ok" in out

    def test_json_document(self, workdir, capsys):
        assert main(["chartable", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == 6
        assert len(doc["classes"]) == 11
        assert sum(entry["size"] for entry in doc["classes"]) == 720
        assert doc["rows"]["[6]"] == [1] * 11
        assert doc["row_orthogonality"] is True
        assert doc["column_orthogonality"] is True
        assert doc["passed"] is True

    def test_round_trip_through_file(self, workdir, capsys):
        table = workdir / "table.txt"
        table.write_text(CharacterTable.build(6).export_text(), encoding="utf-8")
        assert main(["chartable", "--chartable", str(table)]) == 0
        capsys.readouterr()

    def test_tampered_table_is_exit_2(self, workdir, capsys):
        table = workdir / "table.txt"
        table.write_text(_table_text_with_bad_value(), encoding="utf-8")
        assert main(["chartable", "--chartable", str(table)]) == 2
        assert "orthogonality: FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("command", [
    ["analyze", "--catalog"],
    ["decompose", "--chartable"],
    ["chartable", "--chartable"],
    ["validate", "--rep"],
], ids=["analyze-catalog", "decompose-chartable", "chartable-chartable", "validate-rep"])
def test_non_utf8_input_is_io_error(workdir, rep_file, capsys, command):
    bad = workdir / "bad.txt"
    bad.write_bytes(b"\xff\xfe")
    rep_option = [] if command[0] in ("chartable", "validate") else ["--rep", rep_file]
    assert main(command + [str(bad)] + rep_option) == 3
    err = capsys.readouterr().err
    assert err.startswith("i/o error") and "Traceback" not in err


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()
