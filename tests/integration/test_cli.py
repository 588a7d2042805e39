"""CLI integration tests (python -m repro ...)."""

import pytest

from repro.cli import main

PENGUIN = """
Bird and (hasWing some Wing) |-> Fly
Penguin < Bird
Penguin < hasWing some Wing
Penguin < not Fly
tweety : Bird
tweety : Penguin
w : Wing
hasWing(tweety, w)
"""

CONFLICTED = """
SurgicalTeam < not ReadTeam
UrgencyTeam < ReadTeam
john : SurgicalTeam
john : UrgencyTeam
"""


@pytest.fixture
def penguin_file(tmp_path):
    path = tmp_path / "penguin.kb4"
    path.write_text(PENGUIN)
    return str(path)


@pytest.fixture
def conflicted_file(tmp_path):
    path = tmp_path / "teams.kb4"
    path.write_text(CONFLICTED)
    return str(path)


class TestCheck:
    def test_satisfiable_ontology(self, penguin_file, capsys):
        assert main(["check", penguin_file]) == 0
        output = capsys.readouterr().out
        assert "four-valued satisfiable: True" in output
        assert "classically consistent:  False" in output

    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent/file.kb4"]) == 2
        assert "error" in capsys.readouterr().err

    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.kb4"
        bad.write_text("this is ~~nonsense~~\n")
        assert main(["check", str(bad)]) == 2
        assert "parse error" in capsys.readouterr().err


class TestQuery:
    def test_false_status_exits_nonzero(self, penguin_file, capsys):
        assert main(["query", penguin_file, "tweety", "Fly"]) == 1
        assert "Fly(tweety) = f" in capsys.readouterr().out

    def test_true_status(self, penguin_file, capsys):
        assert main(["query", penguin_file, "tweety", "Penguin"]) == 0
        assert "= t" in capsys.readouterr().out

    def test_both_status(self, conflicted_file, capsys):
        assert main(["query", conflicted_file, "john", "ReadTeam"]) == 0
        assert "TOP" in capsys.readouterr().out

    def test_complex_concept_query(self, penguin_file, capsys):
        code = main(
            ["query", penguin_file, "tweety", "Bird and (hasWing some Wing)"]
        )
        assert code == 0


class TestAudit:
    def test_conflict_report(self, conflicted_file, capsys):
        assert main(["audit", conflicted_file, "--no-roles"]) == 1
        output = capsys.readouterr().out
        assert "inconsistency degree" in output
        assert "john" in output
        assert "ReadTeam" in output

    def test_clean_ontology_exits_zero(self, penguin_file, capsys):
        assert main(["audit", penguin_file, "--no-roles"]) == 0
        assert "no contradictions entailed" in capsys.readouterr().out

    def test_full_census(self, conflicted_file, capsys):
        main(["audit", conflicted_file, "--full", "--no-roles"])
        assert "Full fact census" in capsys.readouterr().out


class TestClassify:
    def test_internal_hierarchy(self, penguin_file, capsys):
        assert main(["classify", penguin_file]) == 0
        output = capsys.readouterr().out
        assert "Hierarchy (internal inclusion)" in output
        assert "Penguin" in output
        assert "Bird" in output

    def test_material_kind(self, penguin_file, capsys):
        assert main(["classify", penguin_file, "--kind", "material"]) == 0
        assert "material" in capsys.readouterr().out


class TestStatsFlag:
    def test_check_prints_work_counters(self, penguin_file, capsys):
        assert main(["check", penguin_file, "--stats"]) == 0
        output = capsys.readouterr().out
        assert "work: tableau runs:" in output
        assert "cache:" in output

    def test_query_prints_work_counters(self, penguin_file, capsys):
        main(["query", penguin_file, "tweety", "Penguin", "--stats"])
        assert "work: tableau runs:" in capsys.readouterr().out

    def test_audit_prints_work_counters(self, conflicted_file, capsys):
        main(["audit", conflicted_file, "--no-roles", "--stats"])
        assert "work: tableau runs:" in capsys.readouterr().out

    def test_classify_prints_work_counters(self, penguin_file, capsys):
        main(["classify", penguin_file, "--stats"])
        output = capsys.readouterr().out
        assert "work: tableau runs:" in output
        assert "subsumption tests:" in output

    def test_without_flag_no_counters(self, penguin_file, capsys):
        main(["check", penguin_file])
        assert "work:" not in capsys.readouterr().out


class TestSearchFlags:
    def test_stats_report_trail_counters(self, penguin_file, capsys):
        assert main(["check", penguin_file, "--stats"]) == 0
        assert "trail:" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags", [["--search", "trail"], ["--no-incremental"]]
    )
    def test_removed_flags_are_usage_errors(self, penguin_file, flags):
        with pytest.raises(SystemExit) as raised:
            main(["check", penguin_file, *flags])
        assert raised.value.code == 2


class TestTransformAndExport:
    def test_transform_prints_induced_kb(self, penguin_file, capsys):
        assert main(["transform", penguin_file]) == 0
        output = capsys.readouterr().out
        assert "Penguin__pos subclassof Fly__neg" in output

    def test_export_owl(self, penguin_file, capsys):
        assert main(["export-owl", penguin_file, "--iri", "http://x"]) == 0
        output = capsys.readouterr().out
        assert output.startswith("Prefix(:=<http://x#>)")
        assert "SubClassOf(:Penguin__pos :Fly__neg)" in output

    def test_exported_owl_parses_back(self, penguin_file, capsys):
        from repro.dl.owl import from_functional

        main(["export-owl", penguin_file])
        document = capsys.readouterr().out
        kb = from_functional(document)
        assert len(kb) > 0


class TestRepair:
    def test_diagnoses_conflicted_ontology(self, conflicted_file, capsys):
        assert main(["repair", conflicted_file]) == 1
        output = capsys.readouterr().out
        assert "justifications found: 1" in output
        assert "minimal repairs: 4" in output

    def test_consistent_ontology_needs_nothing(self, penguin_file, capsys):
        # The penguin KB4 is classically consistent once the material
        # inclusion is transformed away?  No: its *collapse* is
        # inconsistent, so repair reports justifications.
        code = main(["repair", penguin_file])
        output = capsys.readouterr().out
        assert code == 1
        assert "justifications found" in output

    def test_clean_file(self, tmp_path, capsys):
        clean = tmp_path / "clean.kb4"
        clean.write_text("A < B\nx : A\n")
        assert main(["repair", str(clean)]) == 0
        assert "nothing to repair" in capsys.readouterr().out


class TestExperimentsCommand:
    def test_single_experiment(self, capsys):
        assert main(["experiments", "table1"]) == 0
        output = capsys.readouterr().out
        assert "Table 1" in output and "PASS" in output

    def test_unknown_experiment(self, capsys):
        assert main(["experiments", "nope"]) == 2
        assert "unknown experiments" in capsys.readouterr().err
