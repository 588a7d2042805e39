"""API surface stability: the documented public names exist and work.

These tests pin down the public API a downstream user depends on, so an
accidental rename or dropped export fails loudly.
"""

import pytest

import repro


class TestTopLevel:
    def test_version(self):
        assert repro.__version__

    def test_subpackages(self):
        for name in (
            "fourvalued",
            "dl",
            "semantics",
            "four_dl",
            "baselines",
            "workloads",
            "harness",
            "eval",
        ):
            assert hasattr(repro, name), name


class TestDlSurface:
    def test_all_exports_resolve(self):
        from repro import dl

        for name in dl.__all__:
            assert hasattr(dl, name), name

    def test_core_types_importable(self):
        from repro.dl import (
            AtomicConcept,
            AtomicRole,
            Individual,
            KnowledgeBase,
            Reasoner,
            Tableau,
        )

        kb = KnowledgeBase()
        assert Reasoner(kb).is_consistent()


class TestFourDlSurface:
    def test_all_exports_resolve(self):
        from repro import four_dl

        for name in four_dl.__all__:
            assert hasattr(four_dl, name), name

    def test_quickstart_snippet(self):
        """The README quickstart, verbatim."""
        from repro.dl import AtomicConcept, ConceptAssertion, Individual, Not
        from repro.four_dl import KnowledgeBase4, Reasoner4, internal
        from repro.fourvalued import FourValue

        employee, person = AtomicConcept("Employee"), AtomicConcept("Person")
        pat = Individual("pat")
        kb4 = KnowledgeBase4().add(
            internal(employee, person),
            ConceptAssertion(pat, employee),
            ConceptAssertion(pat, Not(employee)),
        )
        reasoner = Reasoner4(kb4)
        assert reasoner.is_satisfiable()
        assert reasoner.assertion_value(pat, employee) is FourValue.BOTH
        assert reasoner.assertion_value(pat, person) is FourValue.TRUE
        assert reasoner.contradictory_facts() == {pat: frozenset({employee})}


class TestFourvaluedSurface:
    def test_all_exports_resolve(self):
        from repro import fourvalued

        for name in fourvalued.__all__:
            assert hasattr(fourvalued, name), name


class TestOtherSurfaces:
    def test_semantics_exports(self):
        from repro import semantics

        for name in semantics.__all__:
            assert hasattr(semantics, name), name

    def test_baselines_exports(self):
        from repro import baselines

        for name in baselines.__all__:
            assert hasattr(baselines, name), name

    def test_workloads_exports(self):
        from repro import workloads

        for name in workloads.__all__:
            assert hasattr(workloads, name), name

    def test_harness_exports(self):
        from repro import harness

        for name in harness.__all__:
            assert hasattr(harness, name), name

    def test_cli_entrypoint(self):
        from repro.cli import build_parser, main

        parser = build_parser()
        assert parser.prog == "repro"
        with pytest.raises(SystemExit):
            parser.parse_args([])  # command is required


class TestImportCost:
    def test_reasoning_imports_leave_the_harnesses_unloaded(self):
        """Loading the reasoner and the parser loads what reasoning needs:
        the package inits resolve their re-exports on first access."""
        import subprocess
        import sys

        script = (
            "import sys\n"
            "import repro.four_dl.reasoner4, repro.dl.parser\n"
            "print(sorted(m for m in sys.modules if m.startswith('repro')))\n"
        )
        loaded = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for heavy in (
            "repro.eval",
            "repro.harness",
            "repro.serve",
            "repro.semantics.enumeration",
        ):
            assert f"'{heavy}'" not in loaded, heavy

    def test_every_export_still_resolves(self):
        packages = (
            repro, repro.four_dl, repro.obs, repro.semantics, repro.fourvalued
        )
        for package in packages:
            for name in package.__all__:
                assert getattr(package, name) is not None, (package, name)
            assert set(package.__all__) <= set(dir(package))
