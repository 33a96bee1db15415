"""Tests for Mini-C cycle measurement and the minic CLI."""

import io
from contextlib import redirect_stdout

import pytest

from repro.core.modes import Mode
from repro.harness.configs import DefenseSpec
from repro.lang import heartbleed_program, sum_array_program
from repro.lang.measure import compare_program, measure_program


class TestMeasureProgram:
    def test_benign_program_overheads_ordered(self):
        """Listing 1's loop, benign, under every build."""
        program = sum_array_program(64)
        results = compare_program(
            program,
            [
                DefenseSpec.asan(),
                DefenseSpec.rest("Secure"),
                DefenseSpec.rest("Debug", mode=Mode.DEBUG),
            ],
        )
        plain = results["Plain"]
        assert plain.faulted is None
        secure = results["Secure"].overhead_vs(plain)
        debug = results["Debug"].overhead_vs(plain)
        asan = results["ASan"].overhead_vs(plain)
        assert secure < debug
        assert secure < asan
        assert results["Secure"].arms > 0  # stack redzones armed

    def test_buggy_program_faults_under_rest_only(self):
        program = heartbleed_program()
        results = compare_program(
            program, [DefenseSpec.rest("Secure"), DefenseSpec.asan()]
        )
        assert results["Plain"].faulted is None
        assert results["ASan"].faulted is None  # no tokens in replay
        assert results["Secure"].faulted is not None
        assert "token" in results["Secure"].faulted

    def test_perfect_hw_measurable(self):
        program = sum_array_program(8)
        measurement = measure_program(
            program, DefenseSpec.rest("PHW", perfect_hw=True)
        )
        assert measurement.arms == 0  # arms lowered to stores


class TestMinicCli:
    def _run(self, argv):
        from repro.__main__ import main

        captured = io.StringIO()
        with redirect_stdout(captured):
            code = main(argv)
        return code, captured.getvalue()

    @pytest.fixture
    def source_file(self, tmp_path):
        path = tmp_path / "prog.c"
        path.write_text(
            "int main() {\n"
            "    int buf[4];\n"
            "    for (i = 0; i < 4; i++) { buf[i] = i; }\n"
            "    return buf[3];\n"
            "}\n"
        )
        return str(path)

    @pytest.fixture
    def buggy_file(self, tmp_path):
        path = tmp_path / "bug.c"
        path.write_text(
            "int main() {\n"
            "    int p = malloc(64);\n"
            "    return p[9];\n"  # one cell into the right redzone
            "}\n"
        )
        return str(path)

    def test_run_benign(self, source_file):
        code, output = self._run(
            ["minic", "run", source_file, "--defense", "rest"]
        )
        assert code == 0
        assert "main returned 3" in output

    def test_run_buggy_detected(self, buggy_file):
        code, output = self._run(
            ["minic", "run", buggy_file, "--defense", "rest-heap"]
        )
        assert code == 1
        assert "memory-safety violation" in output

    def test_run_buggy_plain_silent(self, buggy_file):
        code, output = self._run(
            ["minic", "run", buggy_file, "--defense", "plain"]
        )
        assert code == 0

    def test_measure(self, source_file):
        code, output = self._run(["minic", "measure", source_file])
        assert code == 0
        assert "Plain" in output and "ASan" in output
        assert "REST Secure Full" in output
