"""CLI robustness and parser corner cases."""

import io
from contextlib import redirect_stdout

import pytest

from repro.lang.parser import ParseError, parse
from repro.lang import Interpreter
from repro.defenses import PlainDefense
from repro.runtime import Machine


def run_cli(argv):
    from repro.__main__ import main

    captured = io.StringIO()
    with redirect_stdout(captured):
        code = main(argv)
    return code, captured.getvalue()


class TestCliRobustness:
    def test_trace_roundtrip_via_cli(self, tmp_path):
        path = str(tmp_path / "t.rtrace")
        code, output = run_cli(
            ["trace", "record", path, "--benchmark", "sjeng", "--scale", "0.02"]
        )
        assert code == 0 and "recorded" in output
        code, output = run_cli(["trace", "replay", path])
        assert code == 0 and "replayed" in output
        code, output = run_cli(["trace", "stats", path])
        assert code == 0 and "micro-ops" in output
        assert "alu" in output

    def test_trace_replay_debug_slower(self, tmp_path):
        path = str(tmp_path / "t.rtrace")
        run_cli(
            ["trace", "record", path, "--benchmark", "hmmer",
             "--defense", "rest", "--scale", "0.05"]
        )

        def cycles(extra):
            _, output = run_cli(["trace", "replay", path] + extra)
            return int(
                output.split("micro-ops in ")[1].split(" cycles")[0].replace(",", "")
            )

        assert cycles(["--debug"]) > cycles([])

    @pytest.mark.parametrize("action", ["replay", "stats"])
    def test_trace_of_a_non_trace_file_exits_2(self, tmp_path, action):
        path = tmp_path / "notes.txt"
        path.write_text("not a trace\n")
        code, output = run_cli(["trace", action, str(path)])
        assert code == 2
        assert output.startswith("not a trace file: ")
        assert output.count("\n") == 1

    @pytest.mark.parametrize("action", ["replay", "stats"])
    def test_trace_of_a_missing_file_exits_2(self, tmp_path, action):
        path = tmp_path / "missing.rtrace"
        code, output = run_cli(["trace", action, str(path)])
        assert code == 2
        assert output.startswith(f"cannot read trace {path}: ")
        assert output.count("\n") == 1

    def test_minic_parse_error_reported(self, tmp_path):
        bad = tmp_path / "bad.c"
        bad.write_text("int main( { return 0; }")
        with pytest.raises(ParseError):
            run_cli(["minic", "run", str(bad)])

    def test_experiments_security_via_cli(self):
        code, output = run_cli(["experiments", "security"])
        assert code == 0
        assert "detection coverage" in output


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--outdir", "{tmp}", "--benchmark", "bogus"],
        ["bench", "--benchmark", "bogus"],
        ["trace", "record", "{tmp}/f", "--benchmark", "bogus"],
        ["sweep", "--benchmarks", "bogus"],
        ["run", "--outdir", "{tmp}", "--modes", "bogus"],
        # Spellings of the retired fast tier: plain usage errors now.
        ["run", "--outdir", "{tmp}", "--tier", "fast"],
        ["sweep", "--tier", "fast"],
        ["experiments", "fig7", "--tier", "fast"],
        ["diff", "{tmp}", "--fast-tier"],
    ],
    ids=" ".join,
)
def test_unknown_cell_name_exits_2(argv, tmp_path, capsys):
    """A bad benchmark or mode name, or a removed flag, is a usage
    error (naming the known names), raised before any cell is
    simulated."""
    argv = [arg.replace("{tmp}", str(tmp_path / "out")) for arg in argv]
    with pytest.raises(SystemExit) as err:
        run_cli(argv)
    assert err.value.code == 2
    errors = capsys.readouterr().err
    if "bogus" in argv:
        assert "unknown" in errors and "'bogus'; known: " in errors
    else:
        assert "unrecognized arguments: --" in errors
    assert "Traceback" not in errors
    assert not (tmp_path / "out").exists()


class TestParserCorners:
    def _run(self, source, *args):
        return Interpreter(parse(source), PlainDefense(Machine())).run(*args)

    def test_left_associativity(self):
        assert self._run("int main() { return 10 - 3 - 2; }") == 5
        assert self._run("int main() { return 16 / 4 / 2; }") == 2

    def test_comparison_chains_parse_left(self):
        # (1 < 2) < 3 -> 1 < 3 -> 1
        assert self._run("int main() { return 1 < 2 < 3; }") == 1

    def test_deeply_nested_blocks(self):
        source = "int main() {"
        source += "if (1) {" * 10
        source += "return 99;"
        source += "}" * 10
        source += "return 0; }"
        assert self._run(source) == 99

    def test_multiple_arrays_in_one_function(self):
        source = """
        int main() {
            int a[4];
            int b[4];
            a[0] = 1;
            b[0] = 2;
            return a[0] + b[0];
        }
        """
        program = parse(source)
        assert len(program.function("main").arrays) == 2
        assert self._run(source) == 3

    def test_array_decl_inside_block_hoisted(self):
        source = """
        int main() {
            if (1) {
                int late[4];
                late[0] = 5;
            }
            return late[0];
        }
        """
        # Hoisting gives the array function scope (C lifetime rules).
        assert self._run(source) == 5

    def test_keywords_not_usable_as_idents(self):
        with pytest.raises(ParseError):
            parse("int main() { int return = 1; return 0; }")

    def test_empty_function_body(self):
        assert self._run("int main() { }") == 0


class TestArgumentValidation:
    """--jobs and --cache validation across the CLI entry points."""

    def _expect_usage_exit(self, argv):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2

    def test_experiments_rejects_zero_jobs(self):
        self._expect_usage_exit(["experiments", "--jobs", "0", "table1"])

    def test_experiments_rejects_negative_jobs(self):
        self._expect_usage_exit(["experiments", "--jobs", "-4", "table1"])

    def test_experiments_rejects_non_integer_jobs(self):
        self._expect_usage_exit(["experiments", "--jobs", "two", "table1"])

    def test_sweep_rejects_zero_jobs(self):
        self._expect_usage_exit(["sweep", "--jobs", "0"])

    def test_sweep_rejects_negative_jobs(self):
        self._expect_usage_exit(["sweep", "--jobs", "-1"])

    def test_experiments_rejects_file_as_cache(self, tmp_path):
        not_a_dir = tmp_path / "cache.json"
        not_a_dir.write_text("{}")
        self._expect_usage_exit(
            ["experiments", "--cache", str(not_a_dir), "table1"]
        )

    def test_sweep_rejects_file_as_cache(self, tmp_path):
        not_a_dir = tmp_path / "cache.json"
        not_a_dir.write_text("{}")
        self._expect_usage_exit(["sweep", "--cache", str(not_a_dir)])

    def test_run_all_rejects_zero_jobs(self):
        from repro.experiments.run_all import main as run_all_main

        with pytest.raises(SystemExit) as excinfo:
            run_all_main(["--jobs", "0"])
        assert excinfo.value.code == 2

    def test_run_all_rejects_file_as_cache_dir(self, tmp_path):
        from repro.experiments.run_all import main as run_all_main

        not_a_dir = tmp_path / "cache.json"
        not_a_dir.write_text("{}")
        with pytest.raises(SystemExit) as excinfo:
            run_all_main(["--cache-dir", str(not_a_dir)])
        assert excinfo.value.code == 2

    def test_result_cache_rejects_file_root(self, tmp_path):
        from repro.harness.parallel import ResultCache

        not_a_dir = tmp_path / "cache.json"
        not_a_dir.write_text("{}")
        with pytest.raises(ValueError, match="file, not a directory"):
            ResultCache(not_a_dir)

    def test_bench_rejects_unreadable_baseline(self, tmp_path):
        code, out = run_cli(
            [
                "bench",
                "--benchmark", "xalancbmk",
                "--scale", "0.02",
                "--baseline", str(tmp_path / "missing.json"),
            ]
        )
        assert code == 2
        assert "cannot read baseline" in out

    def test_bench_baseline_is_exact(self, tmp_path):
        """``--baseline`` passes on an identical run and exits 1 naming
        the field on a one-cycle edit."""
        import json

        path = tmp_path / "bench.json"
        argv = ["bench", "--scale", "0.02"]
        assert run_cli(argv + ["--out", str(path)])[0] == 0
        assert run_cli(argv + ["--baseline", str(path)])[0] == 0
        manifest = json.loads(path.read_text())
        manifest["modes"]["asan"]["cycles"] += 1
        path.write_text(json.dumps(manifest))
        code, out = run_cli(argv + ["--baseline", str(path)])
        assert code == 1
        assert "BENCH DRIFT: modes.asan.cycles" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["experiments", "table1", "--timeout", "-1"],
            ["experiments", "table1", "--retries", "-1"],
            ["sweep", "--timeout", "0"],
            ["sweep", "--retries", "-1"],
            ["chaos", "--timeout", "0"],
            ["chaos", "--retries", "-1"],
            ["foundry", "--timeout", "nan"],
            ["foundry", "--retries", "-1"],
            ["serve", "--timeout", "-1"],
            ["serve", "--retries", "-1"],
            ["serve", "--unit-retries", "-1"],
        ],
    )
    def test_bad_engine_flags_are_usage_errors(self, argv):
        self._expect_usage_exit(argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ["--timeout", "-1"],
            ["--timeout", "0"],
            ["--timeout", "soon"],
            ["--retries", "-1"],
            ["--retries", "1.5"],
        ],
    )
    def test_run_all_bad_engine_flags_are_usage_errors(self, argv):
        from repro.experiments.run_all import main as run_all_main

        with pytest.raises(SystemExit) as excinfo:
            run_all_main(argv)
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["loadgen", "DIR", "--kills", "-1"],
            ["loadgen", "DIR", "--permanent", "-1"],
            ["chaos", "--permanent", "-1"],
        ],
    )
    def test_negative_chaos_counts_are_usage_errors(self, argv, tmp_path):
        self._expect_usage_exit(
            [str(tmp_path) if arg == "DIR" else arg for arg in argv]
        )


class TestAttackCli:
    """`repro attack` structured unknown-name handling."""

    def test_unknown_attack_is_usage_error_with_suggestions(self):
        code, out = run_cli(["attack", "heartbled"])
        assert code == 2
        assert "unknown attack 'heartbled'" in out
        assert "did you mean: heartbleed" in out

    def test_unknown_attack_lists_registry(self):
        code, out = run_cli(["attack", "zzz_not_an_attack"])
        assert code == 2
        assert "known:" in out
        assert "double_free" in out

    def test_run_attack_raises_structured_keyerror(self):
        from repro.defenses import make_defense
        from repro.workloads import UnknownAttackError
        from repro.workloads.attacks import run_attack

        with pytest.raises(UnknownAttackError) as excinfo:
            run_attack("heartbled", make_defense("none"))
        error = excinfo.value
        assert isinstance(error, KeyError)  # stays catchable as before
        assert "heartbleed" in error.suggestions
        assert "did you mean" in str(error)


class TestFoundryCli:
    """`repro foundry` exit discipline: 2 usage, 1 failure, 0 success."""

    def _expect_usage_exit(self, argv):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2

    def test_rejects_zero_jobs(self):
        self._expect_usage_exit(["foundry", "--jobs", "0", "--cases", "9"])

    def test_rejects_zero_cases(self):
        self._expect_usage_exit(["foundry", "--cases", "0"])

    def test_rejects_unknown_defense(self):
        self._expect_usage_exit(
            ["foundry", "--cases", "9", "--defenses", "stackguard"]
        )

    def test_rejects_file_as_cache(self, tmp_path):
        not_a_dir = tmp_path / "cache.json"
        not_a_dir.write_text("{}")
        self._expect_usage_exit(
            ["foundry", "--cases", "9", "--cache", str(not_a_dir)]
        )

    def test_unknown_family_is_usage_error(self):
        code, out = run_cli(
            ["foundry", "--cases", "9", "--families", "heap_spray"]
        )
        assert code == 2
        assert "unknown family" in out
        assert "heap_spray" in out

    def test_small_run_exits_zero_and_writes_matrix(self, tmp_path):
        out_path = tmp_path / "m" / "foundry_matrix.json"
        code, out = run_cli(
            ["foundry", "--seed", "3", "--cases", "9", "--defenses",
             "none", "rest", "--strict", "--out", str(out_path)]
        )
        assert code == 0
        assert "foundry coverage matrix" in out
        assert "oracle mispredictions: none" in out
        assert out_path.exists()

    def test_golden_mismatch_exits_one(self, tmp_path):
        golden = tmp_path / "golden.json"
        golden.write_text('{"schema": "rest-repro/foundry-matrix/v1"}\n')
        code, out = run_cli(
            ["foundry", "--seed", "3", "--cases", "9", "--defenses",
             "none", "--golden", str(golden)]
        )
        assert code == 1
        assert "golden" in out


class TestSweepCli:
    """`repro sweep` exit discipline and live progress streaming."""

    ARGS = ["sweep", "--seeds", "1", "--benchmarks", "bzip2",
            "--scale", "0.02"]

    def test_live_streams_sampler_lines(self):
        code, out = run_cli(self.ARGS + ["--live"])
        assert code == 0
        # At least one in-flight sampler snapshot was rendered, tagged
        # with the cell id, before the summary table.
        assert "live bzip2/" in out
        live_at = out.index("live bzip2/")
        assert "ipc" in out[live_at:]
        assert out.index("config") > live_at

    def test_failed_cell_exits_nonzero_with_structured_error(
        self, tmp_path, monkeypatch
    ):
        from repro.faults.plan import ALWAYS, FaultPlan, FaultSpec

        uid = "bzip2/Secure Heap/1"
        plan = FaultPlan(seed=1)
        plan.faults[uid] = FaultSpec(kind="crash", fail_attempts=ALWAYS)
        monkeypatch.setenv(
            "REPRO_FAULT_PLAN", str(plan.write(tmp_path / "plan.json"))
        )
        code, out = run_cli(self.ARGS)
        assert code == 1
        # The message names the failed cell and the worker error type so
        # scripts can tell a failed simulation from a bad invocation.
        assert f"sweep failed: {uid}: WorkerCrash" in out
        assert "attempt" in out

    def test_duplicate_seeds_are_usage_error(self):
        code, out = run_cli(
            ["sweep", "--seeds", "1", "1", "--benchmarks", "bzip2",
             "--scale", "0.02"]
        )
        assert code == 2
        assert "sweep failed:" in out
        assert "unique" in out


class TestExperimentsCommand:
    """``repro experiments`` runs what ``run_all`` would: the same
    registry, scale caps and default scale."""

    @pytest.fixture
    def units(self, monkeypatch):
        """The units the command hands to the engine (nothing runs)."""
        from types import SimpleNamespace

        from repro.harness import parallel

        captured = []

        def fake_execute_units(units, **_options):
            captured.extend(units)
            return {
                unit.uid: SimpleNamespace(ok=True, value=unit.uid)
                for unit in units
            }

        monkeypatch.setattr(parallel, "execute_units", fake_execute_units)
        return captured

    def test_scale_caps_apply(self, units):
        code, _ = run_cli(["experiments", "defensezoo", "--scale", "0.35"])
        assert code == 0
        assert [(u.uid, u.kwargs["scale"]) for u in units] == [
            ("defensezoo", 0.2)
        ]

    def test_default_scale_is_the_committed_one(self, units):
        from repro.experiments.run_all import experiment_units

        code, output = run_cli(["experiments", "fig7", "fig3"])
        assert code == 0
        assert units == experiment_units(0.5, 1234, names=["fig7", "fig3"])
        assert output.index("fig7") < output.index("fig3")

    def test_every_registered_experiment_is_accepted(self, units):
        from repro.experiments.run_all import EXPERIMENT_SCALES

        code, _ = run_cli(["experiments"])
        assert code == 0
        assert [unit.uid for unit in units] == list(EXPERIMENT_SCALES)
        assert {"stalls", "attackmatrix"} <= set(EXPERIMENT_SCALES)
