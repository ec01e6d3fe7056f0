import pytest

from qprenex import cli
from qprenex.core import free_vars, qdepth
from qprenex.parser import parse, parse_formula


def run(args):
    return cli.main(args)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def metrics_of(line):
    pairs = dict(
        token.split("=", 1) for token in line.split() if "=" in token
    )
    return pairs


class TestPrenexCommand:
    def test_metrics_and_outputs(self, tmp_path, capsys):
        src = write(tmp_path, "in.fqbf", "(exists x . a & ~(exists x . b)) & ~(forall y . c)")
        out = str(tmp_path / "out.fqbf")
        assert run(["prenex", src, "--out", out]) == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        metrics = metrics_of(line)
        assert metrics["input_length"] == "11"
        assert metrics["input_qdepth"] == "2"
        assert metrics["input_nblock"] == "3"
        assert metrics["input_nbvar"] == "3"
        assert float(metrics["ratio"]) <= 9
        assert float(metrics["time_s"]) >= 0
        produced = parse(
            (tmp_path / "out.fqbf").read_text(), allow_internal_names=True
        )
        assert qdepth(produced.formula) == 2
        manifest = (tmp_path / "out.fqbf.map").read_text()
        assert manifest.startswith("# qprenex-manifest mode=sat")

    def test_boolean_passthrough(self, tmp_path, capsys):
        src = write(tmp_path, "in.fqbf", "p xor ~q")
        out = str(tmp_path / "out.fqbf")
        assert run(["prenex", src, "--out", out]) == 0
        assert (tmp_path / "out.fqbf").read_text().strip() == "p xor ~q"

    def test_mc_preserves_free_variables(self, tmp_path):
        src = write(tmp_path, "in.fqbf", "a xor (exists x . x & b)")
        out = str(tmp_path / "out.fqbf")
        assert run(["prenex", src, "--mode", "mc", "--out", out]) == 0
        produced = parse(
            (tmp_path / "out.fqbf").read_text(), allow_internal_names=True
        )
        assert free_vars(produced.formula) == {"a", "b"}

    def test_qcir_and_qdimacs_formats(self, tmp_path):
        src = write(
            tmp_path,
            "in.fqbf",
            "op maj/3 : 00010111 ;\n(exists x . maj(x, a, b)) xor a",
        )
        assert run(["prenex", src, "--format", "qcir",
                    "--out", str(tmp_path / "o.qcir")]) == 0
        qcir = (tmp_path / "o.qcir").read_text()
        assert qcir.startswith("#QCIR-G14")
        assert run(["prenex", src, "--format", "qdimacs",
                    "--out", str(tmp_path / "o.qdimacs")]) == 0
        qdimacs = (tmp_path / "o.qdimacs").read_text()
        assert qdimacs.startswith("p cnf ")
        assert (tmp_path / "o.qdimacs.map").exists()

    def test_parse_error_exit_code(self, tmp_path, capsys):
        src = write(tmp_path, "bad.fqbf", "exists . x")
        assert run(["prenex", src]) == 1
        assert "error" in capsys.readouterr().err

    def test_mc_boolean_combination_rejected_for_qdimacs(self, tmp_path, capsys):
        src = write(tmp_path, "in.fqbf", "a xor (exists x . x & b)")
        code = run(["prenex", src, "--mode", "mc", "--format", "qdimacs",
                    "--out", str(tmp_path / "o.qdimacs")])
        assert code == 1
        assert "prenex" in capsys.readouterr().err

    def test_bound_violation_exit_code(self, tmp_path, capsys, monkeypatch):
        import qprenex.cli as climod
        from qprenex.core import big_conj, Var

        src = write(tmp_path, "in.fqbf", "exists x . x & a")
        huge = big_conj([Var(f"z{i}") for i in range(200)])
        monkeypatch.setattr(climod, "prenex", lambda kind, phi, gen: huge)
        code = run(["prenex", src, "--out", str(tmp_path / "o.fqbf")])
        assert code == 2
        assert "exceeds" in capsys.readouterr().err


class TestCheckCommand:
    def test_xor_block_formula_passes(self, tmp_path, capsys):
        src = write(tmp_path, "in.fqbf", "(a & b) xor (exists x . x | a)")
        assert run(["check", src]) == 0
        assert capsys.readouterr().out.startswith("PASS")

    def test_boolean_passes_trivially(self, tmp_path, capsys):
        src = write(tmp_path, "in.fqbf", "p & ~q")
        for mode in ("sat", "valid", "mc"):
            assert run(["check", src, "--mode", mode]) == 0

    def test_all_modes_on_worked_example(self, tmp_path):
        src = write(
            tmp_path, "in.fqbf",
            "(exists x . a & ~(exists x . b)) & ~(forall y . c)",
        )
        for mode in ("sat", "valid", "mc"):
            assert run(["check", src, "--mode", mode]) == 0

    def test_prenex_then_check_two_files(self, tmp_path, capsys):
        src = write(
            tmp_path, "in.fqbf",
            "op maj/3 : 00010111 ;\n(exists x . maj(x, a, b)) xor a",
        )
        out = str(tmp_path / "out.fqbf")
        for mode in ("sat", "valid", "mc"):
            assert run(["prenex", src, "--mode", mode, "--out", out]) == 0
            assert run(["check", src, out, "--mode", mode]) == 0
            assert capsys.readouterr().out.splitlines()[-1].startswith("PASS")

    def test_check_two_files_catches_wrong_artifact(self, tmp_path, capsys):
        src = write(tmp_path, "in.fqbf", "exists x . x & ~x")
        bogus = write(tmp_path, "bogus.fqbf", "w | ~w")
        assert run(["check", src, bogus]) == 2
        assert capsys.readouterr().out.startswith("FAIL")

    def test_corrupted_transform_fails_with_witness(
        self, tmp_path, capsys, monkeypatch
    ):
        import qprenex.cli as climod

        src = write(tmp_path, "in.fqbf", "exists x . x & ~x")
        # a guard-polarity-style corruption: swap in a satisfiable formula
        # for the unsatisfiable input's transform
        monkeypatch.setattr(
            climod, "prenex", lambda kind, phi, gen: parse_formula("w | ~w")
        )
        code = run(["check", src])
        out = capsys.readouterr().out
        assert code == 2
        assert out.startswith("FAIL")
        assert "witness" in out

    def test_mc_mode_corruption(self, tmp_path, capsys, monkeypatch):
        import qprenex.cli as climod

        src = write(tmp_path, "in.fqbf", "a xor (exists x . x & b)")
        monkeypatch.setattr(
            climod, "prenex_mc", lambda phi, gen: parse_formula("a & b")
        )
        code = run(["check", src, "--mode", "mc"])
        out = capsys.readouterr().out
        assert code == 2
        assert "witness" in out and ("a=" in out or "b=" in out)

    def test_refusal_exit_code(self, tmp_path, capsys):
        wide = " | ".join(f"v{i}" for i in range(25))
        src = write(tmp_path, "in.fqbf", wide)
        assert run(["check", src]) == 3
        assert "refuses" in capsys.readouterr().err

    def test_oracle_cap_flag(self, tmp_path):
        src = write(tmp_path, "in.fqbf", "a | b | c")
        assert run(["check", src, "--oracle-cap", "2"]) == 3


@pytest.mark.parametrize("command", ["prenex", "check"])
def test_recursion_fault_is_one_line_with_exit_2(tmp_path, capsys, command):
    # The mc decomposition still recurses once per nesting level, so this
    # chain exhausts the recursion limit; the CLI reports it as a fault.
    chain = " -> ".join(f"p{i}" for i in range(12_000)) + " -> (exists x . x)"
    src = write(tmp_path, "in.fqbf", chain)
    out = ["--out", str(tmp_path / "out.fqbf")] if command == "prenex" else []
    assert run([command, src, "--mode", "mc", *out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: RecursionError: maximum recursion depth")
    assert captured.err.count("\n") == 1


def test_memory_fault_is_one_line_with_exit_2(capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_gen", exhausted)
    assert run(["gen"]) == 2
    assert capsys.readouterr().err == "error: MemoryError: out of memory\n"


class TestGenCommand:
    def test_deterministic_per_seed(self, tmp_path):
        a = str(tmp_path / "a.fqbf")
        b = str(tmp_path / "b.fqbf")
        assert run(["gen", "--seed", "5", "--out", a]) == 0
        assert run(["gen", "--seed", "5", "--out", b]) == 0
        assert (tmp_path / "a.fqbf").read_bytes() == (tmp_path / "b.fqbf").read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        a = str(tmp_path / "a.fqbf")
        b = str(tmp_path / "b.fqbf")
        run(["gen", "--seed", "5", "--out", a])
        run(["gen", "--seed", "6", "--out", b])
        assert (tmp_path / "a.fqbf").read_text() != (tmp_path / "b.fqbf").read_text()

    def test_depth_contract(self, tmp_path):
        for seed in range(20):
            out = str(tmp_path / f"f{seed}.fqbf")
            assert run(["gen", "--seed", str(seed), "--max-depth", "2",
                        "--out", out]) == 0
            problem = parse((tmp_path / f"f{seed}.fqbf").read_text())
            assert qdepth(problem.formula) <= 2

    def test_env_seed_override(self, tmp_path, monkeypatch):
        a = str(tmp_path / "a.fqbf")
        b = str(tmp_path / "b.fqbf")
        monkeypatch.setenv("QPRENEX_SEED", "9")
        run(["gen", "--seed", "5", "--out", a])
        monkeypatch.delenv("QPRENEX_SEED")
        run(["gen", "--seed", "9", "--out", b])
        assert (tmp_path / "a.fqbf").read_text() == (tmp_path / "b.fqbf").read_text()

    def test_bad_env_seed_is_an_input_error(self, monkeypatch, capsys):
        monkeypatch.setenv("QPRENEX_SEED", "abc")
        assert run(["gen"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: QPRENEX_SEED must be an integer, got 'abc'\n"

    def test_generated_parse_and_transform(self, tmp_path, capsys):
        for seed in range(10):
            out = str(tmp_path / f"g{seed}.fqbf")
            run(["gen", "--seed", str(seed), "--out", out])
            assert run(["prenex", out, "--out", str(tmp_path / "o.fqbf")]) == 0

    def test_generated_corpus_within_bounds(self):
        # The generator's contract at scale, checked at library level: every
        # problem prints, re-parses, and transforms within the length bound.
        import random

        from qprenex.core import FreshGen, Kind, length
        from qprenex.generate import random_problem
        from qprenex.parser import format_problem
        from qprenex.transform import prenex

        rng = random.Random(424242)
        for _ in range(10_000):
            problem = random_problem(rng)
            assert parse(format_problem(problem)).formula == problem.formula
            result = prenex(
                Kind.EXISTS, problem.formula, FreshGen.for_formula(problem.formula)
            )
            assert length(result) <= 9 * length(problem.formula)


class TestBenchCommand:
    def test_table_and_csv(self, tmp_path, capsys):
        csv_path = str(tmp_path / "bench.csv")
        assert run(["bench", "--max-k", "4", "--corpus", "2",
                    "--out", csv_path]) == 0
        out = capsys.readouterr().out
        assert "nested_iff_4" in out
        assert "tr_ratio" in out
        header = (tmp_path / "bench.csv").read_text().splitlines()[0]
        assert header.startswith("name,input_length,tr_length")

    def test_budget_marker(self, tmp_path, capsys):
        assert run(["bench", "--max-k", "8", "--corpus", "0",
                    "--budget", "50"]) == 0
        out = capsys.readouterr().out
        assert "BUDGET" in out

    def test_nothing_to_measure_is_an_input_error(self, capsys):
        assert run(["bench", "--max-k", "0", "--corpus", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: nothing to measure")
        assert captured.err.count("\n") == 1
