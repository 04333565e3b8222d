"""Tests for the command-line interface."""

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import COMMANDS, build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list[list[str]]:
    """The arguments of every ``python -m repro ...`` line in README's bash
    blocks: ``\\`` continuations joined, comments, a trailing ``&`` and
    literal ``...`` elisions dropped."""
    commands = []
    for block in re.findall(r"```bash\n(.*?)```", README.read_text(), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:3] != ["python", "-m", "repro"]:
                continue
            if words[-1] == "&":
                words.pop()
            commands.append([word for word in words[3:] if word != "..."])
    return commands


class TestParser:
    # commands with required arguments: the minimal invocation that parses
    REQUIRED = {
        "replay": ["0" * 64, "--store-dir", "runs"],
        "store": ["ls", "--store-dir", "runs"],
        "experiment": ["ls"],
    }

    def test_all_commands_registered(self):
        parser = build_parser()
        for name in COMMANDS:
            args = parser.parse_args([name, *self.REQUIRED.get(name, [])])
            assert args.command == name

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.fitness == "mBF6_2"
        assert args.pop == 64
        assert args.seed == "0x061F"

    def test_readme_commands_parse(self):
        # a README example naming a deleted or misspelt flag fails here
        commands = readme_commands()
        assert len(commands) >= 20
        parser = build_parser()
        for argv in commands:
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"README command does not parse: {shlex.join(argv)}")


def assert_request_error(exc, capsys, message: str) -> None:
    """An illegal request ends the command with status 2 and one
    ``error:`` line on stderr, not a traceback."""
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table5" in out and "speedup" in out

    def test_run_behavioural(self, capsys):
        rc = main([
            "run", "--fitness", "F3", "--pop", "16", "--gens", "8",
            "--seed", "45890",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "F3: best" in out and "optimum 3060" in out

    def test_run_cycle_accurate(self, capsys):
        rc = main([
            "run", "--fitness", "F2", "--pop", "8", "--gens", "4",
            "--seed", "10593", "--cycle-accurate",
        ])
        assert rc == 0
        assert "GA cycles" in capsys.readouterr().out

    def test_run_hex_seed(self, capsys):
        assert main(["run", "--fitness", "F3", "--pop", "8", "--gens", "2",
                     "--seed", "0xB342"]) == 0

    def test_run_islands_matches_direct_engine(self, capsys):
        from repro import GAParameters, fitness_by_name
        from repro.parallel import VectorIslandGA

        rc = main([
            "run", "--fitness", "mBF6_2", "--pop", "16", "--gens", "18",
            "--seed", "45890", "--islands", "4", "--migration-interval",
            "4", "--topology", "torus",
        ])
        assert rc == 0
        direct = VectorIslandGA(
            GAParameters(
                n_generations=18, population_size=16, crossover_threshold=10,
                mutation_threshold=1, rng_seed=45890,
            ),
            fitness_by_name("mBF6_2"), n_islands=4, migration_interval=4,
            topology="torus",
        ).run()
        out = capsys.readouterr().out
        assert (
            f"best {direct.best_fitness} at {direct.best_individual}" in out
        )
        assert "4 islands/torus" in out
        assert f", {direct.migrations} migrations, " in out
        assert f", {direct.evaluations} evaluations" in out

    def test_run_islands_rejects_over_large_fan_in(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--pop", "4", "--gens", "4", "--islands", "8",
                  "--topology", "random:4"])
        assert_request_error(
            exc, capsys,
            "topology fan-in 4 would replace a whole population of 4",
        )

    def test_run_store_dir_caches_cycle_accurate_runs(self, capsys, tmp_path):
        argv = [
            "run", "--fitness", "F2", "--pop", "8", "--gens", "4",
            "--seed", "10593", "--cycle-accurate", "--store-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "computed cold" in cold and "cache hit" in warm
        best = cold.split(" (optimum")[0]
        assert warm.startswith(best) and "best" in best

    def test_run_islands_cycle_accurate_is_the_requests_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--pop", "8", "--gens", "4", "--islands", "2",
                  "--cycle-accurate"])
        assert_request_error(
            exc, capsys, "substrate 'cycle' jobs cannot be islands"
        )

    def test_submit_illegal_request_fails_before_connecting(self, capsys):
        # no server listens on the port: the request is refused first
        with pytest.raises(SystemExit) as exc:
            main(["submit", "--port", "1", "--upset-rate", "0.05"])
        assert_request_error(
            exc, capsys, "upset_rate 0.05 needs a protection preset"
        )

    def test_table6(self, capsys):
        assert main(["table6"]) == 0
        out = capsys.readouterr().out
        assert "Table VI" in out and "Clock (MHz)" in out

    def test_fig7(self, capsys):
        assert main(["fig7"]) == 0
        assert "Fig. 7" in capsys.readouterr().out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Proposed" in out
