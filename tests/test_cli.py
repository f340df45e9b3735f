"""Command line behavior: exit codes, output files, golden transcripts."""
import os
import pathlib
import subprocess
import sys

import pytest

from cryptocubic.cli import build_parser, main
from cryptocubic.store import OP_GRANT, OP_INSERT, OP_TAKE, replay_journal

SCENARIOS_DIR = pathlib.Path("scenarios")
GOLDEN_DIR = SCENARIOS_DIR / "golden"

CORE = "setup A\nfund A 1000\ntransfer A B\nredeem B ext 1000\n"


@pytest.fixture
def script(tmp_path):
    def write(text):
        path = tmp_path / "script.scen"
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


class TestExitCodes:
    def test_clean_run_exits_zero(self, script, capsys):
        assert main([script(CORE)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("== 1. ")

    def test_failed_expectation_exits_one(self, script, capsys):
        code = main([script(CORE + "expect-verdict post_transfer_grab true\n")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("FAIL ")
        assert "verdict is false" in err

    def test_command_error_exits_one(self, script, capsys):
        code = main([script("transfer a b\n")])
        assert code == 1
        assert "UnknownSquare" in capsys.readouterr().err
        # the former owner's redemption cannot open the new owner's cypher
        path = script("setup A\nfund A 1000\ntransfer A B\nredeem A ext 1000\n")
        for backend in ("symbolic", "concrete"):
            code = main([path, "--mode", "bare4", "--backend", backend])
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith("FAIL redeem A ext")
            assert "KeyMismatch" in err
            assert "Traceback" not in err

    def test_expectation_on_an_unmet_party_exits_one(self, script):
        proc = subprocess.run(
            [sys.executable, "-m", "cryptocubic.cli", script("setup A\nexpect-holdings B Es\n")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr == "FAIL expect-holdings B Es: holdings are []\n"

    @pytest.mark.parametrize(
        "text,position",
        [("trnsfer A B\n", "line 1, column 1"), ("fund A ²\n", "line 1, column 8")],
        ids=["unknown-command", "superscript-amount"],
    )
    def test_syntax_error_exits_two(self, text, position, script, capsys):
        code = main([script(text)])
        assert code == 2
        err = capsys.readouterr().err
        assert position in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("content", [None, b"setup a\xff\n"], ids=["absent", "not-utf8"])
    def test_missing_file_exits_two(self, content, tmp_path, capsys):
        path = tmp_path / "bad.scen"
        if content is not None:
            path.write_bytes(content)
        assert main([str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cannot read {path}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--journal", "--trace", "--ledger"])
    def test_unwritable_output_path_exits_two(self, flag, script, tmp_path, capsys):
        target = tmp_path / "missing" / "out.txt"
        assert main([script(CORE), flag, str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cannot write {target}: ")
        assert err.count("\n") == 1


class TestOutputs:
    def test_quiet_drops_tables_keeps_verdicts(self, script, capsys):
        path = script(CORE + "attack store_raid\n")
        assert main([path, "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "== 1." not in out
        assert out.startswith("verdict: store_raid cryptocubic false [0]")

    def test_trace_file_matches_stdout_tables(self, script, tmp_path, capsys):
        trace = tmp_path / "trace.txt"
        assert main([script(CORE), "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert trace.read_text() == out

    def test_ledger_dump(self, script, tmp_path, capsys):
        ledger = tmp_path / "ledger.txt"
        assert main([script(CORE), "--ledger", str(ledger)]) == 0
        capsys.readouterr()
        lines = ledger.read_text().splitlines()
        assert lines[0].endswith(" 0")  # the square address, drained
        assert lines[1] == "ext 1000"

    def test_journal_replays(self, script, tmp_path, capsys):
        journal = tmp_path / "store.journal"
        assert main([script(CORE), "--journal", str(journal)]) == 0
        capsys.readouterr()
        records = replay_journal(str(journal))
        # one slot, drained by the redeem
        slot = records[0].slot_id
        assert [(r.op, r.slot_id) for r in records] == [
            (OP_GRANT, slot), (OP_INSERT, slot), (OP_TAKE, slot), (OP_INSERT, slot), (OP_TAKE, slot),
        ]

    def test_deterministic_stdout(self, script, capsys):
        path = script(CORE + "attack wiretap_passive\n")
        assert main([path]) == 0
        first = capsys.readouterr().out
        assert main([path]) == 0
        assert capsys.readouterr().out == first

    def test_backend_flag_does_not_change_output(self, script, capsys):
        path = script(CORE)
        assert main([path, "--backend", "symbolic"]) == 0
        symbolic = capsys.readouterr().out
        assert main([path, "--backend", "concrete"]) == 0
        assert capsys.readouterr().out == symbolic


class TestGoldenTranscripts:
    @pytest.mark.parametrize("mode", ["baseline3", "bare4", "cryptocubic"])
    def test_bundled_scenario_matches_golden(self, mode, capsys):
        assert main([str(SCENARIOS_DIR / f"{mode}.scen"), "--mode", mode]) == 0
        out = capsys.readouterr().out
        golden = (GOLDEN_DIR / f"{mode}.txt").read_text()
        assert out == golden

    @pytest.mark.parametrize("hash_seed", ["1", "4093"])
    def test_bundled_scenarios_do_not_depend_on_the_hash_seed(self, hash_seed):
        # terms hash by identity, so set order follows object addresses and
        # not PYTHONHASHSEED; either way the transcript must not move
        env = {**os.environ, "PYTHONHASHSEED": hash_seed}
        for mode in ("baseline3", "bare4", "cryptocubic"):
            proc = subprocess.run(
                [sys.executable, "-m", "cryptocubic.cli", str(SCENARIOS_DIR / f"{mode}.scen"),
                 "--mode", mode],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout == (GOLDEN_DIR / f"{mode}.txt").read_text(), (mode, hash_seed)

    def test_readme_quick_start_output_is_golden(self):
        # the second fenced block of the quick start is an excerpt of the
        # canonical transcript; "..." stands for the lines left out
        quick_start = pathlib.Path("README.md").read_text().split("## Quick start", 1)[1]
        excerpt = quick_start.split("```")[3].strip("\n").splitlines()
        golden = set((GOLDEN_DIR / "cryptocubic.txt").read_text().splitlines())
        assert excerpt[0].startswith("== 1. ")
        assert [line for line in excerpt if line != "..." and line not in golden] == []


class TestWithoutCryptography:
    # a missing `cryptography` package, as the import system sees it
    RUN = "import sys; sys.modules['cryptography'] = None\nfrom cryptocubic.cli import main\nsys.exit(main(sys.argv[1:]))"

    def run(self, *args):
        return subprocess.run([sys.executable, "-c", self.RUN, *args], capture_output=True, text=True)

    def test_symbolic_backend_needs_no_cryptography(self):
        proc = self.run(str(SCENARIOS_DIR / "cryptocubic.scen"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (GOLDEN_DIR / "cryptocubic.txt").read_text()

    def test_concrete_backend_without_cryptography_exits_two(self):
        proc = self.run(str(SCENARIOS_DIR / "cryptocubic.scen"), "--backend", "concrete")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "the concrete backend needs the cryptography package\n"


    def test_one_parser_serves_every_call(self, script, capsys):
        # usage errors and --help leave the shared parser as it was
        assert build_parser() is build_parser()
        for _ in range(2):
            with pytest.raises(SystemExit) as exit_info:
                main(["--help"])
            assert exit_info.value.code == 0
            assert capsys.readouterr().out.startswith("usage: cryptocubic [-h]")
            for argv in ([], [script(CORE), "--mode", "nope"], [script(CORE), "--seed", "x"]):
                with pytest.raises(SystemExit) as exit_info:
                    main(argv)
                assert exit_info.value.code == 2
                assert capsys.readouterr().err.startswith("usage: cryptocubic [-h]")
            assert main([script(CORE), "--quiet"]) == 0

    def test_missing_backend_package_exits_two_with_one_line(self, script, monkeypatch, capsys):
        missing = "the concrete backend needs the cryptography package"
        monkeypatch.setattr("cryptocubic.backend._missing", missing)
        assert main([script(CORE), "--backend", "concrete"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == missing + "\n"


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cryptocubic.cli", str(SCENARIOS_DIR / "cryptocubic.scen")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("== 1. ")
