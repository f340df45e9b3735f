"""Command line behavior: exit codes, output files, golden transcripts."""
import os
import pathlib
import subprocess
import sys

import pytest

from cryptocubic import cli, protocol
from cryptocubic.adversary import run_attack
from cryptocubic.cli import build_parser, main
from cryptocubic.protocol import StepRecord
from cryptocubic.scenario import parse_scenario, run_scenario
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

    @pytest.mark.parametrize("content", [None, b"setup a\xff\n", b"\xef\xbb\xbfsetup a\xff\n"],
                             ids=["absent", "not-utf8", "marked-not-utf8"])
    def test_missing_file_exits_two(self, content, tmp_path, capsys):
        path = tmp_path / "bad.scen"
        if content is not None:
            path.write_bytes(content)
        assert main([str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cannot read {path}: ")
        assert err.count("\n") == 1

    def test_a_utf8_byte_order_mark_is_read_past(self, tmp_path, capsys):
        plain, marked = tmp_path / "plain.scen", tmp_path / "marked.scen"
        plain.write_text(CORE, encoding="utf-8")
        marked.write_text(CORE, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbfsetup")
        assert main([str(plain)]) == 0
        expected = capsys.readouterr()
        assert main([str(marked)]) == 0
        assert capsys.readouterr() == expected

    @pytest.mark.parametrize("flag", ["--journal", "--trace", "--ledger"])
    def test_unwritable_output_path_exits_two(self, flag, script, tmp_path, capsys):
        target = tmp_path / "missing" / "out.txt"
        assert main([script(CORE), flag, str(target)]) == 2
        out, err = capsys.readouterr()
        assert err.startswith(f"cannot write {target}: ")
        assert err.count("\n") == 1
        # the journal and trace files are opened before the run prints a table,
        # the ledger only after it
        assert (out == "") == (flag != "--ledger")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
    @pytest.mark.parametrize("text", ["setup A\n", CORE * 3], ids=["on-close", "mid-run"])
    def test_a_trace_file_that_fills_up_exits_two(self, text, script, capsys):
        # a short trace fails as the file closes, a long one while the run writes it
        assert main([script(text), "--trace", "/dev/full"]) == 2
        assert capsys.readouterr().err.startswith("cannot write /dev/full: ")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    def test_a_journal_that_fills_up_names_the_journal(self, traced, script, tmp_path, capsys):
        # the journal opens at set-up but fails on its first record, after the trace opened
        trace = ["--trace", str(tmp_path / "trace.txt")] if traced else []
        assert main([script(CORE), "--journal", "/dev/full", *trace]) == 2
        err = capsys.readouterr().err
        assert err == "cannot write /dev/full: No space left on device\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
    @pytest.mark.parametrize("buffered",[False, True], ids=["as-set", "buffered"])
    def test_a_full_standard_output_exits_two(self, buffered, script):
        # without PYTHONUNBUFFERED a short run's output waits in the buffer
        # for the flush at exit, which must find nothing left to write
        env = {k: v for k, v in os.environ.items() if not (buffered and k == "PYTHONUNBUFFERED")}
        path = script("setup a\n") if buffered else str(SCENARIOS_DIR / "cryptocubic.scen")
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "cryptocubic.cli", path],
                                  stdout=full, stderr=subprocess.PIPE, text=True, env=env)
        assert (proc.returncode, proc.stderr) == (
            2, "cannot write standard output: No space left on device\n")

    def test_a_standard_output_closed_mid_run_exits_two(self, script):
        # the run prints far more than a pipe holds, so it writes after the reader has gone
        path = script("setup A\nfund A 1000\n" + "transfer A B\ntransfer B A\n" * 5)
        with subprocess.Popen([sys.executable, "-m", "cryptocubic.cli", path],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
            assert proc.stdout.read(100).startswith("== 1. ")
            proc.stdout.close()
            err = proc.stderr.read()
        assert (proc.returncode, err) == (2, "cannot write standard output: Broken pipe\n")

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs a listing of open descriptors")
    def test_a_failed_standard_output_leaves_no_descriptor_open(self, monkeypatch):
        read, write = os.pipe()
        os.close(read)  # every write to the pipe now fails
        with open(write, "w") as broken:
            monkeypatch.setattr(sys, "stdout", broken)
            before = len(os.listdir("/proc/self/fd"))
            broken.write("lost")
            with pytest.raises(BrokenPipeError) as failed:
                cli._stdout(broken.flush)
            assert failed.value.filename == "standard output"
            assert len(os.listdir("/proc/self/fd")) == before
            monkeypatch.undo()


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


class TestQuietRunsRecordNothing:
    @pytest.mark.parametrize("backend", ["symbolic", "concrete"])
    @pytest.mark.parametrize("mode", ["baseline3", "bare4", "cryptocubic"])
    @pytest.mark.parametrize("name", ["baseline3", "bare4", "cryptocubic"])
    def test_a_quiet_run_writes_the_same_bytes_unrecorded(self, name, mode, backend, tmp_path,
                                                          monkeypatch, capsys):
        # --trace makes a quiet run render its tables; either way none is kept
        sims, outputs = {}, {}

        def run(script, **kwargs):
            result = run_scenario(script, **kwargs)
            sims[bool(kwargs["trace"])] = result.sim
            return result

        monkeypatch.setattr(cli, "run_scenario", run)
        for traced in (True, False):
            ledger, journal = tmp_path / f"{traced}.ledger", tmp_path / f"{traced}.journal"
            argv = [str(SCENARIOS_DIR / f"{name}.scen"), "--mode", mode, "--backend", backend,
                    "--quiet", "--ledger", str(ledger), "--journal", str(journal)]
            code = main(argv + (["--trace", str(tmp_path / "trace.txt")] if traced else []))
            outputs[traced] = code, capsys.readouterr(), ledger.read_bytes(), journal.read_bytes()
        assert outputs[False] == outputs[True]
        assert sims[True].steps and sims[True].events == sims[True].step_records == []
        assert sims[False].events == sims[False].step_records == []


class TestStreamedRunsRecordNothing:
    @pytest.mark.parametrize("flags", [[], ["--quiet", "--trace"], ["--quiet"]],
                             ids=["default", "quiet-traced", "quiet"])
    def test_a_streamed_run_builds_no_step_record(self, flags, script, tmp_path, monkeypatch,
                                                  capsys):
        built, sims = [], []

        def counted(*args):
            built.append(args)
            return StepRecord(*args)

        def run(script, **kwargs):
            result = run_scenario(script, **kwargs)
            sims.append(result.sim)
            return result

        monkeypatch.setattr(protocol, "StepRecord", counted)
        monkeypatch.setattr(cli, "run_scenario", run)
        path = script(CORE + "attack store_raid\n")
        argv = [path, *flags] + ([str(tmp_path / "trace.txt")] if "--trace" in flags else [])
        assert main(argv) == 0
        capsys.readouterr()
        (sim,) = sims
        assert sim.steps and built == []
        assert sim.events == sim.step_records == []
        # the same script unstreamed records a step record for every step
        kept = run_scenario(parse_scenario(CORE + "attack store_raid\n")).sim
        assert len(built) == len(kept.step_records) == kept.steps == sim.steps


class TestGoldenTranscripts:
    @pytest.mark.parametrize("mode", ["baseline3", "bare4", "cryptocubic"])
    def test_bundled_scenario_matches_golden(self, mode, capsys):
        assert main([str(SCENARIOS_DIR / f"{mode}.scen"), "--mode", mode]) == 0
        out = capsys.readouterr().out
        golden = (GOLDEN_DIR / f"{mode}.txt").read_text()
        assert out == golden

    @pytest.mark.parametrize("backend", ["symbolic", "concrete"])
    @pytest.mark.parametrize("mode", ["baseline3", "bare4", "cryptocubic"])
    def test_a_journalled_run_judges_as_each_attack_alone(self, mode, backend, tmp_path, capsys):
        # its attacks go on from forks of the journalled run, which journal nothing
        path = SCENARIOS_DIR / f"{mode}.scen"
        argv = [str(path), "--mode", mode, "--backend", backend, "--journal", str(tmp_path / "journal")]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out == (GOLDEN_DIR / f"{mode}.txt").read_text()
        expected = []
        for cmd in parse_scenario(path.read_text()).commands:
            if cmd[0] == "attack":
                verdict = run_attack(cmd[1], mode, backend)
                expected += [f"verdict: {verdict.report_line()}", *(f"  note: {n}" for n in verdict.notes)]
        assert [line for line in out.splitlines() if line.startswith(("verdict: ", "  note: "))] == expected

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
