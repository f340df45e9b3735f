"""Scenario script parsing, pretty-printing, and the script runner."""
import inspect
import pathlib
import re
import string
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryptocubic import protocol, scenario
from cryptocubic.adversary import SCENARIOS, run_attack
from cryptocubic.protocol import Simulation
from cryptocubic.scenario import GRAMMAR, ScenarioSyntaxError, parse_scenario, pretty, run_scenario
from cryptocubic.trace import render_table

CORE = """\
setup A
fund A 1000
transfer A B
redeem B ext 1000
"""


class TestParsing:
    def test_core_script(self):
        script = parse_scenario(CORE)
        assert script.commands == [
            ("setup", "A"),
            ("fund", "A", 1000),
            ("transfer", "A", "B"),
            ("redeem", "B", "ext", 1000),
        ]

    def test_empty_script_is_valid(self):
        assert parse_scenario("").commands == []
        assert parse_scenario("\n\n# only a comment\n").commands == []

    def test_comments_and_case(self):
        script = parse_scenario("setup a  # establish\n  transfer a b\n")
        assert script.commands == [("setup", "A"), ("transfer", "A", "B")]

    def test_expectation_commands(self):
        script = parse_scenario(
            "expect-holdings B Es,ADD\n"
            "expect-verdict store_raid false\n"
            "attack wiretap_passive\n"
        )
        assert script.commands == [
            ("expect-holdings", "B", ("Es", "ADD")),
            ("expect-verdict", "store_raid", False),
            ("attack", "wiretap_passive"),
        ]

    @pytest.mark.parametrize(
        "party_token,expected", [("b", "B"), ("USER_B", "B"), ("SERVER_S", "S")]
    )
    def test_party_spellings(self, party_token, expected):
        script = parse_scenario(f"expect-holdings {party_token} x\n")
        assert script.commands[0][1] == expected

    def test_unknown_command_position(self):
        with pytest.raises(ScenarioSyntaxError) as err:
            parse_scenario("trnsfer A B\n")
        assert err.value.line == 1
        assert err.value.column == 1
        assert "unknown command" in err.value.message

    # "ß" upper-cases to "SS", which the printer could not give back; the
    # Kelvin and Ohm signs lower-case to "k" and "ω", the key names of "K" and "Ω"
    @pytest.mark.parametrize(
        "text,position",
        [("setup a\nfund S 10\n", (2, 6)), ("setup ß\n", (1, 7)),
         ("setup k\nsetup \u212a\n", (2, 7)), ("setup \u2126\n", (1, 7))],
        ids=["server", "sharp-s", "kelvin", "ohm"],
    )
    def test_bad_user_position(self, text, position):
        with pytest.raises(ScenarioSyntaxError) as err:
            parse_scenario(text)
        assert (err.value.line, err.value.column) == position

    # S names the server, so no user is called USER_S
    @pytest.mark.parametrize("party", ["12", "USER_S", "\u212a", "USER_\u2126"])
    def test_bad_party_position(self, party):
        with pytest.raises(ScenarioSyntaxError) as err:
            parse_scenario(f"expect-holdings {party} Es\n")
        assert str(err.value) == f"line 1, column 17: expected a party, got {party!r}"

    # "²" is a digit that int() does not read
    @pytest.mark.parametrize(
        "text,position",
        [("fund a 0\n", (1, 8)), ("fund A ²\n", (1, 8)), ("redeem A ext 1²\n", (1, 14))],
        ids=["zero", "superscript", "superscript-tail"],
    )
    def test_bad_amount_position(self, text, position):
        with pytest.raises(ScenarioSyntaxError) as err:
            parse_scenario(text)
        assert (err.value.line, err.value.column) == position

    @pytest.mark.parametrize(
        "line", ["setup", "setup a b", "fund a", "transfer a", "redeem a ext"]
    )
    def test_arity_errors(self, line):
        with pytest.raises(ScenarioSyntaxError) as err:
            parse_scenario(line + "\n")
        assert "takes" in err.value.message

    def test_unknown_attack_scenario(self):
        with pytest.raises(ScenarioSyntaxError) as err:
            parse_scenario("attack teleport\n")
        assert "unknown attack scenario" in err.value.message

    def test_bad_verdict_flag(self):
        with pytest.raises(ScenarioSyntaxError) as err:
            parse_scenario("expect-verdict store_raid maybe\n")
        assert "true or false" in err.value.message

    def test_empty_holdings_list(self):
        with pytest.raises(ScenarioSyntaxError):
            parse_scenario("expect-holdings B ,\n")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            parse_scenario(CORE, mode="quantum")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            parse_scenario(CORE, backend="bogus")


def _words(head, *args):
    return st.tuples(st.just(head), *args).map(" ".join)


# a few accepted letters beyond ASCII: "ǅ" prints as "Ǆ"
_user = st.sampled_from([c for c in string.ascii_letters if c not in "sS"] + list("éÉσΣǅǆ"))
_party = st.one_of(
    st.sampled_from(string.ascii_letters),
    st.builds("{}_{}".format, st.sampled_from(["USER", "user"]), _user),
    st.sampled_from(["SERVER_S", "server_s"]),
)
_cents = st.builds("{}{}".format, st.sampled_from(["", "0", "00"]), st.integers(1, 10**12))
_token = st.text(alphabet=string.ascii_letters + string.digits + "_'.-()[]", min_size=1, max_size=8)
_items = st.lists(st.one_of(st.just(""), _token), min_size=1, max_size=5).filter(any).map(",".join)
_scenario = st.sampled_from(sorted(SCENARIOS))
_flag = st.sampled_from(["true", "false", "TRUE", "FALSE", "True", "False"])
_command_line = st.one_of(
    _words("setup", _user),
    _words("fund", _user, _cents),
    _words("transfer", _user, _user),
    _words("redeem", _user, _token, _cents),
    _words("attack", _scenario),
    _words("expect-holdings", _party, _items),
    _words("expect-verdict", _scenario, _flag),
)


def printed(script):
    return "".join(pretty(cmd) + "\n" for cmd in script.commands)


class TestPretty:
    @settings(max_examples=300, deadline=None)
    @given(lines=st.lists(_command_line, max_size=12))
    def test_parse_pretty_fixed_point(self, lines):
        script = parse_scenario("".join(line + "\n" for line in lines))
        assert len(script.commands) == len(lines)
        text = printed(script)
        assert parse_scenario(text).commands == script.commands
        assert printed(parse_scenario(text)) == text

    def test_bundled_scripts_round_trip(self):
        for path in sorted(pathlib.Path("scenarios").glob("*.scen")):
            script = parse_scenario(path.read_text())
            assert parse_scenario(printed(script)).commands == script.commands


class TestGrammarReaders:
    """`GRAMMAR` is the one statement of each command's arguments; these
    fail when a text or a method that follows it drifts away."""

    def test_module_docstring_lists_each_head_with_one_placeholder_per_argument(self):
        listed = {}
        for line in scenario.__doc__.splitlines():
            words = line.split()
            if words and words[0] in GRAMMAR:
                listed[words[0]] = len(re.findall(r"<[^>]*>", line))
        assert listed == {head: len(checkers) for head, checkers in GRAMMAR.items()}

    def test_readme_scenario_block_shows_each_head(self):
        readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("## Scenario scripts", 1)[1].split("```", 2)[1]
        assert {cmd[0] for cmd in parse_scenario(block).commands} == set(GRAMMAR)

    def test_each_user_argument_is_the_librarys_letter_rule(self):
        # the rule lives in protocol alone, so a script and a library call
        # refuse the same letters; a copy of it here would drift
        for line in scenario.__doc__.splitlines():
            words = line.split()
            if words and words[0] in GRAMMAR:
                for word, check in zip(words[1:], GRAMMAR[words[0]]):
                    assert (check is protocol.user_letter) == (word in ("<user>", "<from>", "<to>"))
        source = inspect.getsource(scenario)
        assert "isalpha" not in source and ".lower().upper()" not in source

    def test_each_checker_takes_only_its_token(self):
        # parse_scenario alone adds the line and column to a checker's message
        for checkers in GRAMMAR.values():
            for check in checkers:
                assert check is str or len(inspect.signature(check).parameters) == 1, check

    @pytest.mark.parametrize(
        "head", [h for h in GRAMMAR if h != "attack" and not h.startswith("expect-")]
    )
    def test_simulation_method_takes_the_heads_arguments(self, head):
        # run_scenario calls the Simulation method of the head's name with its values
        params = inspect.signature(getattr(Simulation, head)).parameters.values()
        positional = [p for p in params if p.kind is p.POSITIONAL_OR_KEYWORD]
        assert len(positional) - 1 == len(GRAMMAR[head])  # less self


class TestRunner:
    def test_core_run_succeeds(self):
        result = run_scenario(parse_scenario(CORE))
        assert result.ok
        assert result.failures == []
        assert result.output.startswith("== 1. ")
        assert result.sim.ledger.balance("ext") == 1000

    @pytest.mark.parametrize("quiet", [False, True], ids=["tables", "quiet"])
    def test_a_run_without_a_writer_records_every_step(self, quiet):
        sim = run_scenario(parse_scenario(CORE + "attack store_raid\n"), quiet=quiet).sim
        assert sim.steps and len(sim.events) == len(sim.step_records) == sim.steps

    def test_quiet_run_keeps_verdict_lines(self):
        text = CORE + "attack store_raid\n"
        result = run_scenario(parse_scenario(text), quiet=True)
        assert result.ok
        assert result.output == "verdict: store_raid cryptocubic false [0]\n" \
            "  note: slot contents are cyphers under keys the raider lacks\n"

    def test_holdings_expectation_checks_base_names(self):
        text = CORE + "expect-holdings B Es,ADD,Kb,Kb_Public,Et_B,Token_B2,Hash,Hash2,Et_B',Token_B'2\n"
        result = run_scenario(parse_scenario(text))
        assert result.ok, result.failures

    def test_failed_holdings_expectation(self):
        # a party the run has not met holds nothing
        for text in (CORE + "expect-holdings B Es\n", "setup A\nexpect-holdings B Es\n"):
            result = run_scenario(parse_scenario(text))
            assert not result.ok
            assert "holdings are" in result.failures[0]
        assert result.failures == ["expect-holdings B Es: holdings are []"]

    def test_failed_verdict_expectation(self):
        text = CORE + "expect-verdict post_transfer_grab true\n"
        result = run_scenario(parse_scenario(text))
        assert not result.ok
        assert "verdict is false" in result.failures[0]

    def test_command_error_halts_the_script(self):
        # no square exists yet, so the transfer errors and nothing after runs
        text = "transfer a b\nsetup a\n"
        result = run_scenario(parse_scenario(text))
        assert not result.ok
        assert "UnknownSquare" in result.failures[0]
        assert result.sim.squares == {}

    def test_overdraft_redeem_reports_not_crashes(self):
        text = "setup A\nfund A 100\ntransfer A B\nredeem B ext 500\n"
        result = run_scenario(parse_scenario(text))
        assert not result.ok
        assert "InsufficientFunds" in result.failures[0]

    def test_verdicts_computed_once_per_scenario(self):
        text = CORE + "attack store_raid\nexpect-verdict store_raid false\n"
        result = run_scenario(parse_scenario(text))
        assert result.ok
        assert set(result.verdicts) == {"store_raid"}

    def test_run_is_deterministic(self):
        text = CORE + "attack post_transfer_grab\n"
        first = run_scenario(parse_scenario(text))
        second = run_scenario(parse_scenario(text))
        assert first.output == second.output

    def test_backends_agree_on_output(self):
        for backend in ("symbolic", "concrete"):
            result = run_scenario(parse_scenario(CORE, backend=backend))
            assert result.ok
        symbolic = run_scenario(parse_scenario(CORE, backend="symbolic")).output
        concrete = run_scenario(parse_scenario(CORE, backend="concrete")).output
        assert symbolic == concrete


def joined_then_stripped(script, quiet=False):
    """The output as `run_scenario` once assembled it: every table and
    verdict chunk joined, the newlines at the end of the whole stripped, and
    one newline added back."""
    commands = script.commands
    events = run_scenario(script, quiet=True).sim.events
    chunks, shown = [], 0
    for i, cmd in enumerate(commands):
        if cmd[0] == "attack":
            verdict = run_attack(cmd[1], script.mode, script.backend, script.seed)
            chunks.append(f"verdict: {verdict.report_line()}\n")
            chunks += [f"  note: {note}\n" for note in verdict.notes]
        upto = len(run_scenario(replace(script, commands=commands[: i + 1]), quiet=True).sim.events)
        if not quiet:
            chunks += [render_table(event) + "\n\n" for event in events[shown:upto]]
        shown = upto
    output = "".join(chunks)
    return output.rstrip("\n") + "\n" if output else ""


OUTPUT_CASES = pytest.mark.parametrize("text, quiet, ends_on", [
    ("setup A\nfund A 1000\nattack store_raid\ntransfer A B\n", False, "table"),
    (CORE + "attack post_transfer_grab\n", False, "verdict: "),
    (CORE + "attack store_raid\n", False, "  note: "),
    (CORE + "attack store_raid\n", True, "  note: "),
    (CORE, True, None),
    ("", False, None),
], ids=["table", "verdict", "note", "quiet", "quiet-no-verdict", "empty"])


class TestOutputAssembly:
    @OUTPUT_CASES
    def test_bytes_equal_the_joined_then_stripped_output(self, text, quiet, ends_on):
        script = parse_scenario(text)
        output = run_scenario(script, quiet=quiet).output
        assert output == joined_then_stripped(script, quiet)
        if ends_on is None:
            assert output == ""
        elif ends_on == "table":
            assert output.rsplit("\n\n", 1)[-1].startswith("== ")
        else:
            assert output.splitlines()[-1].startswith(ends_on)

    @OUTPUT_CASES
    def test_a_streamed_run_writes_each_table_before_the_next_command(self, text, quiet, ends_on,
                                                                       monkeypatch):
        script = parse_scenario(text)
        kept = run_scenario(script, quiet=quiet)
        written, traced, starts = [], [], []

        def watched(head):
            def command(sim, *args):
                tables = [sum(chunk.startswith("== ") for chunk in out) for out in (written, traced)]
                starts.append((sim.steps, *tables, len(sim.events)))
                return getattr(Simulation, head)(sim, *args)
            return command

        watching = type("Watching", (Simulation,), {
            head: watched(head) for head in ("setup", "fund", "transfer", "redeem")})
        monkeypatch.setattr(scenario, "Simulation", watching)
        streamed = run_scenario(script, quiet=quiet, write=written.append, trace=traced.append)
        assert "".join(written) == kept.output and streamed.output == ""
        assert "".join(traced) == kept.sim.render()
        # as each command starts, every earlier step has gone out and none is kept
        assert [(steps, 0 if quiet else steps, steps, 0) for steps, *_ in starts] == starts
        assert len(starts) == sum(cmd[0] in ("setup", "fund", "transfer", "redeem") for cmd in script.commands)
        assert streamed.sim.events == [] and streamed.sim.steps == len(kept.sim.events)
