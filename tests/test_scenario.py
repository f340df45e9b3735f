"""Scenario script parsing, pretty-printing, and the script runner."""
import string
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryptocubic.adversary import SCENARIOS, run_attack
from cryptocubic.scenario import (
    Attack,
    ExpectHoldings,
    ExpectVerdict,
    Fund,
    Redeem,
    ScenarioSyntaxError,
    Setup,
    Transfer,
    parse_scenario,
    run_scenario,
)
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
            Setup("A"),
            Fund("A", 1000),
            Transfer("A", "B"),
            Redeem("B", "ext", 1000),
        ]

    def test_empty_script_is_valid(self):
        assert parse_scenario("").commands == []
        assert parse_scenario("\n\n# only a comment\n").commands == []

    def test_comments_and_case(self):
        script = parse_scenario("setup a  # establish\n  transfer a b\n")
        assert script.commands == [Setup("A"), Transfer("A", "B")]

    def test_expectation_commands(self):
        script = parse_scenario(
            "expect-holdings B Es,ADD\n"
            "expect-verdict store_raid false\n"
            "attack wiretap_passive\n"
        )
        assert script.commands == [
            ExpectHoldings("B", ("Es", "ADD")),
            ExpectVerdict("store_raid", False),
            Attack("wiretap_passive"),
        ]

    @pytest.mark.parametrize(
        "party_token,expected", [("b", "B"), ("USER_B", "B"), ("SERVER_S", "S")]
    )
    def test_party_spellings(self, party_token, expected):
        script = parse_scenario(f"expect-holdings {party_token} x\n")
        assert script.commands[0].party == expected

    def test_unknown_command_position(self):
        with pytest.raises(ScenarioSyntaxError) as err:
            parse_scenario("trnsfer A B\n")
        assert err.value.line == 1
        assert err.value.column == 1
        assert "unknown command" in err.value.message

    def test_bad_user_position(self):
        with pytest.raises(ScenarioSyntaxError) as err:
            parse_scenario("setup a\nfund S 10\n")
        assert (err.value.line, err.value.column) == (2, 6)

    def test_bad_party_position(self):
        with pytest.raises(ScenarioSyntaxError) as err:
            parse_scenario("expect-holdings 12 Es\n")
        assert str(err.value) == "line 1, column 17: expected a party, got '12'"

    def test_bad_amount_position(self):
        with pytest.raises(ScenarioSyntaxError) as err:
            parse_scenario("fund a 0\n")
        assert (err.value.line, err.value.column) == (1, 8)

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


def _words(head, *args):
    return st.tuples(st.just(head), *args).map(" ".join)


_user = st.sampled_from([c for c in string.ascii_letters if c not in "sS"])
_party = st.one_of(
    st.sampled_from(string.ascii_letters),
    st.builds(
        "{}_{}".format, st.sampled_from(["USER", "user"]), st.sampled_from(string.ascii_letters)
    ),
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


def pretty(script):
    return "".join(cmd.pretty() + "\n" for cmd in script.commands)


class TestPretty:
    @settings(max_examples=300, deadline=None)
    @given(lines=st.lists(_command_line, max_size=12))
    def test_parse_pretty_fixed_point(self, lines):
        script = parse_scenario("".join(line + "\n" for line in lines))
        assert len(script.commands) == len(lines)
        printed = pretty(script)
        assert parse_scenario(printed).commands == script.commands
        assert pretty(parse_scenario(printed)) == printed

    def test_bundled_scripts_round_trip(self):
        import pathlib

        for path in sorted(pathlib.Path("scenarios").glob("*.scen")):
            script = parse_scenario(path.read_text())
            assert parse_scenario(pretty(script)).commands == script.commands


class TestRunner:
    def test_core_run_succeeds(self):
        result = run_scenario(parse_scenario(CORE))
        assert result.ok
        assert result.failures == []
        assert result.output.startswith("== 1. ")
        assert result.sim.ledger.balance("ext") == 1000

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
        if isinstance(cmd, Attack):
            verdict = run_attack(cmd.scenario, script.mode, script.backend, script.seed)
            chunks.append(f"verdict: {verdict.report_line()}\n")
            chunks += [f"  note: {note}\n" for note in verdict.notes]
        upto = len(run_scenario(replace(script, commands=commands[: i + 1]), quiet=True).sim.events)
        if not quiet:
            chunks += [render_table(event) + "\n\n" for event in events[shown:upto]]
        shown = upto
    output = "".join(chunks)
    return output.rstrip("\n") + "\n" if output else ""


class TestOutputAssembly:
    @pytest.mark.parametrize("text, quiet, ends_on", [
        ("setup A\nfund A 1000\nattack store_raid\ntransfer A B\n", False, "table"),
        (CORE + "attack post_transfer_grab\n", False, "verdict: "),
        (CORE + "attack store_raid\n", False, "  note: "),
        (CORE + "attack store_raid\n", True, "  note: "),
        (CORE, True, None),
        ("", False, None),
    ], ids=["table", "verdict", "note", "quiet", "quiet-no-verdict", "empty"])
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
