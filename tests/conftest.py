import os
import pathlib
import random
import subprocess
import sys
import textwrap
from contextlib import contextmanager
from dataclasses import replace

import pytest

import cryptocubic
from cryptocubic.backend import get_backend
from cryptocubic.parties import AWAITED, TransportFailure

# a child interpreter (the CLI run as a program, a fresh process) imports the
# package these tests import, whether or not it is installed
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (
    str(pathlib.Path(cryptocubic.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH"))))


@pytest.fixture(params=["symbolic", "concrete"])
def backend(request):
    return get_backend(request.param)


@pytest.fixture
def rng():
    return random.Random(0)


def in_a_fresh_interpreter(code):
    """Run `code` in a new Python process, where no term that another test
    left alive can count, and fail with its error output if it fails."""
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# faults, injected through the transport's interposer


@contextmanager
def interposed(sim, interposer):
    """Route every message `sim` sends inside the block through `interposer`."""
    sim.transport.interposer = interposer
    try:
        yield
    finally:
        sim.transport.interposer = None


def dropped_link(sim, position):
    """Drop the link on the message sent after `position` more go through."""
    delivered = []

    def drop(msg):
        if len(delivered) == position:
            raise TransportFailure(f"link dropped while sending {msg.msg_type}")
        delivered.append(msg)
        return msg

    return interposed(sim, drop)


def lost_requests(sim, letter):
    """Lose every request that user `letter` is awaited to answer, as if it
    never answered: its key request and its challenges time out."""
    name = f"USER_{letter.upper()}"

    def lose(msg):
        return None if msg.msg_type in AWAITED and msg.receiver == name else msg

    return interposed(sim, lose)


def lost_message(sim, position):
    """Lose the message sent after `position` more go through."""
    seen = []

    def lose(msg):
        seen.append(msg)
        return None if len(seen) == position + 1 else msg

    return interposed(sim, lose)


def swapped(sim, msg_type, payload, sender=None):
    """Deliver each `msg_type` message (only `sender`'s, if given) with the
    payload `payload(msg)` builds instead of its own."""

    def swap(msg):
        if msg.msg_type != msg_type or sender not in (None, msg.sender):
            return msg
        return replace(msg, payload=payload(msg))

    return interposed(sim, swap)


def wrong_private_key(sim):
    """Swap each disclosed private key for the private key of a fresh pair."""
    return swapped(sim, "private_key", lambda msg: (sim.backend.gen_asym_pair(sim.rng).private,))
