"""`statement41 --random` runs its trials in contiguous chunks, one per CPU
the process may use (`cli._fork_map`).  Its bytes, exit code and stderr
equal those of the serial loop for any number of chunks, the first
failing trial in serial order is the one reported, a chunk whose child
dies runs in the calling process, and no child process outlives `cli.run`.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import signal
import time

import pytest

from primepoly import cli
from primepoly.cli import EXIT_BAD_INPUT, EXIT_OK, EXIT_VIOLATION, run
from primepoly.errors import TheoremViolation

from helpers import serial_statement41, statement41_pairs


def _capture(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def _serial_capture(argv: list[str], monkeypatch) -> tuple[int, str, str]:
    with monkeypatch.context() as m:
        m.setattr(cli, "_cmd_statement41", serial_statement41)
        return _capture(argv)


def _pin_cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def _assert_no_children() -> None:
    # neither a running child nor a zombie is left to reap
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _argv(trials: int, seed: int) -> list[str]:
    return ["statement41", "--random", "--trials", str(trials), "--seed", str(seed)]


def _fail_at(monkeypatch, seed: int, trials: int, failing: dict) -> None:
    """Make `cli.block_report` raise failing[i] at trial i of the seed's draw."""
    pairs, first = list(itertools.islice(statement41_pairs(seed), trials)), {}
    for i, pair in enumerate(pairs):
        first.setdefault(pair, i)
    assert all(first[pairs[i]] == i for i in failing)  # no earlier trial draws the same pair
    real = cli.block_report

    def block_report(g, h):
        i = first[(g, h)]
        if i in failing:
            raise failing[i](f"injected at trial {i}")
        return real(g, h)

    monkeypatch.setattr(cli, "block_report", block_report)


@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
@pytest.mark.parametrize("trials", [1, 2, 3, 7, 200])
def test_statement41_random_chunks_match_the_serial_loop(cpus, trials, monkeypatch):
    _pin_cpus(monkeypatch, cpus)
    for seed in range(4):
        for argv in (_argv(trials, seed), _argv(trials, seed) + ["--json"]):
            got = _capture(argv)
            assert got[0] == EXIT_OK
            assert got == _serial_capture(argv, monkeypatch)
    _assert_no_children()


@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "failing,named", [((100, 650, 900), 100), ((650, 900), 650), ((999,), 999)], ids=["100", "650", "999"]
)
def test_statement41_random_reports_the_first_failing_trial(cpus, failing, named, monkeypatch):
    # with 4 chunks of 250 trials, 100 fails in this process, 650 and 900 in
    # two children, and 999 is the last trial of the last chunk
    _pin_cpus(monkeypatch, cpus)
    _fail_at(monkeypatch, 0, 1000, dict.fromkeys(failing, TheoremViolation))
    got = _capture(_argv(1000, 0))
    assert got == (EXIT_VIOLATION, "", f"THEOREM VIOLATION: injected at trial {named}\n")
    assert got == _serial_capture(_argv(1000, 0), monkeypatch)
    _assert_no_children()


@pytest.mark.parametrize("error", [ZeroDivisionError, ValueError])
def test_statement41_random_child_error_exits_2(error, monkeypatch):
    _pin_cpus(monkeypatch, 2)
    _fail_at(monkeypatch, 3, 400, {300: error})
    got = _capture(_argv(400, 3))
    assert got == (EXIT_BAD_INPUT, "", "error: injected at trial 300\n")
    assert got == _serial_capture(_argv(400, 3), monkeypatch)
    _assert_no_children()


def test_statement41_random_forks_one_child_per_further_chunk(monkeypatch):
    _pin_cpus(monkeypatch, 4)
    forks, fork = [], os.fork

    def counted():
        forks.append(1)  # the child's copy of the list is its own
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    for trials, children in ((1, 0), (2, 1), (3, 2), (200, 3)):
        forks.clear()
        assert _capture(_argv(trials, 0))[0] == EXIT_OK
        assert len(forks) == children
    _assert_no_children()


def test_statement41_random_runs_every_chunk_here_where_fork_fails(monkeypatch):
    _pin_cpus(monkeypatch, 3)

    def no_fork():
        raise OSError("fork refused")

    monkeypatch.setattr(os, "fork", no_fork)
    got = _capture(_argv(200, 1))
    assert got == _serial_capture(_argv(200, 1), monkeypatch)
    pairs = list(itertools.islice(statement41_pairs(1), 200))
    seen = []
    monkeypatch.setattr(cli, "block_report", lambda g, h, real=cli.block_report: seen.append((g, h)) or real(g, h))
    assert _capture(_argv(200, 1)) == got
    assert seen == pairs
    monkeypatch.delattr(os, "fork")
    assert _capture(_argv(200, 1)) == got


@pytest.mark.parametrize("raised", [TheoremViolation, KeyboardInterrupt])
def test_statement41_random_kills_its_children_when_this_process_fails(raised, monkeypatch):
    # the children would sleep for a minute: they are killed, not waited for
    _pin_cpus(monkeypatch, 3)
    parent = os.getpid()

    def block_report(g, h):
        if os.getpid() == parent:
            raise raised("injected in chunk 0")
        time.sleep(60)

    monkeypatch.setattr(cli, "block_report", block_report)
    start = time.monotonic()
    if raised is KeyboardInterrupt:
        with pytest.raises(KeyboardInterrupt):
            _capture(_argv(300, 0))
    else:
        assert _capture(_argv(300, 0)) == (EXIT_VIOLATION, "", "THEOREM VIOLATION: injected in chunk 0\n")
    assert time.monotonic() - start < 30
    _assert_no_children()


@pytest.mark.parametrize("cpus", [2, 3, 4])
def test_statement41_random_runs_a_killed_childs_chunk_here(cpus, monkeypatch):
    # every child kills itself before it sends a result, so this process
    # checks every pair, in serial order
    _pin_cpus(monkeypatch, cpus)
    parent, real, seen = os.getpid(), cli.block_report, []

    def block_report(g, h):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        seen.append((g, h))
        return real(g, h)

    monkeypatch.setattr(cli, "block_report", block_report)
    got = _capture(_argv(200, 1))
    assert got[0] == EXIT_OK
    assert seen == list(itertools.islice(statement41_pairs(1), 200))
    assert got == _serial_capture(_argv(200, 1), monkeypatch)
    _assert_no_children()
