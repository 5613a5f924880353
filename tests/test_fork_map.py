"""`statement41 --random` runs its trials in contiguous chunks, one per CPU
the process may use (`forkmap.fork_map`).  Its bytes, exit code and stderr
equal those of the serial loop for any number of chunks, the first
failing trial in serial order is the one reported, a chunk whose child
dies runs in the calling process, and no child process outlives `cli.run`.

`primes.find_multiplier` screens the survivors of its third and later
windows the same way.  Its hit is the first in scan order whatever the
number of chunks, its run-outs are unchanged, a chunk whose child dies is
screened here, and no child outlives the call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from primepoly import cli, primes
from primepoly.cli import EXIT_BAD_INPUT, EXIT_OK, EXIT_VIOLATION, run
from primepoly.constructions import search_n_plus_2
from primepoly.errors import BudgetExhausted, TheoremViolation
from primepoly.primes import STATUS_PRIME, PrimalityVerdict, ProgressionHit, find_multiplier

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


# ---------------------------------------------------------------------------
# the multiplier scan: windows from the third on (|t| > 2,304) fork
# ---------------------------------------------------------------------------

_SCAN_M, _SCAN_T_MAX = 1_000_003, 18688  # the third window is 2,305 <= |t| <= 18,688


def _third_window(monkeypatch) -> list[int]:
    """The t of the third window's survivors for M = _SCAN_M, in scan order:
    on one CPU, with a screen that passes nothing, each is screened once, here."""
    screened = []
    with monkeypatch.context() as m:
        _pin_cpus(m, 1)
        m.setattr(primes, "_strong_probable_prime", screened.append)  # None: no t passes
        with pytest.raises(BudgetExhausted):
            find_multiplier([_SCAN_M], False, _SCAN_T_MAX)
    ts = [(a - 1) // _SCAN_M if (a - 1) % _SCAN_M == 0 else -(a + 1) // _SCAN_M for a in screened]
    assert [1 + t * _SCAN_M for t in ts] == [a if (a - 1) % _SCAN_M == 0 else -a for a in screened]
    return [t for t in ts if abs(t) > 2304]


def _cut(items: list, n: int) -> list[list]:
    return [items[len(items) * i // n:len(items) * (i + 1) // n] for i in range(n)]


def _rig_screens(monkeypatch, hits) -> list[int]:
    """Make exactly the t in `hits` pass the screens and the verdicts of a scan
    of M = _SCAN_M.  The patch is in place before the scan forks, so its
    children inherit it; returns the values `is_prime` is asked about here."""
    passing, asked = {abs(1 + t * _SCAN_M) for t in hits}, []
    monkeypatch.setattr(primes, "_strong_probable_prime", passing.__contains__)
    monkeypatch.setattr(primes, "is_prime", lambda v: asked.append(v) or PrimalityVerdict(v, STATUS_PRIME, "rigged"))
    return asked


def _rigged_hit(t: int) -> ProgressionHit:
    return ProgressionHit(t, (PrimalityVerdict(1 + t * _SCAN_M, STATUS_PRIME, "rigged"),))


def test_search_n_plus_2_is_the_same_on_one_to_four_cpus(monkeypatch):
    # both hits lie past |t| = 2,304: n = 30 in the third window, n = 36 in the fourth
    outcomes = []
    for cpus in (1, 2, 3, 4):
        _pin_cpus(monkeypatch, cpus)
        certs = [search_n_plus_2(n) for n in (30, 36)]
        _assert_no_children()
        with pytest.raises(BudgetExhausted) as info:
            search_n_plus_2(30, t_max=12922)
        _assert_no_children()
        outcomes.append((certs, str(info.value), info.value.frontier, info.value.anchors))
    assert [cert.multiplier_t for cert in outcomes[0][0]] == [-12923, 44812]
    assert outcomes[0][2] == 12922
    assert outcomes == [outcomes[0]] * 4


@pytest.mark.parametrize("cpus", [2, 3, 4])
def test_find_multiplier_takes_chunk_0s_hit_over_a_later_chunks(cpus, monkeypatch):
    chunks = _cut(_third_window(monkeypatch), cpus)
    _pin_cpus(monkeypatch, cpus)
    asked = _rig_screens(monkeypatch, [chunks[0][-1], chunks[-1][0]])
    assert find_multiplier([_SCAN_M], False, _SCAN_T_MAX) == _rigged_hit(chunks[0][-1])
    # a hit screened here keeps the verdicts its screen computed
    assert asked == [1 + chunks[0][-1] * _SCAN_M]
    _assert_no_children()


@pytest.mark.parametrize("cpus", [2, 3, 4])
def test_find_multiplier_takes_the_earliest_later_chunks_hit(cpus, monkeypatch):
    chunks = _cut(_third_window(monkeypatch), cpus)
    _pin_cpus(monkeypatch, cpus)
    # the first survivor of a chunk sits at its boundary with the one before
    for hits in ([chunks[-1][0]], [chunks[1][0], chunks[-1][-1]], [chunks[-1][-1]]):
        with monkeypatch.context() as m:
            asked = _rig_screens(m, hits)
            assert find_multiplier([_SCAN_M], False, _SCAN_T_MAX) == _rigged_hit(hits[0])
            # a child's t gets its verdicts here, once
            assert asked == [1 + hits[0] * _SCAN_M]
        _assert_no_children()


@pytest.mark.parametrize("cpus", [2, 3, 4])
@pytest.mark.parametrize("t_max", [2305, 2306, 12922, _SCAN_T_MAX])
def test_find_multiplier_runs_out_inside_a_forked_window(cpus, t_max, monkeypatch):
    # the third window cut to 1, 2 and 10,618 values, and whole
    _pin_cpus(monkeypatch, cpus)
    _rig_screens(monkeypatch, [])
    with pytest.raises(BudgetExhausted) as info:
        find_multiplier([_SCAN_M, -_SCAN_M], True, t_max)
    assert str(info.value) == f"no multiplier with |t| <= {t_max} makes 1 + t*1000003 and 1 + t*-1000003 prime"
    assert info.value.frontier == t_max
    _assert_no_children()


@pytest.mark.parametrize("cpus", [2, 3, 4])
def test_find_multiplier_screens_a_killed_childs_chunk_here(cpus, monkeypatch):
    # every child kills itself at its first screen, so this process screens
    # every survivor, in scan order
    survivors = _third_window(monkeypatch)
    target = _cut(survivors, cpus)[-1][0]
    _pin_cpus(monkeypatch, cpus)
    _rig_screens(monkeypatch, [target])
    parent, rigged, screened = os.getpid(), primes._strong_probable_prime, []

    def strong(a):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        screened.append(a)
        return rigged(a)

    monkeypatch.setattr(primes, "_strong_probable_prime", strong)
    assert find_multiplier([_SCAN_M], False, _SCAN_T_MAX) == _rigged_hit(target)
    expected = [abs(1 + t * _SCAN_M) for t in survivors[: survivors.index(target) + 1]]
    assert screened[-len(expected):] == expected
    _assert_no_children()


@pytest.mark.parametrize("raised", [ValueError, KeyboardInterrupt])
def test_find_multiplier_kills_its_children_when_this_process_fails(raised, monkeypatch):
    # chunk 0 fails at its first third-window screen; the children would sleep for a minute
    _pin_cpus(monkeypatch, 3)
    parent = os.getpid()

    def strong(a):
        if a < 2304 * _SCAN_M:
            return False
        if os.getpid() == parent:
            raise raised("injected in chunk 0")
        time.sleep(60)

    monkeypatch.setattr(primes, "_strong_probable_prime", strong)
    start = time.monotonic()
    with pytest.raises(raised, match="injected in chunk 0"):
        find_multiplier([_SCAN_M], False, _SCAN_T_MAX)
    assert time.monotonic() - start < 30
    _assert_no_children()


def test_find_multiplier_forks_only_from_the_third_window(monkeypatch):
    _pin_cpus(monkeypatch, 3)
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    # these scans end at |t| <= 2,224, in the first two windows
    for argv in (["nplus1", "--n", "40"], ["pplus", "--n", "40"], ["nplus2", "--n", "22"]):
        assert _capture(["construct", *argv])[0] == EXIT_OK
    assert forks == []
    # t = 44,812 is in the fourth window: two children in each of the third and fourth
    assert _capture(["construct", "nplus2", "--n", "36"])[0] == EXIT_OK
    assert len(forks) == 4
    _assert_no_children()


def test_a_process_that_never_forks_never_imports_forkmap():
    probe = (
        "import contextlib, io, sys\n"
        "from primepoly.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [run(['construct', kind, '--n', '40']) for kind in ('nplus1', 'pplus')]\n"
        "print(codes, 'primepoly.forkmap' in sys.modules)"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", probe], cwd=src, capture_output=True, text=True, check=True).stdout
    assert out == "[0, 0] False\n"
