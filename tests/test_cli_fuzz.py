"""Hostile argv fails closed at every verb of ``python -m repro``.

As ``tests/persist/test_hostile_store.py`` does for store files, this draws
argv for ``campaign run / resume / inspect / list``, ``distrib run / verify``
and the ``serve`` parser (a valid ``serve`` would block, so its handler is
replaced) from each verb's real flag set, with hostile values beside small
valid ones: 0, -1, nan, inf, empty strings, unknown names, repeated levels,
a missing ``=``, a store path that is a directory, a campaign ``serve``
wrote where an exploration campaign is expected.  Hypothesis draws
combinations; then each hostile value runs once alone, beside otherwise
valid flags, so that it reaches past the flags the parser checks first.
Work sizes are capped so that a valid argv stays small.

Every call must exit 0 or 1, or exit 2 with ``error:`` on stderr; nothing
may escape as a traceback.  A verb that writes a fresh store leaves no store
file behind when it exits 2.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import shutil
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import cli
from repro.persist import SqliteStore

COUNT = ["0", "-1", "nan", "inf", "", "x", "1.5"]
SECONDS = ["0", "-1", "nan", "inf", "-inf", "", "x"]
SEED = ["0", "7", "-1", "nan", ""]

#: flag -> (valid values, hostile values); ``None`` marks a bare switch.
CAMPAIGN_FLAGS = {
    "--program-set": (["increments", "dirty-abort"], ["", "nope"]),
    "--set": (["transactions=2", "amount=5"],
              ["transactions", "=", "transactions=", "transactions=0",
               "transactions=-1", "transactions=nan", "transactions=1.5",
               "transactions=true", "bogus=1", 'initial="x"']),
    "--campaign": (["c1"], [""]),
    "--mode": (["auto", "sample", "exhaustive"], ["", "bogus"]),
    "--max-schedules": (["1", "5"], COUNT),
    "--seed": (SEED, []),
    "--chunk-size": (["1", "8"], COUNT),
    "--levels": (["SERIALIZABLE", "READ COMMITTED,SNAPSHOT ISOLATION"],
                 ["SERIALIZABLE,SERIALIZABLE", "BOGUS", "", ",",
                  "serializable"]),
    "--workers": (["1", "auto"], ["0", "-1", "nan", "", "x"]),
}
RUN_FLAGS = {
    **CAMPAIGN_FLAGS,
    "--reduction": (["none", "sleep-set"], ["", "dpor"]),
    "--throttle-ms": (["0", "1"], ["-1", "nan", "inf", ""]),
}
DISTRIB_FLAGS = {
    **CAMPAIGN_FLAGS,
    "--workers": (["1", "2", "auto"], ["0", "-1", "nan", "", "x"]),
    "--faults": (["slow-commit:ordinal=1:duration=0.01"],
                 ["", "bogus", "kill:worker", "kill:worker=-1",
                  "hang:duration=nan", "hang:duration=inf",
                  "sqlite-lock:count=0"]),
    # A valid seed schedules kills and hangs: only hostile ones are drawn.
    "--fault-seed": ([], ["nan", "", "x", "1.5"]),
    "--lease-duration": (["2"], SECONDS),
    "--heartbeat-interval": (["0.1"], SECONDS),
    "--max-attempts": (["5"], COUNT),
    "--deadline": (["60"], SECONDS),
    "--requeue-poisoned": None,
}
RESUME_FLAGS = {
    "--campaign": (["c1"], ["", "ghost", "svc"]),
    "--levels": CAMPAIGN_FLAGS["--levels"],
    "--workers": CAMPAIGN_FLAGS["--workers"],
    "--throttle-ms": RUN_FLAGS["--throttle-ms"],
}
INSPECT_FLAGS = {
    "--campaign": (["c1"], ["", "ghost", "svc"]),
    "--report": None,
    "--json": None,
}
SERVE_FLAGS = {
    "--host": (["127.0.0.1"], [""]),
    "--port": (["0", "9190", "65535"], ["-1", "65536", "nan", "", "http"]),
    "--store": (["certs.sqlite"], [""]),
    "--campaign": (["service"], [""]),
    "--evict-interval": (["1", "256"], COUNT),
}
#: Oddities any verb may meet: an unknown flag, a stray positional, a flag
#: with its value missing.
STRAYS = [["--bogus"], ["stray"], ["--seed"]]

_paths = itertools.count()


def _pieces(flags, valid):
    """Each flag with one of its valid (or its hostile) values."""
    pieces = []
    for name, pools in sorted(flags.items()):
        if pools is None:
            pieces.append([name])
        else:
            pieces += [[name, value] for value in pools[0 if valid else 1]]
    return pieces


def _argv(flags, required=()):
    """Required flags (a valid value, or left out), 0-3 valid flags, then
    mostly one hostile piece, so that each hostile value meets an otherwise
    runnable argv."""
    valid = st.sampled_from(_pieces(flags, valid=True) or [[]])
    hostile = st.sampled_from(_pieces(flags, valid=False) + STRAYS)

    @st.composite
    def argv(draw):
        drawn = []
        for name in required:
            if draw(st.integers(0, 9)):          # mostly present
                drawn += [name, flags[name][0][0]]
        for piece in draw(st.lists(valid, max_size=3)):
            drawn += piece
        count = draw(st.sampled_from([0, 1, 1, 1, 2]))
        for piece in draw(st.lists(hostile, min_size=count, max_size=count)):
            drawn += piece
        return drawn
    return argv()


def _call(argv):
    """``(exit code, stderr)``; an escaping exception fails the test."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exit:
            code = exit.code
    return code, err.getvalue()


def _assert_fails_closed(code, err):
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in err, err
    if code == 2:
        assert "error:" in err, err


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("argv")


@pytest.fixture(scope="module")
def finished(workdir):
    """A finished small campaign ``c1`` for the verbs that read a store."""
    path = workdir / "finished.sqlite"
    assert _call(["campaign", "run", "--store", str(path), "--program-set",
                  "increments", "--max-schedules", "5", "--campaign",
                  "c1"])[0] == 0
    store = SqliteStore(str(path))       # and a campaign ``serve`` writes
    store.open_campaign("svc", {"kind": "service"})
    store.close()
    return path


FUZZ = settings(max_examples=12, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])

FRESH = [(["campaign", "run"], RUN_FLAGS),
         (["distrib", "run"], {**DISTRIB_FLAGS, "--stats": None}),
         (["distrib", "verify"], DISTRIB_FLAGS)]
READING = [(["campaign", "resume"], RESUME_FLAGS, ["--campaign"]),
           (["campaign", "inspect"], INSPECT_FLAGS, []),
           (["campaign", "list"], {}, [])]


def _fresh(verb, workdir, argv, store_flag="path"):
    store = workdir / f"fresh-{next(_paths)}.sqlite"
    given_store = {"path": ["--store", str(store)], "missing": [],
                   "": ["--store", ""],
                   "dir": ["--store", str(workdir)]}[store_flag]
    code, err = _call(verb + given_store + argv)
    _assert_fails_closed(code, err)
    if code == 2:
        assert not store.exists(), (argv, err)


def _reading(verb, finished, workdir, argv, store="copy"):
    path = workdir / f"read-{next(_paths)}.sqlite"
    if store == "copy":
        shutil.copyfile(finished, path)
    code, err = _call(verb + ["--store", "" if store == "" else str(path)]
                      + argv)
    _assert_fails_closed(code, err)
    if store == "missing":
        assert code == 2 and not path.exists(), (argv, err)


def _serving(argv):
    with mock.patch.object(cli, "_serve", return_value=0):
        code, err = _call(["serve"] + argv)
    assert code in (0, 2), (code, err)
    _assert_fails_closed(code, err)


@pytest.mark.parametrize("verb,flags", FRESH, ids=[" ".join(v) for v, _ in FRESH])
def test_a_fresh_store_verb_fails_closed_before_writing(verb, flags, workdir):
    @FUZZ
    @given(argv=_argv(flags, required=["--program-set"]),
           store_flag=st.sampled_from(["path"] * 8 + ["missing", "", "dir"]))
    def check(argv, store_flag):
        _fresh(verb, workdir, argv, store_flag)
    check()

    base = ["--program-set", "increments", "--max-schedules", "5",
            "--workers", "1"]
    for piece in _pieces(flags, valid=False) + STRAYS:   # each one alone
        _fresh(verb, workdir, base + piece)


@pytest.mark.parametrize("verb,flags,required", READING,
                         ids=[verb[1] for verb, _, _ in READING])
def test_a_store_reading_verb_fails_closed(verb, flags, required, finished,
                                           workdir):
    @FUZZ
    @given(argv=_argv(flags, required),
           store=st.sampled_from(["copy"] * 4 + ["missing", ""]))
    def check(argv, store):
        _reading(verb, finished, workdir, argv, store)
    check()

    base = [arg for name in required for arg in (name, flags[name][0][0])]
    for piece in _pieces(flags, valid=False) + STRAYS:   # each one alone
        _reading(verb, finished, workdir, base + piece)


def test_the_serve_parser_fails_closed():
    @FUZZ
    @given(argv=_argv(SERVE_FLAGS))
    def check(argv):
        _serving(argv)
    check()

    for piece in _pieces(SERVE_FLAGS, valid=False) + STRAYS:   # each one alone
        _serving(piece)
