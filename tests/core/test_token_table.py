"""The shorthand parser's token table: interned parses equal uninterned ones.

``parse_history`` resolves each token through a bounded token -> Operation
table (one per parsing mode).  These tests hold the table to the miss path it
fronts (``_parse_body``), to its cap, and to "errors are never cached", and
hold the parser to ``Operation.to_shorthand()`` as a round trip.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import history as history_module
from repro.core.history import HistoryError, _TOKEN_RE, _parse_body, parse_history
from repro.core.operations import Operation, OperationKind, WriteAction

COMMON_SETTINGS = settings(max_examples=200, deadline=None)

#: Item names with no trailing digit, so ``x`` + version 1 renders as ``x1``
#: and splits back the same way under ``multiversion=True``.  The predicate
#: forms and version subscripts take plain ``\w`` names only.
PLAIN_ITEMS = ("x", "y", "row_b")
ITEMS = PLAIN_ITEMS + ("acct.a",)
PREDICATES = ("P", "Q", "Overdrawn")


def _is_text(raw: str) -> bool:
    """True when the parser keeps ``raw`` as a string value."""
    try:
        float(raw)
    except ValueError:
        return " in " not in raw
    return False


VALUES = st.one_of(
    st.none(),
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.from_regex(r"[a-z]([a-z. -]{0,6}[a-z])?", fullmatch=True).filter(_is_text),
)


@st.composite
def operations(draw, versions: bool) -> Operation:
    """One data operation or terminal of any shorthand form."""
    txn = draw(st.integers(min_value=1, max_value=40))
    form = draw(st.sampled_from(("item", "item", "pred_read", "pred_write",
                                 "terminal")))
    if form == "terminal":
        return Operation(draw(st.sampled_from((OperationKind.COMMIT,
                                               OperationKind.ABORT))), txn)
    if form == "pred_read":
        return Operation(OperationKind.PREDICATE_READ, txn,
                         predicate=draw(st.sampled_from(PREDICATES)))
    if form == "pred_write":
        return Operation(OperationKind.PREDICATE_WRITE, txn,
                         item=draw(st.sampled_from(PLAIN_ITEMS)),
                         predicate=draw(st.sampled_from(PREDICATES)),
                         write_action=draw(st.sampled_from(list(WriteAction))))
    kind = draw(st.sampled_from((OperationKind.READ, OperationKind.WRITE,
                                 OperationKind.CURSOR_READ,
                                 OperationKind.CURSOR_WRITE)))
    version = draw(st.integers(min_value=0, max_value=9)) if versions else None
    item = draw(st.sampled_from(PLAIN_ITEMS if versions else ITEMS))
    return Operation(kind, txn, item=item, value=draw(VALUES), version=version)


def uninterned(text: str, multiversion: bool):
    """The table's miss path applied to every token: the reference parse."""
    return [_parse_body(match["kind"], int(match["txn"]), match["body"],
                        multiversion)
            for match in _TOKEN_RE.finditer(text)]


def well_formed(drawn):
    """Drop what a transaction does after its terminal."""
    finished, kept = set(), []
    for op in drawn:
        if op.txn not in finished:
            kept.append(op)
            if op.is_terminal:
                finished.add(op.txn)
    return kept


def assert_same_operations(parsed, reference):
    assert len(parsed) == len(reference)
    for got, expected in zip(parsed, reference):
        assert got == expected
        assert hash(got) == hash(expected)
        assert got.to_shorthand() == expected.to_shorthand()


class TestRoundTrip:
    @COMMON_SETTINGS
    @given(st.data())
    def test_to_shorthand_then_parse_is_the_identity(self, data):
        multiversion = data.draw(st.booleans())
        operation = data.draw(operations(versions=multiversion))
        (parsed,) = parse_history(operation.to_shorthand(),
                                  multiversion=multiversion)
        assert parsed == operation
        assert type(parsed.value) is type(operation.value)

    def test_dots_inside_brackets_belong_to_the_token(self):
        assert parse_history("w1[x=1.5]")[0].value == 1.5
        dotted = parse_history("w1[acct.a=5]")[0]
        assert (dotted.item, dotted.value) == ("acct.a", 5)

    def test_dots_between_tokens_are_filler(self):
        text = "... w1[x=1.5] ... r2[x=1.5]...c1 . c2 ..."
        assert parse_history(text).to_shorthand() == "w1[x=1.5] r2[x=1.5] c1 c2"

    def test_garbage_after_the_last_token_is_named(self):
        with pytest.raises(HistoryError, match="zz"):
            parse_history("r1[x] ... zz")


class TestInterning:
    @COMMON_SETTINGS
    @given(st.data())
    def test_interned_parse_equals_the_miss_path(self, data):
        multiversion = data.draw(st.booleans())
        drawn = well_formed(data.draw(st.lists(
            operations(versions=multiversion), min_size=1, max_size=12)))
        text = " ".join(op.to_shorthand() for op in drawn)
        reference = uninterned(text, multiversion)
        assert_same_operations(reference, drawn)
        for _ in range(2):          # the misses, then the hits
            assert_same_operations(
                list(parse_history(text, multiversion=multiversion)), reference)

    @COMMON_SETTINGS
    @given(st.lists(st.tuples(st.sampled_from(("r", "w", "rc", "wc")),
                              st.integers(1, 9), st.sampled_from(("x", "y")),
                              st.integers(0, 3)),
                    min_size=1, max_size=10))
    def test_one_text_under_both_modes(self, tokens):
        """``x1`` is an item in one mode and version 1 of ``x`` in the other:
        the two tables never answer for each other."""
        text = " ".join(f"{kind}{txn}[{item}{version}]"
                        for kind, txn, item, version in tokens)
        for _ in range(2):
            single = parse_history(text)
            multi = parse_history(text, multiversion=True)
            assert_same_operations(list(single), uninterned(text, False))
            assert_same_operations(list(multi), uninterned(text, True))
            assert all(op.version is None for op in single)
            assert all(op.version is not None for op in multi)

    def test_a_repeat_token_is_the_same_instance(self):
        first = parse_history("w7[k3] r7[P] c7")
        again = parse_history("r7[P] ... w7[k3]...c7")
        assert again[1] is first[0] and again[0] is first[1]
        assert again[2] is first[2]

    def test_a_full_table_stops_admitting(self, monkeypatch):
        monkeypatch.setattr(history_module, "_TOKEN_TABLES", ({}, {}))
        cap = history_module._TOKEN_TABLE_CAP
        table = history_module._TOKEN_TABLES[0]
        for txn in range(cap + 50):
            assert parse_history(f"r{txn}[x]")[0] == \
                Operation(OperationKind.READ, txn, item="x")
        assert len(table) == cap
        assert f"r{cap - 1}[x]" in table and f"r{cap}[x]" not in table
        # Past the cap a known token still hits and a new one still parses.
        assert parse_history("r0[x]")[0] is table["r0[x]"]
        assert parse_history(f"w{cap + 7}[y=2]")[0] == \
            Operation(OperationKind.WRITE, cap + 7, item="y", value=2)
        assert len(table) == cap
        assert not history_module._TOKEN_TABLES[1]

    def test_long_tokens_are_parsed_but_never_admitted(self, monkeypatch):
        monkeypatch.setattr(history_module, "_TOKEN_TABLES", ({}, {}))
        item = "k" * (history_module._TOKEN_TABLE_MAX_LEN + 1)
        for _ in range(2):
            assert parse_history(f"w1[{item}]")[0].item == item
        assert not history_module._TOKEN_TABLES[0]

    def test_a_malformed_token_raises_every_time(self, monkeypatch):
        monkeypatch.setattr(history_module, "_TOKEN_TABLES", ({}, {}))
        for _ in range(3):
            with pytest.raises(HistoryError, match="requires a bracketed"):
                parse_history("r1[x] w2[]")
        # The well-formed neighbour was admitted, the malformed token never.
        assert set(history_module._TOKEN_TABLES[0]) == {"r1[x]"}

    def test_cached_tokens_do_not_bypass_history_validation(self):
        parse_history("c1")
        parse_history("r1[x]")
        for _ in range(2):
            with pytest.raises(HistoryError, match="after terminating"):
                parse_history("c1 r1[x]")
