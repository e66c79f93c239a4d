"""The windowed JSON reader against json.loads, and the line of an undecodable byte."""

from __future__ import annotations

import io
import json
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from tokenbudget import jsonstream
from tokenbudget.errors import EncodingError
from tokenbudget.jsonstream import JSONStream, not_utf8

# Windows of a few characters put every token, and every element, across a
# window's edge; the real window reads a small document in one go.
WINDOWS = st.sampled_from([1, 2, 3, 7, jsonstream.WINDOW])

_DOCUMENTS = st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6) | st.sampled_from([0.5, -1.25e3, 1e-7])
    | st.text(st.sampled_from('ab"\\\né\U0001f600'), max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(["a", "questions", "b\n"]), children, max_size=3),
    max_leaves=8,
)
# What a broken document may gain at an edit: JSON's punctuation, a number's
# parts, white space that json skips and some it does not.
_EDITS = st.sampled_from([*'{}[],:"\\ \n\r\t1-+.eEtnx', "\u00a0", "\ufeff", "", "", ""])


def _load(text: str, window: int):
    """What a stream reads of ``text``: an array under the top-level object,
    and a top-level array, element by element."""
    with mock.patch.object(jsonstream, "WINDOW", window):
        stream = JSONStream(io.StringIO(text))
        if stream.peek() == "[":
            return list(stream.items())
        if stream.peek() != "{":
            return stream.value()
        document = {}
        for key in stream.members():
            document[key] = list(stream.items()) if stream.peek() == "[" else stream.value()
        return document


def _outcome(read, text: str):
    try:
        return read(text)
    except json.JSONDecodeError as exc:
        return exc.msg, exc.lineno, exc.colno, exc.pos, str(exc)


@given(document=_DOCUMENTS, indent=st.sampled_from([None, 0, 2]), window=WINDOWS)
def test_a_stream_reads_what_json_loads_reads(document, indent, window):
    text = json.dumps(document, indent=indent)
    assert _load(text, window) == json.loads(text)


@settings(max_examples=150)
@given(document=_DOCUMENTS, indent=st.sampled_from([None, 1]), window=WINDOWS,
       edits=st.lists(st.tuples(st.floats(0, 1), _EDITS, st.booleans()), min_size=1, max_size=3),
       cut=st.none() | st.floats(0, 1))
def test_a_stream_refuses_what_json_loads_refuses_with_the_same_error(document, indent, window,
                                                                      edits, cut):
    text = json.dumps(document, indent=indent)
    for where, char, insert in edits:
        at = int(where * len(text))
        text = text[:at] + char + text[at + (not insert):]
    if cut is not None:
        text = text[:int(cut * len(text))]
    assert _outcome(lambda t: _load(t, window), text) == _outcome(json.loads, text)


@pytest.mark.parametrize("text, value", [
    ("[1234]", [1234]),
    ("[12.5e-3, 7]", [12.5e-3, 7]),
    ("[-12, 1E+3]", [-12, 1e3]),
    ("123", 123),
    ("[true, null]", [True, None]),
])
@pytest.mark.parametrize("window", [1, 2, 3, 4])
def test_a_number_at_the_window_edge_is_read_whole(text, value, window):
    assert _load(text, window) == value


def test_each_retry_of_a_malformed_element_at_least_doubles_the_text_read(monkeypatch):
    # One unterminated string: the scanner fails at every window until the
    # file ends, so the stream reads on until then, but never re-reads in
    # steps of a fixed size.
    text = '[{"a": "' + "x" * 100_000
    reads = []
    handle = io.StringIO(text)
    real_read = handle.read

    def read(size):
        chunk = real_read(size)
        reads.append((size, len(chunk)))
        return chunk

    handle.read = read
    monkeypatch.setattr(jsonstream, "WINDOW", 16)
    stream = JSONStream(handle)
    assert stream.peek() == "["
    with pytest.raises(json.JSONDecodeError) as excinfo:
        list(stream.items())
    assert excinfo.value.msg.startswith("Unterminated string")
    assert excinfo.value.pos == 7
    # Each read past the first asks for at least the text held since the
    # element began, so the element is scanned about log2(100,000 / 16)
    # times. Once the error is known, one read finds the end of the file and
    # one reads the "[" before the window again, to place the error.
    held = reads[0][1] - 1
    for size, got in reads[1:-2]:
        assert size >= held
        held += got
    assert held == len(text) - 1 and len(reads) == 17 and reads[-2:] == [(16, 0), (1, 1)]


def test_a_stream_over_a_file_counts_lines_after_newline_translation(tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(b'[1,\r\n2,\r3,\n4 x]')
    with open(path, encoding="utf-8") as handle, pytest.raises(json.JSONDecodeError) as excinfo:
        list(JSONStream(handle).items())
    with open(path, encoding="utf-8") as handle, pytest.raises(json.JSONDecodeError) as expected:
        json.load(handle)
    assert (excinfo.value.lineno, excinfo.value.colno) == (expected.value.lineno,
                                                           expected.value.colno) == (4, 3)


def test_a_syntax_error_waits_for_an_undecodable_byte_after_it(tmp_path, monkeypatch):
    monkeypatch.setattr(jsonstream, "WINDOW", 4)
    path = tmp_path / "doc.json"
    path.write_bytes(b'[1 2,\n' + b' ' * 64 + b'"\xff"]')
    with open(path, encoding="utf-8") as handle, pytest.raises(UnicodeDecodeError):
        list(JSONStream(handle).items())


@pytest.mark.parametrize("content, line", [
    (b"\xff", 1),
    (b'{"a":\n"\xe2\x82"}\n', 2),
    (b"one\r\ntwo\rthree\n\nfive \xc3\x28\n", 5),
    (b"\n" * 3 + b"\xe9t\xe9", 4),
    (b"ok\n\xe2", 2),
])
def test_an_undecodable_file_is_named_with_the_line_of_its_first_bad_byte(tmp_path, content,
                                                                          line):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    with open(path, encoding="utf-8") as handle, pytest.raises(UnicodeDecodeError) as excinfo:
        handle.read()
    error = not_utf8(str(path), excinfo.value)
    assert isinstance(error, EncodingError)
    assert str(error).startswith(f"{path}: line {line}: not UTF-8: 'utf-8' codec can't decode")
