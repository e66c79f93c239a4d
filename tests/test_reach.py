"""tools/reach.py: line collection and keep-list matching on a small module."""

from __future__ import annotations

import importlib.util
import os
import threading

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(name: str, path: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reach = _load("reach", os.path.join(ROOT, "tools", "reach.py"))

SAMPLE = '''\
def called(x):
    if x:
        return x + 1
    return 0


def uncalled():
    total = 1
    return total
'''

KEEP = '''\
# Entries name the function and the text, never a line number.
@kept: a reason given in the test
kept | sample | uncalled | total = 1
kept | sample | called | return total
kept | sample | uncalled | return 2
'''


def _traced_sample(path: str) -> set:
    """The lines of ``path`` run while it is imported and ``called`` runs on a
    second thread with 0 and on this one with 1."""

    def run():
        module = _load("sample", path)
        thread = threading.Thread(target=module.called, args=(0,))
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        return module.called(1)

    result, hits = reach.trace_lines([path], run)
    assert result == 2
    return hits[path]


@pytest.mark.parametrize("padding", [0, 7])
def test_keep_entries_match_by_function_and_text_at_any_line(tmp_path, padding):
    path = tmp_path / "sample.py"
    path.write_text("\n" * padding + SAMPLE)
    keep = tmp_path / "keep.txt"
    keep.write_text(KEEP)
    reasons, entries = reach.read_keep(str(keep))
    assert reasons == {"kept": "a reason given in the test"}

    lines = reach.executable_lines(str(path))
    assert lines[padding + 8] == ("uncalled", "total = 1")
    report, stale = reach.classify({"sample": lines}, {"sample": _traced_sample(str(path))},
                                   entries)
    # Both branches of called ran, one of them on the second thread.
    row = report["sample"]
    assert (row["lines"], row["reached"]) == (len(lines), len(lines) - 2)
    assert row["kept"] == [(padding + 8, "uncalled", "total = 1", "kept")]
    # The same text in another function is not held, and an entry that
    # names no line is stale.
    assert row["left"] == [(padding + 9, "uncalled", "return total")]
    assert stale == [("kept", "sample", "called", "return total"),
                     ("kept", "sample", "uncalled", "return 2")]


def test_a_keep_entry_of_an_undefined_reason_is_refused(tmp_path):
    keep = tmp_path / "keep.txt"
    keep.write_text("@kept: why\nother | sample | uncalled | total = 1\n")
    with pytest.raises(ValueError, match="line 2"):
        reach.read_keep(str(keep))
