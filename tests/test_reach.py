"""tools/reach.py: line collection, default watching and keep-list matching on small modules."""

from __future__ import annotations

import importlib.util
import os
import threading
import types

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


ENTRY_SAMPLE = '''\
def helper(x):
    return x + 1


def unused():
    return 2


def main():
    return helper(1)
'''


def test_a_line_counts_when_run_at_import_or_under_the_entry(tmp_path):
    path = tmp_path / "entry.py"
    path.write_text(ENTRY_SAMPLE)
    active = [1]  # the import counts

    def run():
        module = _load("entry", str(path))
        active[0] -= 1
        # Calls outside main, as a unit test makes them, count for nothing.
        assert (module.helper(0), module.unused()) == (1, 2)
        return reach.watch_defaults({"entry": module}, ("entry", "main"),
                                    lambda: module.main(), active)

    (result, _), hits = reach.trace_lines([str(path)], run, active)
    assert result == 2 and active == [0]
    lines = reach.executable_lines(str(path))
    assert sorted(lines[number] for number in hits[str(path)]) == [
        ("helper", "def helper(x):"), ("helper", "return x + 1"), ("main", "def main():"),
        ("main", "return helper(1)"), ("unused", "def unused():")]


def test_a_keep_entry_of_an_undefined_reason_is_refused(tmp_path):
    keep = tmp_path / "keep.txt"
    keep.write_text("@kept: why\nother | sample | uncalled | total = 1\n")
    with pytest.raises(ValueError, match="line 2"):
        reach.read_keep(str(keep))


DEFAULTS_SAMPLE = '''\
import threading


def main(runs):
    workers = [threading.Thread(target=run) for run in runs]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=10)
    return [worker.is_alive() for worker in workers]


def styled(text, style="vanilla", *, width=80):
    return text


class Box:
    def __init__(self, size=1, label=None):
        self.size = size

    def grow(self, by=2):
        return self.size + by
'''


def test_a_default_counts_only_when_a_call_under_the_entry_leaves_it_out(tmp_path):
    path = tmp_path / "toy.py"
    path.write_text(DEFAULTS_SAMPLE)
    toy = _load("toy", str(path))
    # An import site: a module that holds the function under its own name.
    site = types.ModuleType("site")
    site.styled = toy.styled
    original = toy.main, toy.styled, toy.Box.__init__

    def run():
        # Outside main every default is left out, and none of it counts.
        toy.styled("a")
        toy.Box().grow()
        # Under main, on its worker threads: style is passed, with the value
        # of its default; size is passed; width, label and by are left out.
        return toy.main([lambda: site.styled("b", "vanilla"), lambda: toy.Box(2).grow()])

    alive, omitted = reach.watch_defaults({"toy": toy, "site": site}, ("toy", "main"), run, [0])
    assert alive == [False, False]
    assert omitted == {
        ("toy", "styled", "style"): False, ("toy", "styled", "width"): True,
        ("toy", "Box.__init__", "size"): False, ("toy", "Box.__init__", "label"): True,
        ("toy", "Box.grow", "by"): True,
    }
    # Every wrapper is gone again.
    assert (toy.main, toy.styled, toy.Box.__init__) == original
    assert site.styled is original[1]

    entries = [("kept", "toy", "styled", "style="), ("kept", "toy", "styled", "colour=")]
    kept, unused, stale = reach.classify_defaults(omitted, entries)
    assert kept == [("toy", "styled", "style", "kept")]
    assert unused == [("toy", "Box.__init__", "size")]
    assert stale == [("kept", "toy", "styled", "colour=")]


@pytest.mark.parametrize("colour, failed", [("green", False), ("red", True)])
def test_a_red_suite_fails_the_tool(tmp_path, monkeypatch, capsys, colour, failed):
    # One module name per suite: both run in this process.
    suite = tmp_path / f"test_reach_{colour}_suite.py"
    suite.write_text(f"def test_suite():\n    assert {not failed}\n")
    monkeypatch.setattr(reach, "TESTS", (str(suite),))
    # A suite this small leaves lines unreached: count none left and no keep
    # entry stale, so that only pytest's status decides the exit.
    monkeypatch.setattr(reach, "classify", lambda *args: ({}, []))
    monkeypatch.setattr(reach, "classify_defaults", lambda *args: ([], [], []))
    assert reach.main() == int(failed)
    assert ("pytest failed with exit status 1" in capsys.readouterr().out) == failed


@pytest.mark.parametrize("kept", [False, True])
def test_an_unused_default_fails_the_tool_unless_the_keep_list_holds_it(tmp_path, monkeypatch,
                                                                        capsys, kept):
    # A green suite whose calls under main() left out no default of
    # styled's style, and no line left or stale.
    monkeypatch.setattr(reach, "watch_defaults",
                        lambda *args: (0, {("toy", "styled", "style"): False}))
    monkeypatch.setattr(reach, "classify", lambda *args: ({}, []))
    keep = tmp_path / "keep.txt"
    keep.write_text("@kept: why\n" + ("kept | toy | styled | style=\n" if kept else ""))
    monkeypatch.setattr(reach, "KEEP", str(keep))
    assert reach.main() == int(not kept)
    assert ("  toy | styled | style=" in capsys.readouterr().out) == (not kept)
