"""Which source lines no verb runs, and which parameter defaults no verb
takes: a tracer over the tests that drive the package through
``tokenbudget.cli.main``.

Run it from anywhere in a checkout, with the interpreter that runs the tests:

    python3 tools/reach.py

It runs pytest in-process on tests/test_cli.py and tests/test_acceptance.py
under ``sys.settrace`` and ``threading.settrace``, so the verbs' pool threads
are traced too, and takes the executable lines of src/tokenbudget/*.py from
their code objects (``co_lines``). A line counts as run when it runs while
the package is imported or while ``main()`` runs, on any thread; a call that
a test makes to the package outside ``main()`` does not count. A line that
no verb ran is left over unless tools/reach_keep.txt holds it with a reason.
The tool prints the counts per module and every line left over, and exits 1
if any line or parameter default (below) is left, or if a keep entry names a
line or default the source no longer has.

The same run wraps every function and method of the package that has a
parameter default, at its module, its class and each import site, and records
which parameters a call left to their default while ``main()`` ran (calls
that the unit tests make outside ``main()`` do not count). Every parameter
that no such call left to its default is left over, unless the keep list
holds it: the package's API is what ``main()`` calls, so such a default is
deleted, with any code that only the default runs, and the tests pass the
value themselves.

The suite must pass under the tracer: the tool exits 1 when pytest fails,
after printing the report, since a test that stopped early leaves lines
unreached that it would have run. The tests bound the work they guard by
counts, not by the clock, so tracing slows them without failing them.

The keep list: ``@<reason>: <why>`` defines a reason. Every other line that
is not blank or a ``#`` comment is ``<reason> | <module> | <function> |
<text>``: the module's file name without ``.py``, the qualified name of the
innermost code object that holds the line (``<module>`` at module level) and
the stripped source line. An entry matches by module, function and text,
never by line number, so it survives edits elsewhere in the file; it holds
every line of its function with that text. An entry whose text is
``<parameter>=`` holds that parameter's default instead.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "tokenbudget")
KEEP = os.path.join(ROOT, "tools", "reach_keep.txt")
TESTS = ("tests/test_cli.py", "tests/test_acceptance.py")


def executable_lines(path: str) -> dict[int, tuple[str, str]]:
    """Line number -> (function, stripped text) of every line of ``path`` that
    holds an instruction; the function is the innermost code object's name."""
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    texts = source.splitlines()
    lines = {}
    # A code object is visited before the ones nested in it, which then
    # claim the lines they share with it (a ``def`` line, say).
    codes = [compile(source, path, "exec")]
    while codes:
        code = codes.pop()
        for _, _, line in code.co_lines():
            if line:  # None, or 0 for a module's set-up
                lines[line] = (code.co_qualname, texts[line - 1].strip())
        codes.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def trace_lines(paths, run, active=(1,)):
    """``run()`` with every thread traced: (its result, path -> line numbers
    run in a call that started while ``active[0]`` was not 0)."""
    hits = {os.path.realpath(path): set() for path in paths}
    tracers: dict[str, object] = {}

    def line_tracer(lines: set):
        add = lines.add

        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        local = tracers.get(filename, tracers)
        if local is tracers:
            lines = hits.get(os.path.realpath(filename))
            local = tracers[filename] = None if lines is None else line_tracer(lines)
        return local if active[0] else None

    previous = sys.gettrace(), threading.gettrace()
    sys.settrace(tracer)
    threading.settrace(tracer)
    try:
        result = run()
    finally:
        sys.settrace(previous[0])
        threading.settrace(previous[1])
    return result, {path: hits[os.path.realpath(path)] for path in paths}


def defaulted(module) -> dict[str, tuple[object, tuple[str, ...]]]:
    """Qualified name -> (function, names of its parameters with a default) of
    every function and method that ``module``'s own source defines with one."""
    found = {}
    source = getattr(module, "__file__", None)
    owners = [module, *(value for value in vars(module).values() if inspect.isclass(value))]
    for owner in owners:
        for value in vars(owner).values():
            code = getattr(value, "__code__", None)
            if code is None or code.co_filename != source:
                continue
            names = code.co_varnames[:code.co_argcount]
            params = names[len(names) - len(value.__defaults__ or ()):]
            params += tuple(value.__kwdefaults__ or ())
            if params:
                found[value.__qualname__] = value, params
    return found


def watch_defaults(modules: dict, entry: tuple[str, str], run, active: list[int]):
    """``run()`` with every defaulted function of ``modules`` (name -> module)
    wrapped at its module, its class and each import site among them: (its
    result, (module, function, parameter) -> whether a call left the
    parameter to its default while the function ``entry`` (module, name)
    ran, on any thread). ``active[0]`` counts the calls of ``entry`` in
    progress."""
    omitted: dict[tuple[str, str, str], bool] = {}
    lock = threading.Lock()
    undo = []

    def watched(key, function, params):
        positional = function.__code__.co_varnames[:function.__code__.co_argcount]

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if active[0]:
                for name in set(params).difference(positional[:len(args)], kwargs):
                    omitted[(*key, name)] = True
            return function(*args, **kwargs)
        return wrapper

    def entered(function):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            with lock:
                active[0] += 1
            try:
                return function(*args, **kwargs)
            finally:
                with lock:
                    active[0] -= 1
        return wrapper

    def patch(module, function, wrapper) -> None:
        # A method is replaced on its class; a function wherever a module holds it.
        owner = module
        for name in function.__qualname__.split(".")[:-1]:
            owner = getattr(owner, name)
        for place in [owner] if owner is not module else modules.values():
            for attribute, value in list(vars(place).items()):
                if value is function:
                    undo.append((place, attribute, value))
                    setattr(place, attribute, wrapper)

    for module_name, module in modules.items():
        for qualname, (function, params) in defaulted(module).items():
            omitted.update({(module_name, qualname, name): False for name in params})
            patch(module, function, watched((module_name, qualname), function, params))
    main = getattr(modules[entry[0]], entry[1])
    patch(modules[entry[0]], main, entered(main))
    try:
        return run(), omitted
    finally:
        for place, attribute, value in reversed(undo):
            setattr(place, attribute, value)


def read_keep(path: str) -> tuple[dict[str, str], list[tuple[str, str, str, str]]]:
    """(reason -> why, entries as (reason, module, function, text)) of a keep list;
    an entry of an undefined reason, or of the wrong shape, is a ValueError."""
    reasons, entries = {}, []
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("@"):
                name, _, why = line[1:].partition(":")
                reasons[name.strip()] = why.strip()
                continue
            entry = tuple(part.strip() for part in line.split(" | ", 3))
            if len(entry) != 4 or entry[0] not in reasons:
                raise ValueError(f"{path}: line {number}: not '<defined reason> | <module> | "
                                 f"<function> | <text>': {line!r}")
            entries.append(entry)
    return reasons, entries


def classify(executable: dict[str, dict], hits: dict[str, set], entries) -> tuple[dict, list]:
    """(per module: its ``lines``, how many were ``reached``, and the unreached
    ones as (number, function, text) that a keep entry holds, ``kept`` with the
    entry's reason, or that are ``left``; the ``stale`` entries, which name no
    executable line)."""
    reasons = {tuple(entry[1:]): entry[0] for entry in entries}
    named = set()
    report = {}
    for module, lines in executable.items():
        reached = hits[module] & lines.keys()
        kept, left = [], []
        for number in sorted(lines.keys() - reached):
            function, text = lines[number]
            reason = reasons.get((module, function, text))
            if reason is None:
                left.append((number, function, text))
            else:
                kept.append((number, function, text, reason))
        named.update((module, *line) for line in lines.values())
        report[module] = {"lines": len(lines), "reached": len(reached), "kept": kept, "left": left}
    return report, [entry for entry in entries if tuple(entry[1:]) not in named]


def classify_defaults(omitted: dict, entries) -> tuple[list, list, list]:
    """(the parameters no call left to their default, as (module, function,
    parameter), that a keep entry holds, ``kept`` with the entry's reason, or
    that are ``unused``; the ``stale`` entries, which name no parameter with a
    default)."""
    reasons = {(module, function, text[:-1]): reason for reason, module, function, text in entries}
    kept = [(*key, reasons[key]) for key, left in omitted.items() if not left and key in reasons]
    unused = [key for key, left in omitted.items() if not left and key not in reasons]
    return kept, unused, [entry for entry in entries if (*entry[1:3], entry[3][:-1]) not in omitted]


def is_default_entry(entry) -> bool:
    """Whether a keep entry holds a parameter default (text ``<parameter>=``), not a line."""
    return entry[3].endswith("=") and entry[3][:-1].isidentifier()


def main() -> int:
    sys.path.insert(0, SRC)
    import pytest

    paths = {name[:-3]: os.path.join(PACKAGE, name)
             for name in sorted(os.listdir(PACKAGE)) if name.endswith(".py")}

    # Lines count while the package is imported, then only under main().
    active = [1]

    def run():
        modules = {name: importlib.import_module(f"tokenbudget.{name}") for name in paths}
        active[0] -= 1
        return watch_defaults(modules, ("cli", "main"), lambda: pytest.main(
            ["-q", "-p", "no:cacheprovider", *(os.path.join(ROOT, test) for test in TESTS)]),
            active)

    (status, omitted), hits = trace_lines(paths.values(), run, active)
    reasons, entries = read_keep(KEEP)
    report, stale = classify({module: executable_lines(path) for module, path in paths.items()},
                             {module: hits[path] for module, path in paths.items()},
                             [entry for entry in entries if not is_default_entry(entry)])
    kept_defaults, unused, stale_defaults = classify_defaults(
        omitted, [entry for entry in entries if is_default_entry(entry)])
    stale += stale_defaults

    if status:
        print(f"\npytest failed with exit status {int(status)}: this is the report of a red "
              "suite, and the tool exits 1")
    print(f"{'module':<12} {'lines':>6} {'reached':>8} {'kept':>5} {'left':>5}")
    totals = [0, 0, 0, 0]
    for module, row in report.items():
        counts = [row["lines"], row["reached"], len(row["kept"]), len(row["left"])]
        totals = [total + count for total, count in zip(totals, counts)]
        print(f"{module:<12} {counts[0]:>6} {counts[1]:>8} {counts[2]:>5} {counts[3]:>5}")
    print(f"{'total':<12} {totals[0]:>6} {totals[1]:>8} {totals[2]:>5} {totals[3]:>5}")
    print(f"parameter defaults: {len(omitted)}; left to their default by a call under main(): "
          f"{sum(omitted.values())}; kept: {len(kept_defaults)}; unused: {len(unused)}")
    for reason in reasons:
        lines = sum(1 for row in report.values() for kept in row["kept"] if kept[3] == reason)
        defaults = sum(1 for kept in kept_defaults if kept[3] == reason)
        listed = sum(1 for entry in entries if entry[0] == reason)
        print(f"kept for {reason}: {lines} lines, {defaults} defaults, {listed} entries")
    left = [(module, *line) for module, row in report.items() for line in row["left"]]
    if left:
        print("\nno test reaches these lines through main(), and the keep list does not hold them:")
        for module, number, function, text in left:
            print(f"  {module}.py:{number} | {function} | {text}")
    if unused:
        print("\nno call under main() leaves these parameters to their default, and the keep "
              "list does not hold them:")
        for module, function, parameter in unused:
            print(f"  {module} | {function} | {parameter}=")
    if stale:
        print(f"\n{KEEP} names lines or parameter defaults the source no longer has:")
        for entry in stale:
            print("  " + " | ".join(entry))
    return 1 if status or left or unused or stale else 0


if __name__ == "__main__":
    sys.exit(main())
