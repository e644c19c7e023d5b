"""Print the lines of ``src/kecsm`` function bodies that no Tier-1 test runs,
and exit non-zero when one of them is not in ``ALLOWED``.

Run from a checkout as ``python tests/uncovered_lines.py``; arguments after
the script name go to pytest in place of the default ``-q -p no:cacheprovider``.
It runs pytest in this process under a ``sys.settrace`` line counter, so no
coverage package is needed, and prints ``file:line  function  source`` for
every line of a function, lambda or comprehension body in ``src/kecsm`` that
no test reached, then their count.  Tier-1 takes about three times as long
under it.  Lines that run only in a subprocess (the import tests that
start ``python -c``) count as not run.  The exit status is 1 when a line
outside ``ALLOWED`` went unrun or pytest failed, else 0.  pytest does not
collect this file.
"""

import dis
import inspect
import sys
import threading
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "kecsm"
# instructions that set up a frame before its body: no line event is reported for them
PROLOGUE = {"RESUME", "RETURN_GENERATOR", "NOP", "MAKE_CELL", "COPY_FREE_VARS"}
# lines no test has to run, as "file:function:source" (the file from the
# checkout root, the source stripped, so an edit elsewhere keeps the key),
# each with the reason it may stay unrun
ALLOWED: dict[str, str] = {}


def body_lines(code, name: str = "") -> dict[int, str]:
    """Line of each instruction in the bodies of the functions nested in
    ``code``, a compiled module or class body, with the function's name."""
    lines = {}
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            qual = f"{name}.{const.co_name}" if name else const.co_name
            if const.co_flags & inspect.CO_OPTIMIZED:  # a function body, not a class body
                prologue = True
                for ins in dis.get_instructions(const):
                    prologue = prologue and ins.opname in PROLOGUE | {"POP_TOP"}
                    if not prologue and ins.positions.lineno is not None:
                        lines.setdefault(ins.positions.lineno, qual)
            lines.update(body_lines(const, qual))
    return lines


def main(argv: list[str]) -> int:
    files = {str(path): body_lines(compile(path.read_text(), str(path), "exec"))
             for path in sorted(SRC.glob("*.py"))}
    reached: dict[str, set[int]] = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename in reached else None

    threading.settrace(call)
    sys.settrace(call)
    try:
        status = pytest.main(argv or ["-q", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = unlisted = 0
    for name, lines in files.items():
        source = Path(name).read_text().splitlines()
        path = Path(name).relative_to(SRC.parents[1])
        for line, func in sorted(lines.items()):
            if line not in reached[name]:
                key = f"{path}:{func}:{source[line - 1].strip()}"
                missed += 1
                unlisted += key not in ALLOWED
                print(f"{path}:{line}  {func}  {source[line - 1].strip()}  ({ALLOWED.get(key, 'not in ALLOWED')})")
    print(f"{missed} function-body lines in src/kecsm ran in no test, {unlisted} of them not in ALLOWED "
          f"(pytest exit status {int(status)})")
    return int(unlisted > 0 or status != 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
