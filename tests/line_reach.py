"""Line-reach check: every executable line of ``src/batchlab`` runs under tier-1.

Runs the tier-1 suite in this process under ``sys.settrace``, tracing only
frames whose code lives in ``src/batchlab``, and takes each module's
executable lines from its compiled code objects. Exits 1 and prints
``file:line`` for each executable line that no test ran, outside ``ALLOWED``;
exits with pytest's code if a test fails. Tracing about doubles the suite's
time, so hypothesis runs with a fixed seed and no deadline. Run it from the
repository root:

    python tests/line_reach.py

pytest does not collect this file (it is not named ``test_*.py``).
"""

import sys
import types
from pathlib import Path

import hypothesis
import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "batchlab"

# lines no input can run: the import that only type checkers read
ALLOWED = {("training.py", "    import scipy.sparse as sp")}


def executable_lines(code: types.CodeType) -> set[int]:
    """The line numbers of ``code`` and of every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}  # line 0 is no source line
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= executable_lines(const)
    return lines


def main() -> int:
    sources = sorted(PACKAGE.glob("*.py"))
    reached: dict[Path, set[int]] = {path: set() for path in sources}
    by_filename: dict[str, set[int] | None] = {}

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in by_filename:
            by_filename[filename] = reached.get(Path(filename).resolve())
        ran = by_filename[filename]
        if ran is None:
            return None
        ran.add(frame.f_lineno)

        def trace_lines(frame, event, arg):
            ran.add(frame.f_lineno)
            return trace_lines

        return trace_lines

    sys.path.insert(0, str(PACKAGE.parent))  # trace this checkout's package, not an installed one
    hypothesis.settings.register_profile("line_reach", deadline=None)
    sys.settrace(trace)
    try:
        code = pytest.main(
            [
                "-q",
                "--hypothesis-seed=0",
                "--hypothesis-profile=line_reach",
                # hypothesis is imported here, before pytest could rewrite its asserts
                "-W",
                "ignore::pytest.PytestAssertRewriteWarning",
                str(ROOT / "tests"),
            ]
        )
    finally:
        sys.settrace(None)
    if code != 0:
        return int(code)
    unrun = []
    for path in sources:
        source = path.read_text()
        text = source.splitlines()
        missed = executable_lines(compile(source, str(path), "exec")) - reached[path]
        unrun += [
            f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}"
            for line in sorted(missed)
            if (path.name, text[line - 1]) not in ALLOWED
        ]
    print("\n".join(unrun) if unrun else f"every executable line of {PACKAGE.relative_to(ROOT)} ran")
    return 1 if unrun else 0


if __name__ == "__main__":
    sys.exit(main())
