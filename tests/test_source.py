"""Rules over the source tree itself, checked by parsing it."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_top_level_name_has_a_reader():
    """Nothing in ``src/`` exists only for its own tests: each top-level function
    and class of the package is read by name (an ``ast.Name`` or
    ``ast.Attribute``) in ``src/`` or ``bench/`` outside its own definition,
    or is named in a code span of ``README.md``."""
    sources = sorted((ROOT / "src" / "batchlab").glob("*.py"))
    bench = sorted(p for p in (ROOT / "bench").glob("*.py") if not p.name.startswith("test_"))
    trees = {path: ast.parse(path.read_text()) for path in sources + bench}
    reads = {
        (path, i): {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(stmt)
            if isinstance(node, (ast.Name, ast.Attribute))
        }
        for path, tree in trees.items()
        for i, stmt in enumerate(tree.body)
    }
    spans = re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text())
    unread = [
        f"{path.stem}.{stmt.name}"
        for path in sources
        for i, stmt in enumerate(trees[path].body)
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not any(stmt.name in names for key, names in reads.items() if key != (path, i))
        and not any(re.search(rf"\b{stmt.name}\b", span) for span in spans)
    ]
    assert unread == []


def test_the_causal_engine_names_no_variable_mode_or_structure():
    """``causal`` is the generic machinery: the lab's variables, its engine
    modes and their structures are declared in ``analysis`` alone, so the
    engine's source spells none of them, not even in a comment, and keeps
    none of the names they once had there."""
    from batchlab import analysis

    source = (ROOT / "src" / "batchlab" / "causal.py").read_text()
    gone = r"\b(VAR_\w*|MODE_\w*|DEFAULT_VARIABLES|default_hypergraph|algorithm1_structure)\b"
    assert re.findall(gone, source) == []
    variables = "|".join(map(re.escape, analysis.VARIABLES))
    assert re.findall(rf"\b({variables})\b", source) == []
    strings = {
        node.value
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    assert strings & set(analysis.STRUCTURES) == set()
