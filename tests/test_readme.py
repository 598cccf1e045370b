"""README's ``python`` blocks run as written, in order, from the repository root."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_python_blocks_run_in_order(monkeypatch):
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 4
    monkeypatch.chdir(ROOT)
    names: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), names)
    # the library snippet's query again gives the bundle's own do(B=16) answer
    (answer,) = [r for r in names["result"].interventions["hypergraph"] if r.b == 16]
    assert names["again"].to_dict() == answer.to_dict()
