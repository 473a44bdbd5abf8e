import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_surface_imports_resolve():
    """Every import statement in README's "Library surface" section, the
    export block and the score_graph recipe, names a name that exists."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library surface\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    imports = [node for block in blocks for node in ast.parse(block).body
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert len(blocks) >= 2 and len(imports) >= 3, (len(blocks), len(imports))
    exec(compile(ast.Module(body=imports, type_ignores=[]), str(README), "exec"), {})
