"""README's library quick start runs, and every value it shows is what it prints."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    """The python block under the "Library quick start" heading."""
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def _shown_values(block: str) -> list[tuple[str, str]]:
    """(expression, the value shown for it) for each expression statement.

    The value is the comment at the end of the expression's last line, or the
    comment lines right below it, joined with single spaces.
    """
    lines = block.splitlines()
    shown = []
    for node in ast.parse(block).body:
        if not isinstance(node, ast.Expr):
            continue
        last = lines[node.end_lineno - 1]
        comments = [last.split("#", 1)[1]] if "#" in last else []
        for line in lines[node.end_lineno:]:
            if not line.startswith("#"):
                break
            comments.append(line[1:])
        shown.append((ast.get_source_segment(block, node), " ".join(c.strip() for c in comments)))
    return shown


def test_quick_start_values_print_as_shown():
    block = _quick_start()
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    shown = _shown_values(block)
    assert shown and all(value for _, value in shown), shown  # every expression shows one
    for expression, value in shown:
        assert repr(eval(expression, namespace)) == value, expression
