import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "twoedit"
# every way to read the process environment through the os module
READERS = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(tree: ast.AST) -> list[str]:
    """``os.<reader>`` attributes and ``from os import <reader>`` names."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in READERS:
            if isinstance(node.value, ast.Name) and node.value.id == "os":
                found.append(f"os.{node.attr} (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [f"from os import {a.name}" for a in node.names if a.name in READERS]
    return found


def test_the_check_sees_every_form():
    code = "import os\nfrom os import getenv\nos.environ.get('A')\nos.getenv('B')\n"
    assert sorted(environment_reads(ast.parse(code))) == [
        "from os import getenv", "os.environ (line 3)", "os.getenv (line 4)"
    ]


def test_the_library_reads_no_environment():
    modules = sorted(SRC.glob("**/*.py"))
    assert modules
    reads = {
        str(path.relative_to(SRC)): environment_reads(ast.parse(path.read_text()))
        for path in modules
    }
    assert {name: found for name, found in reads.items() if found} == {}
