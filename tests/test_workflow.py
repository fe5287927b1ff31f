"""The CI workflow's commands name what the repository has: each pytest
command's test paths exist, each term of its ``-k`` expression selects a
test in the files it filters, and each Python heredoc compiles."""

import ast
import re
import shlex
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
# pytest options that take a value as the next argument
VALUE_OPTIONS = {"-k", "-m", "-p", "-c"}
HEREDOC = re.compile(r"""python"?\s+-\s.*<<'(\w+)'$""")


def run_scripts():
    jobs = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))["jobs"]
    return [step["run"] for job in jobs.values() for step in job["steps"] if "run" in step]


def pytest_commands():
    """(test paths, -k expression or None) of every pytest command."""
    commands = []
    for script in run_scripts():
        for line in script.splitlines():
            if "pytest" not in line:
                continue
            args = shlex.split(line)
            paths, expr = [], None
            rest = iter(args[args.index("pytest") + 1:])
            for arg in rest:
                if arg in VALUE_OPTIONS:
                    value = next(rest)
                    if arg == "-k":
                        expr = value
                elif not arg.startswith("-"):
                    paths.append(arg)
            commands.append((paths, expr))
    return commands


def names_of_tests(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.ClassDef, ast.FunctionDef))
            and node.name.lower().startswith("test")}


def test_pytest_paths_exist():
    commands = pytest_commands()
    assert commands
    missing = [p for paths, _ in commands for p in paths if not (ROOT / p).exists()]
    assert missing == []


def test_k_terms_select_tests():
    filtered = [(paths, expr) for paths, expr in pytest_commands() if expr is not None]
    assert filtered
    for paths, expr in filtered:
        names = set().union(*(names_of_tests(ROOT / p) for p in paths))
        terms = [t for t in re.findall(r"\w+", expr) if t not in ("and", "or", "not")]
        assert terms
        for term in terms:
            assert any(term.lower() in name.lower() for name in names), (term, paths)


def test_python_heredocs_compile():
    bodies = []
    for script in run_scripts():
        lines = iter(script.splitlines())
        for line in lines:
            match = HEREDOC.search(line.strip())
            if match:
                body = []
                for inner in lines:
                    if inner.strip() == match.group(1):
                        break
                    body.append(inner)
                else:
                    raise AssertionError(f"heredoc not closed after: {line}")
                bodies.append("\n".join(body))
    assert bodies
    for i, body in enumerate(bodies):
        compile(body, f"{WORKFLOW.name} heredoc {i}", "exec")
