"""Layout rules for ``src/``: code that only tests call does not belong
there, and start-up imports nothing it does not use."""
import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cobcheck"


def _defined_names(node: ast.stmt) -> list[str]:
    """The names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _references(node: ast.AST) -> set[str]:
    """Every name the node loads, reads as an attribute or imports."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


# public top-level names that no other src/ code uses, each with the
# reason it stays in src/
UNUSED_PUBLIC = {
    "turn_page": "the validated replay path, which perfbench traces and the tests "
                 "replay leaves through",
}


def _unreferenced(paths) -> list[str]:
    """The top-level names defined in the files at ``paths`` that no
    statement of those files other than their own definition refers to."""
    statements = [node for path in paths for node in ast.parse(path.read_text(), str(path)).body]
    refs = [_references(node) for node in statements]
    return [name for i, node in enumerate(statements) for name in _defined_names(node)
            if not any(name in r for j, r in enumerate(refs) if j != i)]


def test_every_private_definition_in_src_is_used_in_src():
    unused = [name for name in _unreferenced(sorted(SRC.glob("*.py")))
              if name.startswith("_") and not name.startswith("__")]
    assert not unused, f"private definitions that no other src/ code refers to: {unused}"


def test_every_public_definition_in_src_is_used_in_src_or_allowed():
    # the package's re-exports in __init__.py name a definition without
    # using it, so they do not count
    unused = {name for name in _unreferenced(sorted(p for p in SRC.glob("*.py")
                                                    if p.name != "__init__.py"))
              if not name.startswith("_")}
    assert not unused - UNUSED_PUBLIC.keys(), (
        f"public definitions that no other src/ code refers to: {sorted(unused)}")
    assert UNUSED_PUBLIC.keys() <= unused, "allowed names that src/ now uses: drop them"


def test_every_parameter_in_src_is_read():
    # a parameter of a def that its body never reads is dead weight for
    # every caller; self and cls are exempt, and so are lambdas, which
    # may ignore their argument on purpose
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                      *filter(None, (args.vararg, args.kwarg)))]
            read = {sub.id for stmt in node.body for sub in ast.walk(stmt)
                    if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
            unread += [f"{path.name}:{node.lineno} {node.name}({p})" for p in params
                       if p not in read and p not in ("self", "cls")]
    assert not unread, f"parameters that their function never reads: {unread}"


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # every cobcheck check pays for start-up: ``@dataclass`` builds each
    # class's methods through exec, and importing it pulls in inspect,
    # so the classes are plain __slots__ classes (-S: no site hooks)
    code = ("import sys, cobcheck.cli; "
            "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC.parent)}, check=True)
    assert proc.stdout == "[]\n"


def test_a_whole_check_loads_no_argument_parsing_or_dataclass_modules():
    # argparse's first gettext lookup imports locale, so the command line
    # is parsed by hand; a subprocess, since pytest itself imports argparse
    code = ("import contextlib, io, sys, cobcheck.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = cobcheck.cli.main(['check', {str(SRC / 'data' / 'paper_cp7.json')!r}])\n"
            "loaded = {'argparse', 'gettext', 'locale', 'dataclasses', 'inspect'}\n"
            "print(code, sorted(loaded & sys.modules.keys()))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC.parent)}, check=True)
    assert proc.stdout == "10 []\n"
