"""Layout rules for ``src/``: code that only tests call does not belong there."""
import ast
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


def test_every_private_definition_in_src_is_used_in_src():
    # a private top-level definition counts as used when a statement of
    # src/ other than its own definition refers to it
    statements = [node for path in sorted(SRC.glob("*.py"))
                  for node in ast.parse(path.read_text(), str(path)).body]
    refs = [_references(node) for node in statements]
    unused = [name for i, node in enumerate(statements) for name in _defined_names(node)
              if name.startswith("_") and not name.startswith("__")
              and not any(name in r for j, r in enumerate(refs) if j != i)]
    assert not unused, f"private definitions that no other src/ code refers to: {unused}"


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
