"""Code lines per module, the optional parameters that no call sets, and
exported names that nothing outside their module reads.

Usage, from the repository root: python tools/code_lines.py [DIR]
(DIR defaults to src/greedy_opt).  Standard library only.

A code line is a line that holds a token outside docstrings and comments;
blank lines, comment lines and docstring lines do not count.  The script
prints each module's count and the total.

It then lists the optional parameters (those with a default) of the
functions defined in DIR that no call in src/, perfbench/ or tests/ sets,
and those that only calls in tests/ set.  Calls are found with ``ast``:
- ``f(...)`` and ``x.f(...)`` count for every function or method named f,
  ``C(...)`` and ``super().__init__(...)`` for ``__init__``, ``cls(...)``
  inside a classmethod for its class's ``__init__``, and a bare decorator
  ``@f`` as a call of f with one argument;
- passing the default expression itself (``tol=1e-9`` against a default of
  1e-9) does not set a parameter;
- forwarding the caller's own optional parameter with the same default
  (``norm=norm``) sets it only where the caller's is set;
- a call with ``*args`` or ``**kwargs`` sets every parameter it could reach.
The match is by name, so a namesake's call may count as setting a
parameter; a listed parameter is never set by any call the script sees.

Last, it lists the names in a module's ``__all__`` that no other module in
DIR (``__init__`` aside) and no file under perfbench/ references: as a name,
an attribute or an imported name, or, under perfbench/, as a string, which
covers the tracer's tables of names.  These are candidates for review, not
verdicts: tests and users outside the repository may still need them.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize
from pathlib import Path
from typing import NamedTuple

CALLER_DIRS = ("src", "perfbench", "tests")
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source):
    """The number of lines holding a token outside docstrings and comments."""
    docs = set()
    for node in ast.walk(ast.parse(source)):
        body = node.body if isinstance(node, _SCOPES) else []
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docs.update(range(body[0].lineno, body[0].end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


class Def(NamedTuple):
    label: str  # module.Class.name or module.name
    name: str
    owner: str | None  # the class of a method
    skip_first: bool  # self or cls, which a call does not pass
    params: dict  # optional parameter -> (position or None, default)


def _decorated(fn, name):
    return any(isinstance(d, ast.Name) and d.id == name
               for d in fn.decorator_list)


def definitions(root):
    out = []
    for path in sorted(Path(root).glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owners = {child: node for node in ast.walk(tree)
                  for child in ast.iter_child_nodes(node)
                  if isinstance(node, ast.ClassDef)}
        for fn in ast.walk(tree):
            if not isinstance(fn, _FUNCTIONS):
                continue
            a = fn.args
            positional = a.posonlyargs + a.args
            first = len(positional) - len(a.defaults)
            params = {arg.arg: (first + i, default) for i, (arg, default)
                      in enumerate(zip(positional[first:], a.defaults))}
            params.update({arg.arg: (None, default) for arg, default
                           in zip(a.kwonlyargs, a.kw_defaults)
                           if default is not None})
            owner = owners.get(fn)
            if params:
                cls = owner.name if owner else None
                out.append(Def(f"{path.stem}.{cls + '.' if cls else ''}"
                               f"{fn.name}", fn.name, cls,
                               cls is not None and not _decorated(
                                   fn, "staticmethod"), params))
    return out


def _same(arg, default):
    if ast.dump(arg) == ast.dump(default):
        return True
    try:
        a, d = ast.literal_eval(arg), ast.literal_eval(default)
    except (ValueError, SyntaxError, TypeError):
        return False
    return type(a) is type(d) and a == d


def _keys(func):
    """(name, class) keys the callee may resolve to; class None matches
    every definition of that name."""
    if isinstance(func, ast.Attribute) and func.attr == "__init__":
        return [("__init__", None)]
    name = getattr(func, "id", None) or getattr(func, "attr", None)
    return [(name, None), ("__init__", name)] if name else []


def _calls(path, labels):
    """(keys, call, enclosing label or None) for every call in the file."""
    found = []

    def visit(node, enclosing, prefix, cls, cls_arg):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, enclosing, f"{child.name}.", child.name, None)
            elif isinstance(child, _FUNCTIONS):
                for deco in child.decorator_list:
                    if not isinstance(deco, ast.Call):
                        found.append((_keys(deco), ast.Call(
                            func=deco, args=[ast.Name(id="_")], keywords=[]),
                            enclosing))
                label = f"{path.stem}.{prefix}{child.name}"
                first = (child.args.args[0].arg if child.args.args
                         and _decorated(child, "classmethod") else None)
                visit(child, label if label in labels else None, "", cls,
                      first)
            else:
                if isinstance(child, ast.Call):
                    keys = _keys(child.func)
                    if cls_arg and getattr(child.func, "id", None) == cls_arg:
                        keys.append(("__init__", cls))
                    found.append((keys, child, enclosing))
                visit(child, enclosing, prefix, cls, cls_arg)

    visit(ast.parse(path.read_text(encoding="utf-8")), None, "", None, None)
    return found


def _passed(call, d, pos, name):
    """The argument expressions a call passes for one parameter."""
    args = [kw.value for kw in call.keywords if kw.arg == name]
    index = None if pos is None else pos - d.skip_first
    if index is not None and index < len(call.args):
        args.append(call.args[index])
    return args


def audit(root, repo):
    """(never set, set only by tests/): lists of (label, parameter)."""
    defs = definitions(root)
    labels = {d.label: d.params for d in defs}
    set_by = {}  # (label, parameter) -> the caller dirs that set it
    forwards = []  # (callee key, caller key): set where the caller's is
    for top in CALLER_DIRS:
        for path in sorted((repo / top).rglob("*.py")):
            for keys, call, enclosing in _calls(path, labels):
                starred = any(isinstance(a, ast.Starred) for a in call.args)
                double = any(k.arg is None for k in call.keywords)
                outer = labels.get(enclosing, {})
                for d in defs:
                    if not any(name == d.name and owner in (None, d.owner)
                               and (name != "__init__" or d.owner)
                               for name, owner in keys):
                        continue
                    for pname, (pos, default) in d.params.items():
                        hit = double or (starred and pos is not None)
                        for arg in _passed(call, d, pos, pname):
                            if _same(arg, default):
                                continue
                            name = getattr(arg, "id", None)
                            if name in outer and _same(outer[name][1],
                                                       default):
                                forwards.append(((d.label, pname),
                                                 (enclosing, name)))
                            else:
                                hit = True
                        if hit:
                            set_by.setdefault((d.label, pname), set()).add(top)
    changed = True
    while changed:
        changed = False
        for callee, caller in forwards:
            new = set_by.get(caller, set()) - set_by.get(callee, set())
            if new:
                set_by.setdefault(callee, set()).update(new)
                changed = True
    every = [(d.label, pname) for d in defs for pname in d.params]
    return ([key for key in every if key not in set_by],
            [key for key in every if set_by.get(key) == {"tests"}])


def _references(path, strings):
    """Identifiers a file mentions; with ``strings``, its string constants
    too."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            found.add(node.value)
    return found


def unread_exports(root, repo):
    """(module, name) for each ``__all__`` entry of a module in root that no
    other module in root but ``__init__``, and no perfbench/ file, names."""
    modules = {path.stem: path for path in sorted(Path(root).glob("*.py"))
               if path.stem != "__init__"}
    seen = {stem: _references(path, False) for stem, path in modules.items()}
    outside = set()
    for path in sorted((repo / "perfbench").rglob("*.py")):
        outside |= _references(path, True)
    out = []
    for stem, path in modules.items():
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "__all__" for t in node.targets)):
                for name in ast.literal_eval(node.value):
                    if name not in outside and not any(
                            name in refs for other, refs in seen.items()
                            if other != stem):
                        out.append((stem, name))
    return out


def main(argv):
    root = Path(argv[1] if len(argv) > 1 else "src/greedy_opt")
    total = 0
    for path in sorted(root.glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    never, tests_only = audit(root, Path.cwd())
    for title, found in (("that no call sets", never),
                         ("that only tests/ sets", tests_only)):
        print(f"\noptional parameters {title}: {len(found)}")
        for label, pname in found:
            print(f"  {label}({pname})")
    unread = unread_exports(root, Path.cwd())
    print(f"\nexported names no other module and no perfbench/ file reads: "
          f"{len(unread)}")
    for stem, name in unread:
        print(f"  {stem}.{name}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv))
    except BrokenPipeError:  # the reader closed the pipe, as ``| head`` does
        # stdout's unflushed rest would raise again at exit: send it nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
