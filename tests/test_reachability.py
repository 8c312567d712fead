"""Every definition in ``src/repobuild`` is reached from a command, and every
defaulted parameter is set by some call.

The graph is built from the source with ``ast``, by name. Its roots are
``cli.main``, ``cli.entry`` and every module-level statement, among them
``cli._COMMANDS``, which names every command handler. A definition's edges are the ``Name`` and
``Attribute`` identifiers anywhere in it (decorators, defaults and
annotations included). A top-level function or class is reached when a
reached piece of code names it; a method is reached when its class is
reached and its name is used, and a dunder method when its class is
reached. Matching by name over-approximates, so the scan can miss dead code
whose name is used elsewhere, but it never reports code a command runs.

The parameter check matches calls by name too: a call of a function's name
(its class's name for ``__init__``) sets a defaulted parameter when it
passes it by keyword, by position, or through ``*args`` or ``**kwargs``.

The exception check matches names too: every exception class defined in
``src/repobuild`` is named in some ``except`` clause or ``isinstance`` class
argument there, since a class no code tells apart acts as its base. And
every ``raise`` there names one of those classes, so what a command does
with an error depends only on the class the package gave it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repobuild"

# Definitions no command reaches on purpose, each with the reason. The list
# may only shrink: a test below fails on an entry that is reached or gone.
ALLOWED_UNREACHED = {
    "bench.load_results": "perfbench/tracer.py wraps it by name; goes with the in-package trace",
    "bench.ResultStore.existing_keys": (
        "perfbench/tracer.py wraps it by name; goes with the in-package trace"
    ),
}

_FUNCTION = (ast.FunctionDef, ast.AsyncFunctionDef)


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        yield module, ast.parse(path.read_text("utf-8"), filename=str(path))


def _identifiers(nodes):
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
    return out


def _own_code(node):
    """What running a definition runs: a function whole; for a class, its
    bases, decorators and the statements of its body that are not methods."""
    if not isinstance(node, ast.ClassDef):
        return [node]
    body = [s for s in node.body if not isinstance(s, _FUNCTION)]
    return [*node.bases, *node.keywords, *node.decorator_list, *body]


def _scan():
    """(definitions, module-level statements). A definition maps its
    qualname to (name, node, qualname of its class or None)."""
    defs, roots = {}, []
    for module, tree in _modules():
        for stmt in tree.body:
            if not isinstance(stmt, (*_FUNCTION, ast.ClassDef)):
                roots.append(stmt)
                continue
            qual = f"{module}.{stmt.name}"
            defs[qual] = (stmt.name, stmt, None)
            if isinstance(stmt, ast.ClassDef):
                for item in stmt.body:
                    if isinstance(item, _FUNCTION):
                        defs[f"{qual}.{item.name}"] = (item.name, item, qual)
    return defs, roots


def unreached():
    """Qualnames of the definitions no command reaches, sorted."""
    defs, roots = _scan()
    reached = {"cli.main", "cli.entry"}
    names = _identifiers([*roots, *(defs[qual][1] for qual in reached)])
    while True:
        grown = {
            qual for qual, (name, _node, owner) in defs.items()
            if qual not in reached and (
                name in names if owner is None
                else owner in reached and (name in names or name.startswith("__"))
            )
        }
        if not grown:
            return sorted(set(defs) - reached)
        reached |= grown
        names |= _identifiers(n for qual in grown for n in _own_code(defs[qual][1]))


def test_every_definition_is_reached_from_a_command():
    missing = [q for q in unreached() if q not in ALLOWED_UNREACHED]
    assert missing == [], (
        "no command reaches these definitions; wire them into a command or "
        f"delete them: {missing}"
    )


def test_allow_list_has_no_stale_entry():
    defs, _ = _scan()
    now_unreached = set(unreached())
    stale = sorted(q for q in ALLOWED_UNREACHED if q not in defs or q not in now_unreached)
    assert stale == [], f"remove these allow-list entries, they are reached or gone: {stale}"


def test_allow_list_entries_give_a_reason():
    assert all(reason.strip() for reason in ALLOWED_UNREACHED.values())


def _calls():
    """Each call in src/ as (callee name, positional arguments before any
    ``*args``, keyword names, whether it passes ``*args`` or ``**kwargs``)."""
    out = []
    for _module, tree in _modules():
        for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            starred = [isinstance(a, ast.Starred) for a in call.args]
            keywords = {k.arg for k in call.keywords}
            out.append((name, starred.index(True) if any(starred) else len(starred),
                        keywords, any(starred) or None in keywords))
    return out


def _defaulted():
    """Each defaulted parameter as (qualname, callee name, parameter name,
    index among the positional arguments a call passes, or None)."""
    for module, tree in _modules():
        owner = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                 for f in c.body if isinstance(f, _FUNCTION)}
        for func in (n for n in ast.walk(tree) if isinstance(n, _FUNCTION)):
            cls = owner.get(id(func))
            qual = ".".join(filter(None, (module, cls, func.name)))
            callee = cls if func.name == "__init__" else func.name
            # a call through an instance or class passes self or cls itself
            bound = cls is not None and "staticmethod" not in _identifiers(func.decorator_list)
            args = func.args
            positional = [*args.posonlyargs, *args.args]
            first = len(positional) - len(args.defaults)
            for i, arg in enumerate(positional[first:], first):
                yield f"{qual}.{arg.arg}", callee, arg.arg, i - bound
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield f"{qual}.{arg.arg}", callee, arg.arg, None


def unset_defaults():
    """Qualnames of the defaulted parameters no call in src/ sets, sorted."""
    calls = _calls()
    return sorted(
        qual for qual, callee, param, index in _defaulted()
        if not any(name == callee and (star or param in keywords
                                       or index is not None and npos > index)
                   for name, npos, keywords, star in calls)
    )


def test_every_defaulted_parameter_is_set_by_a_call():
    unset = unset_defaults()
    assert unset == [], (
        "no call in src/ sets these defaulted parameters; delete them, or "
        f"make them required: {unset}"
    )


def _exception_classes():
    """Names of the exception classes defined in src/: each class whose base
    is ``Exception`` or another of them."""
    bases = {c.name: _identifiers(c.bases) for _module, tree in _modules()
             for c in ast.walk(tree) if isinstance(c, ast.ClassDef)}
    found = {"Exception"}
    while grown := {name for name, names in bases.items() if name not in found and names & found}:
        found |= grown
    return found - {"Exception"}


def _dispatched_names():
    """Names in an ``except`` clause or in the class argument of an
    ``isinstance`` call anywhere in src/."""
    out = set()
    for _module, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                out |= _identifiers([node.type])
            elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                  and len(node.args) == 2):
                out |= _identifiers([node.args[1]])
    return out


def test_every_exception_class_is_dispatched_on():
    undispatched = sorted(_exception_classes() - _dispatched_names())
    assert undispatched == [], (
        "no except clause or isinstance check in src/ names these exception "
        f"classes, so nothing treats them apart from their base; fold them into it: {undispatched}"
    )


def _foreign_raises():
    """Each ``raise`` in src/ of a class not defined there, as
    ``module:line: name``. A bare ``raise`` re-raises and is skipped."""
    ours = _exception_classes()
    out = []
    for module, tree in _modules():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = getattr(exc, "id", None) or getattr(exc, "attr", None)
            if name not in ours:
                out.append((module, node.lineno, name))
    return [f"{module}:{line}: {name}" for module, line, name in sorted(out)]


def test_src_raises_only_the_package_classes():
    foreign = _foreign_raises()
    assert foreign == [], (
        "src/ raises these exceptions of classes it does not define; raise "
        f"one of {sorted(_exception_classes())} or return the outcome: {foreign}"
    )
