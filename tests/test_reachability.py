"""Every definition in ``src/repobuild`` is reached from a command.

The graph is built from the source with ``ast``, by name. Its roots are
``cli.main``, ``cli.entry`` and every module-level statement, among them
``cli._COMMANDS``, which names every command handler. A definition's edges are the ``Name`` and
``Attribute`` identifiers anywhere in it (decorators, defaults and
annotations included). A top-level function or class is reached when a
reached piece of code names it; a method is reached when its class is
reached and its name is used, and a dunder method when its class is
reached. Matching by name over-approximates, so the scan can miss dead code
whose name is used elsewhere, but it never reports code a command runs.
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
    "retrieval.score_retrieval": "to be wired into a store comparison command",
    "retrieval.normalize_url": "only score_retrieval calls it",
}


_FUNCTION = (ast.FunctionDef, ast.AsyncFunctionDef)


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
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        for stmt in ast.parse(path.read_text("utf-8"), filename=str(path)).body:
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
