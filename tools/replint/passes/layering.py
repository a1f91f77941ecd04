"""layering pass: no module-level upward imports between packages.

The codebase is layered (DESIGN.md §7, "Layering and module map")::

    obs < simkernel < metrics < workloads < {hypervisor, guestos}
        < faults < core < experiments < cluster < traffic

A package may import (at module level) only from packages at its own
rank or below. ``hypervisor`` and ``guestos`` share a rank: the
substrate is one layer split across the virtualization boundary, and
the two reference each other by design. The ``experiments <-> cluster``
back-reference is lazy (inside functions) precisely so the module
graph stays acyclic — this pass checks *module-level* imports only, so
a regression that hoists such an import to the top of a module fails
the lint.
"""

import ast
from pathlib import Path

from ..framework import Finding, register_pass

PASS = 'layering'

TOP_PACKAGE = 'repro'

#: package -> rank; lower ranks must not import from higher ones.
RANKS = {
    'obs': 0,
    'simkernel': 1,
    'metrics': 2,
    'workloads': 3,
    'hypervisor': 4,
    'guestos': 4,
    'faults': 5,
    'core': 6,
    'experiments': 7,
    'cluster': 8,
    'traffic': 9,
}


def iter_module_level_imports(tree):
    """Yield Import/ImportFrom nodes reachable without entering a
    function body (class bodies run at import time and count)."""
    stack = [tree]
    while stack:
        node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                continue
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                yield child
            else:
                stack.append(child)


def resolve_package(node, module_parts):
    """The repro subpackage an import node refers to, or None for
    stdlib / third-party / same-package-relative imports.

    ``module_parts`` is the dotted path of the importing module as a
    list, e.g. ``['repro', 'core', 'sender']``.
    """
    if isinstance(node, ast.Import):
        for alias in node.names:
            parts = alias.name.split('.')
            if parts[0] == TOP_PACKAGE and len(parts) > 1:
                return parts[1]
        return None
    # ImportFrom: resolve relative levels against the importing module.
    if node.level == 0:
        parts = (node.module or '').split('.')
        if parts and parts[0] == TOP_PACKAGE and len(parts) > 1:
            return parts[1]
        return None
    base = module_parts[:-node.level]
    if node.module:
        base = base + node.module.split('.')
    if len(base) > 1 and base[0] == TOP_PACKAGE:
        return base[1]
    return None


def check_tree(tree, module_parts):
    """Violations for one parsed module as ``(lineno, key, message)``
    tuples; ``module_parts`` as for :func:`resolve_package`."""
    if module_parts[0] != TOP_PACKAGE or len(module_parts) < 2:
        return []
    package = module_parts[1]
    if package == '__init__':
        return []                    # the top package only re-exports
    rank = RANKS.get(package)
    if rank is None:
        return [(1, 'unranked:%s' % package,
                 'package %r has no layering rank; add it to '
                 'tools/replint/passes/layering.py' % package)]
    violations = []
    for node in iter_module_level_imports(tree):
        target = resolve_package(node, module_parts)
        if target is None or target == package:
            continue
        target_rank = RANKS.get(target)
        if target_rank is None:
            violations.append(
                (node.lineno, 'unranked-target:%s' % target,
                 'imports unranked package %r; add it to '
                 'tools/replint/passes/layering.py' % target))
        elif target_rank > rank:
            violations.append(
                (node.lineno, 'upward:%s->%s' % (package, target),
                 'upward import: %s (rank %d) -> %s (rank %d); move '
                 'the import inside a function or fix the layering'
                 % (package, rank, target, target_rank)))
    return violations


def _module_parts(rel):
    parts = list(Path(rel).with_suffix('').parts)
    return parts


@register_pass(PASS, 'no module-level upward imports between the '
                     'layered repro packages')
def run(project):
    for source in project.files:
        parts = _module_parts(source.rel)
        for lineno, key, message in check_tree(source.tree, parts):
            yield Finding(PASS, source.rel, lineno, key, message)
