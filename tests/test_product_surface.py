"""Every function, class and method of the package has a reader: another line
of the package, the public `__all__`, or a stated reason below; and every
defaulted parameter has a call in the package that passes it, or a stated
reason.  A second form of an object, or an option, that nothing calls fails
here."""

import ast
from pathlib import Path

import plektonlab

SRC = Path(plektonlab.__file__).resolve().parent

# names with no reader in the package, each with why it stays
KEPT = {
    "cones.ConePath.corners": "README: a view of a region's rows; the benchmark reads it",
    "cones.ConePath.normals": "README: a view of a region's rows; the benchmark reads it",
    "cones.find_causal_pair": "the primal oracle the separation row and tests referee the "
                              "certificate against (README); the benchmark traces it",
    "fields.load_word": "README: word files are a library format read by this function",
    "fields.multiply": "README: the product of field words",
    "fields.normal_form": "README: a public operation that decides separation",
    "fields.vacuum_swap": "README: the public vacuum-overlap rewrite",
    "lattice.ClockShiftLattice.site_operator": "README: a dense public builder",
    "lattice.ClockShiftLattice.symbol_matrix": "README: a dense public builder",
    "lattice.ClockShiftLattice.word_matrix": "README: a dense public builder; the benchmark "
                                             "traces it",
    "lattice.lattice_oracle": "the finite oracle of the exchange rule (README); the benchmark's "
                              "lattice workload runs it",
    "minkowski.CoveringPoincare.identity": "README: the identity element",
    "minkowski.CoveringPoincare.is_close": "README: equality within a tolerance",
    "minkowski.MVec3.as_array": "README: a vector's array; the benchmark reads it",
}


# defaulted parameters that no call in the package passes, each with why it stays
UNPASSED = {
    "cli.main(argv)": "the console script calls main() to read sys.argv; the tests and the "
                      "benchmark pass argv",
    "lattice.lattice_oracle(sites)": "README: explicit sites for a chain order other than the "
                                     "angular one; the tests pass them",
}


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _unread(src):
    """'module.name' or 'module.Class.method' for each definition in ``src``
    that no other line of the package reads.  A method is read only by an
    attribute of its name whose receiver is unknown, or is its class or a
    class related to it by inheritance: the class's name, ``self`` inside it,
    an instance built by calling it, or an attribute that every annotation in
    the package gives that class."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(src.glob("*.py"))}
    bases, defs, annotated = {}, [], {}
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((mod, None, node))
            if not isinstance(node, ast.ClassDef):
                continue
            bases[node.name] = {b.id for b in node.bases if isinstance(b, ast.Name)}
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not _dunder(item.name):
                    defs.append((mod, node.name, item))
                # fields, and properties by their return annotation
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    name, ann = item.target.id, item.annotation
                elif isinstance(item, ast.FunctionDef) and item.decorator_list and item.returns:
                    name, ann = item.name, item.returns
                else:
                    continue
                annotated.setdefault(name, set()).add(getattr(ann, "id", None))

    def family(cls):
        return {cls}.union(*(family(b) for b in bases.get(cls, ())))

    reads = []  # (module, line, name, is an attribute, receiver class or None)
    for mod, tree in trees.items():
        owner = {id(n): cls.name for cls in tree.body if isinstance(cls, ast.ClassDef)
                 for n in ast.walk(cls)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                reads.append((mod, node.lineno, node.id, False, None))
            elif isinstance(node, ast.Attribute):
                recv, cls = node.value, None
                recv = recv.func if isinstance(recv, ast.Call) else recv
                if isinstance(recv, ast.Name):
                    cls = owner.get(id(node)) if recv.id == "self" else recv.id
                elif isinstance(recv, ast.Attribute) and len(annotated.get(recv.attr, ())) == 1:
                    (cls,) = annotated[recv.attr]
                reads.append((mod, node.lineno, node.attr, True, cls if cls in bases else None))

    for mod, cls, node in defs:
        if not any(name == node.name and not (m == mod and node.lineno <= line <= node.end_lineno)
                   and (cls is None or attr and (recv is None or recv in family(cls)
                                                 or cls in family(recv)))
                   for m, line, name, attr, recv in reads):
            yield ".".join(filter(None, (mod, cls, node.name)))


def test_every_definition_has_a_reader_an_export_or_a_reason():
    exported = set(plektonlab.__all__)
    unread = {name for name in _unread(SRC) if name.split(".", 1)[1] not in exported}
    assert sorted(unread - KEPT.keys()) == [], "no reader, no export and no reason"
    assert sorted(KEPT.keys() - unread) == [], "a reason kept for a name that is read or gone"


def _unpassed(src):
    """'module.function(param)' or 'module.Class.method(param)' for each
    defaulted parameter of a module-level function or method in ``src``
    that no call in ``src`` passes, by keyword or by position.  A call is
    matched by the definition's name (a plain name or an attribute; a class
    name for ``__init__``), and a method's positions start after self; a
    call with ``*args`` or ``**kwargs`` passes every parameter."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(src.glob("*.py"))}
    defs = []  # (qualified name, the name calls use, node, positions taken by self)
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs.append((f"{mod}.{node.name}", node.name, node, 0))
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        static = any(getattr(d, "id", None) == "staticmethod"
                                     for d in item.decorator_list)
                        called = node.name if item.name == "__init__" else item.name
                        defs.append((f"{mod}.{node.name}.{item.name}", called, item,
                                     0 if static else 1))
    calls = [node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    for qual, called, node, offset in defs:
        args = node.args
        positional = [p.arg for p in args.posonlyargs + args.args]
        defaulted = positional[len(positional) - len(args.defaults):] if args.defaults else []
        defaulted += [p.arg for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        passed = set()
        for call in calls:
            func = call.func
            if getattr(func, "id", getattr(func, "attr", None)) != called:
                continue
            if (any(isinstance(a, ast.Starred) for a in call.args)
                    or any(k.arg is None for k in call.keywords)):
                passed.update(defaulted)
            passed.update(positional[offset:offset + len(call.args)])
            passed.update(k.arg for k in call.keywords)
        yield from (f"{qual}({p})" for p in defaulted if p not in passed)


def test_every_option_has_a_caller_or_a_reason():
    unpassed = set(_unpassed(SRC))
    assert sorted(unpassed - UNPASSED.keys()) == [], "an option no call in the package passes"
    assert sorted(UNPASSED.keys() - unpassed) == [], "a reason kept for an option that is passed or gone"
