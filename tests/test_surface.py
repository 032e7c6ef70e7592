"""The public surface of ``src/bo_halfline`` that no module of it uses.

A public function, class or method (and a public attribute a class sets on
``self`` or annotates in its body, a dataclass field) counts as used when
some module of the package reads its name; an import, an ``__all__`` entry,
an assignment or a keyword argument that sets a field is no use.  A class
member is read only through an attribute load (``obj.name``), so a local
variable of the same name does not keep it; a module-level function or
class is read by its bare name as well.  What stays unused must be listed
in ``KEPT`` with the reason it stays, so a name whose last caller goes is
deleted or justified in the same change.  Attribute loads are matched
without their object, so a member that shares its name with an attribute
read elsewhere (``apply``, ``name``) counts as used: the guard finds dead
names, it does not prove the others live.

A dataclass field with a default, and a defaulted keyword of a class's own
``__init__``, must also be set by some call in the package, by position,
by keyword or through ``**``; ``cls(...)`` in a method of the class is a
call to it, and a call to a subclass without an ``__init__`` of its own is
a call to its first base.  A default that no call overrides is a setting
with one value, and belongs in a module constant.

A ``KEPT`` name must in turn be read by some file under ``tests/`` or
``benchmark/`` (matched as above, by an attribute load or a bare name): a
name that nothing at all reads is not kept, whatever its reason.
"""

import ast
from pathlib import Path

import bo_halfline

SRC = Path(bo_halfline.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent

_ORACLE = "named oracle: an independent route that tests check production against"
_HEALTH = "health row to come (ROADMAP item 8)"
_BENCH = "read by benchmark/"

KEPT = {
    "RayKernel.kernel_axis_reference": _ORACLE,
    "BoundaryKernel.apply_spectral": _ORACLE,
    "Symbols.e_minus": _ORACLE,
    "Symbols.psi_boundary": _ORACLE,
    "Symbols.y_plus": _ORACLE,
    "pv_matrix": _ORACLE,
    "MethodOfLines.hilbert_fft_crosscheck": _HEALTH,
    "MethodOfLines.step_doubling_error": _HEALTH,
    "EMinusLattice.tail_fit_residual": _HEALTH,
    "fresnel_weights": _BENCH + " (a traced layer)",
    "Symbols.resolution_tag": _BENCH + " (the direction-cache key)",
    "RunConfig.to_file": "the write half of the config file round trip",
}


def _unused_public_names() -> set[str]:
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")]
    defined: set[str] = set()
    attrs: set[str] = set()      # names loaded as obj.name
    bare: set[str] = set()       # names loaded on their own
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef):
                        defined.add(f"{node.name}.{sub.name}")
                    elif (isinstance(sub, ast.AnnAssign)
                            and isinstance(sub.target, ast.Name)):
                        defined.add(f"{node.name}.{sub.target.id}")
                for sub in ast.walk(node):
                    if (isinstance(sub, ast.Attribute)
                            and isinstance(sub.ctx, ast.Store)
                            and isinstance(sub.value, ast.Name)
                            and sub.value.id == "self"):
                        defined.add(f"{node.name}.{sub.attr}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                bare.add(node.id)

    def is_read(name: str) -> bool:
        owner, _, short = name.rpartition(".")
        return short in attrs or (not owner and short in bare)

    return {name for name in defined
            if not name.rsplit(".", 1)[-1].startswith("_") and not is_read(name)}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        func = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(func, "id", getattr(func, "attr", None)) == "dataclass":
            return True
    return False


def _init_keywords(node: ast.ClassDef) -> tuple[list[str], list[str]] | None:
    """The keywords of the class's own ``__init__`` in call order and those
    of them with a default, or None for a class without one."""
    for sub in node.body:
        if isinstance(sub, ast.FunctionDef) and sub.name == "__init__":
            a = sub.args
            order = [arg.arg for arg in a.posonlyargs + a.args][1:]
            defaulted = order[len(order) - len(a.defaults):]
            defaulted += [arg.arg for arg, d in zip(a.kwonlyargs, a.kw_defaults)
                          if d is not None]
            return order + [arg.arg for arg in a.kwonlyargs], defaulted
    return None


def _unset_defaulted_fields() -> set[str]:
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")]
    fields: dict[str, list[str]] = {}     # class -> fields in order
    base: dict[str, str] = {}             # class without __init__ -> its base
    defaulted: set[str] = set()
    for tree in trees:
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            if _is_dataclass(node):
                fields[node.name] = []
                for sub in node.body:
                    if (isinstance(sub, ast.AnnAssign)
                            and isinstance(sub.target, ast.Name)):
                        fields[node.name].append(sub.target.id)
                        if sub.value is not None:
                            defaulted.add(f"{node.name}.{sub.target.id}")
            elif (init := _init_keywords(node)) is not None:
                fields[node.name] = init[0]
                defaulted.update(f"{node.name}.{k}" for k in init[1])
            elif node.bases and isinstance(node.bases[0], ast.Name):
                base[node.name] = node.bases[0].id
    set_fields: set[str] = set()

    def visit(node: ast.AST, owner: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                name = getattr(child.func, "id", getattr(child.func, "attr", None))
                name = owner if name == "cls" else name
                while name not in fields and name in base:
                    name = base[name]
                if name in fields:
                    order = fields[name]
                    if (any(isinstance(a, ast.Starred) for a in child.args)
                            or any(k.arg is None for k in child.keywords)):
                        named = order
                    else:
                        named = order[:len(child.args)] \
                            + [k.arg for k in child.keywords]
                    set_fields.update(f"{name}.{f}" for f in named)
            visit(child, owner)

    for tree in trees:
        visit(tree, None)
    return defaulted - set_fields


def _names_read_by_tests_and_benchmark() -> set[str]:
    names: set[str] = set()
    for path in [*(ROOT / "tests").rglob("*.py"), *(ROOT / "benchmark").rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
    return names


def test_unused_public_names_are_the_kept_ones():
    unused = _unused_public_names()
    assert sorted(unused - KEPT.keys()) == [], "delete these, or keep them with a reason"
    assert sorted(KEPT.keys() - unused) == [], "used now: drop them from KEPT"


def test_every_defaulted_field_is_set_by_some_call():
    assert sorted(_unset_defaulted_fields()) == [], \
        "no call sets these: make them module constants"


def test_every_kept_name_is_read_by_a_test_or_the_benchmark():
    read = _names_read_by_tests_and_benchmark()
    assert sorted(n for n in KEPT if n.rsplit(".", 1)[-1] not in read) == [], \
        "nothing reads these: delete them, or test them"
