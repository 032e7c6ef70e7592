"""The public surface of ``src/bo_halfline`` that no module of it uses.

A public function, class or method (and a public attribute a class sets on
``self`` or annotates in its body, a dataclass field) counts as used when
some module of the package reads its name; an import, an ``__all__`` entry,
an assignment or a keyword argument that sets a field is no use.  What
stays unused must be listed in ``KEPT`` with the reason it stays, so a name
whose last caller goes is deleted or justified in the same change.  Names
are matched bare, so a name shared with a used one (``apply``, ``name``)
always counts as used: the guard finds dead names, it does not prove the
others live.
"""

import ast
from pathlib import Path

import bo_halfline

SRC = Path(bo_halfline.__file__).resolve().parent

_ORACLE = "named oracle: an independent route that tests check production against"
_HEALTH = "health row to come (ROADMAP item 8)"
_BENCH = "read by benchmark/"

KEPT = {
    "EMinusLattice.kernel_axis_reference": _ORACLE,
    "BoundaryKernel.apply_spectral": _ORACLE,
    "Symbols.e_minus": _ORACLE,
    "Symbols.psi_boundary": _ORACLE,
    "Symbols.y_plus": _ORACLE,
    "pv_matrix": _ORACLE,
    "MethodOfLines.hilbert_mat": _ORACLE,
    "EMinusLattice.kernel_zero_defect": _HEALTH,
    "MethodOfLines.hilbert_fft_crosscheck": _HEALTH,
    "MethodOfLines.step_doubling_error": _HEALTH,
    "EMinusLattice.tail_fit_residual": _HEALTH,
    "EMinusLattice.tail_lam0": "the corner model's constants, beside its residual",
    "EMinusLattice.tail_lam1": "the corner model's constants, beside its residual",
    "fresnel_weights": _BENCH + " (a traced layer)",
    "Symbols.resolution_tag": _BENCH + " (the direction-cache key)",
    "RunConfig.to_file": "the write half of the config file round trip",
}


def _unused_public_names() -> set[str]:
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")]
    defined: set[str] = set()
    read: set[str] = set()
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
            if (isinstance(node, (ast.Name, ast.Attribute))
                    and not isinstance(node.ctx, ast.Store)):
                read.add(node.id if isinstance(node, ast.Name) else node.attr)
    return {name for name in defined
            if not name.rsplit(".", 1)[-1].startswith("_")
            and name.rsplit(".", 1)[-1] not in read}


def test_unused_public_names_are_the_kept_ones():
    unused = _unused_public_names()
    assert sorted(unused - KEPT.keys()) == [], "delete these, or keep them with a reason"
    assert sorted(KEPT.keys() - unused) == [], "used now: drop them from KEPT"
