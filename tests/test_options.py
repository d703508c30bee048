"""Every keyword option of the library, pinned.

Each parameter with a default doubles the configurations a caller can
reach, so the library keeps one only where a second value is in use.  The
set below is every parameter with a default in src/sympforge, dataclass
fields included; a new option has to be added to it, in a diff that is
read like any other.
"""

import ast
import pathlib

import sympforge

OPTIONS = {
    "cli.build_parser.add.infile",
    "cli.main.argv",
    "dyons.dyon_construct.type_ctx",
    "dyons.default_far_grid.nodes",
    "dyons.electrodynamics_dyon.grid",
    "forms4d.hodge_star.orientation",
    "forms4d.LorentzPoint.orientation",
    "forms4d.check_polarized_selfdual.tol",
    "monodromy.conjugacy_test_bounded.budget",
    "reduction3d.Grid3.origin",
    "reduction3d.Grid3.metric",
    "serialize.int_tuple_from_json.what",
    "serialize.float_array_from_json.shape",
    "serialize.grid_field_to_json.path",
    "serialize.grid_field_to_json.binary",
    "serialize.grid_field_from_json.base_dir",
    "siegel.random_member.word_length",
    "taming.is_taming.tol",
}


def options(node, prefix):
    """prefix.qualname.parameter for every parameter with a default below node."""
    found = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            name = f"{prefix}.{getattr(child, 'name', '<lambda>')}"
            args = child.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            found |= {f"{name}.{a.arg}" for a in defaulted} | options(child, name)
        elif isinstance(child, ast.ClassDef):
            name = f"{prefix}.{child.name}"
            found |= {f"{name}.{st.target.id}" for st in child.body
                      if isinstance(st, ast.AnnAssign) and st.value is not None}
            found |= options(child, name)
        else:
            found |= options(child, prefix)
    return found


def test_walker_sees_every_kind_of_default():
    tree = ast.parse("def f(a, b=1, *, c=2, d):\n    g = lambda x, y=0: x\n"
                     "class C:\n    u: int\n    v: int = 3\n    def m(self, w=4): pass\n")
    assert options(tree, "m") == {"m.f.b", "m.f.c", "m.f.<lambda>.y", "m.C.v", "m.C.m.w"}


def test_options_match_the_allowlist():
    found = set()
    for path in sorted(pathlib.Path(sympforge.__file__).parent.glob("*.py")):
        found |= options(ast.parse(path.read_text()), path.stem)
    assert not found - OPTIONS, f"new options: {sorted(found - OPTIONS)}"
    assert not OPTIONS - found, f"options gone, drop them here: {sorted(OPTIONS - found)}"
