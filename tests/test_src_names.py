"""src/cfsim holds the product path only: every public top-level function and
class, and every public method, is referenced somewhere in src/cfsim besides its
own definition, and every dataclass field is read there as an attribute. A name
that only the tests read belongs in the tests (tests/per_pair.py holds such
references)."""

import ast
import pathlib

import cfsim

# The Monte-Carlo mirror of the closed-form bounds: the acceptance tests compare
# the closed forms against it, so it stays in the package beside the sampler
ALLOWED = {"uatf_mc"}

# Fields read outside src/cfsim: the mirror's term groups (its tests), and the
# solver reports that perfbench and library callers read
ALLOWED_FIELDS = {"RateReport.power_info"} | {
    f"UatfResult.{name}" for name in ("sinr", "desired", "gain_var", "interference", "noise_term")
}


def _trees():
    src = pathlib.Path(cfsim.__file__).parent
    return [ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))]


def _public_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name
            if isinstance(node, ast.ClassDef):
                yield from (m.name for m in node.body
                            if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"))


def _referenced_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]


def _dataclass_fields(tree):
    """Class.field of every annotated field of the module's dataclasses."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
            "dataclass" in ast.unparse(d) for d in node.decorator_list
        ):
            yield from (f"{node.name}.{item.target.id}" for item in node.body
                        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name))


def test_every_public_src_name_is_referenced_in_src():
    trees = _trees()
    defined = {name for tree in trees for name in _public_definitions(tree)}
    referenced = {name for tree in trees for name in _referenced_names(tree)}
    assert sorted(defined - referenced - ALLOWED) == []
    assert ALLOWED <= defined  # the allow-list names nothing that is gone


def test_every_dataclass_field_is_read_in_src():
    trees = _trees()
    defined = {name for tree in trees for name in _dataclass_fields(tree)}
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = {name for name in defined if name.split(".")[1] not in read}
    assert sorted(unread - ALLOWED_FIELDS) == []
    assert ALLOWED_FIELDS <= defined  # the allow-list names nothing that is gone
