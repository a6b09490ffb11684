"""src/cfsim holds the product path only: every public top-level function and
class, and every public method, is referenced somewhere in src/cfsim besides its
own definition. A name that only the tests read belongs in the tests
(tests/per_pair.py holds such references)."""

import ast
import pathlib

import cfsim

# The Monte-Carlo mirror of the closed-form bounds: the acceptance tests compare
# the closed forms against it, so it stays in the package beside the sampler
ALLOWED = {"uatf_dl_mc", "uatf_ul_mc"}


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


def test_every_public_src_name_is_referenced_in_src():
    src = pathlib.Path(cfsim.__file__).parent
    trees = [ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))]
    defined = {name for tree in trees for name in _public_definitions(tree)}
    referenced = {name for tree in trees for name in _referenced_names(tree)}
    assert sorted(defined - referenced - ALLOWED) == []
    assert ALLOWED <= defined  # the allow-list names nothing that is gone
