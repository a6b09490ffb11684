"""src/cfsim holds the product path only: every public top-level function and
class, and every public method, is referenced somewhere in src/cfsim besides its
own definition, every dataclass field is read there as an attribute, and every
function and method runs in a few tiny command-line runs. A name that only the
tests read belongs in the tests (tests/per_pair.py holds such references)."""

import ast
import inspect
import pathlib
import sys
import threading
import types

import cfsim
from cfsim import mc
from cfsim.cli import main

# Fields read outside src/cfsim: the UatF mirror's term groups (its tests), and
# the solver reports that perfbench and library callers read
ALLOWED_FIELDS = {"RateReport.power_info"} | {
    f"McResult.{name}" for name in ("desired", "gain_var", "interference", "noise_term")
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
    assert sorted(defined - referenced) == []


def test_no_import_inside_a_function():
    # `import cfsim` loads every module through the package __init__, so an
    # import in a function body defers nothing and hides a module's dependencies
    nested = [f"{path.name}:{node.lineno}"
              for path in sorted(pathlib.Path(cfsim.__file__).parent.glob("*.py"))
              for func in ast.walk(ast.parse(path.read_text()))
              if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(func) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert nested == []


def test_only_the_sampler_runs_threads():
    # the UB sampler is the one stage on threads (mc.BUDGET workers); every other
    # stage runs on the calling thread, so no other module names a thread pool
    # or imports threading
    threaded = [path.name for path in sorted(pathlib.Path(cfsim.__file__).parent.glob("*.py"))
                if {"ThreadPoolExecutor", "threading"}
                & set(_referenced_names(ast.parse(path.read_text())))]
    assert threaded == ["mc.py"]


def _classes_read_whole(trees):
    """Dataclasses whose instances src passes to asdict, which reads every field:
    the annotated type of each field that an asdict(<...>.field) call names."""
    passed = {node.args[0].attr for tree in trees for node in ast.walk(tree)
              if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "asdict"
              and isinstance(node.args[0], ast.Attribute)}
    return {ast.unparse(item.annotation) for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) for item in node.body
            if isinstance(item, ast.AnnAssign) and getattr(item.target, "id", None) in passed}


def test_every_dataclass_field_is_read_in_src():
    trees = _trees()
    defined = {name for tree in trees for name in _dataclass_fields(tree)}
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    whole = _classes_read_whole(trees)
    unread = {name for name in defined
              if name.split(".")[1] not in read and name.split(".")[0] not in whole}
    assert sorted(unread - ALLOWED_FIELDS) == []
    assert ALLOWED_FIELDS <= defined  # the allow-list names nothing that is gone


# functions no in-process run enters: the process pool's initializer runs in
# its worker processes only
NOT_IN_PROCESS = {"mc.py:set_budget"}

# tiny runs of every strategy, association mode and output path (desk preset
# unless a run names another)
RUNS = {
    "ub": ("n_ap: 4\nn_gue: 3\nn_uav: 1\nmc:\n  ub_samples: 40\n  batch_count: 2\n",
           ["--dump-debug"]),
    "maxmin": ("n_ap: 4\nn_gue: 3\nn_uav: 1\npower:\n  dl: maxmin\n  ul: maxmin\n"
               "  maxmin:\n    max_outer_iters: 2\nmc:\n  ub_samples: 0\n", ["--dump-debug"]),
    "mmimo": ("mc:\n  ub_samples: 0\n", ["--preset", "desk-mmimo"]),
    "wfpa": ("n_ap: 4\nn_gue: 3\nn_uav: 1\npower:\n  dl: wfpa\n  kappa: 0.2\n"
             "association:\n  mode: uc\n  uc_cluster_size: 2\nmc:\n  ub_samples: 0\n", []),
    # its drops run in the pool's processes, out of the profiler's sight
    "jobs": ("n_gue: 3\nn_uav: 1\nmc:\n  ub_samples: 0\n",
             ["--preset", "mmimo", "--drops", "2", "--jobs", "2"]),
}


def _src_functions():
    """module.py:qualname of every function and method in src/cfsim, nested ones
    included, keyed by (file name, first line, qualname)."""
    found = {}
    for path in sorted(pathlib.Path(cfsim.__file__).parent.glob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            for const in stack.pop().co_consts:
                if isinstance(const, types.CodeType):
                    stack.append(const)
                    # not class bodies, lambdas or comprehensions
                    if const.co_flags & inspect.CO_OPTIMIZED and not const.co_name.startswith("<"):
                        key = (path.name, const.co_firstlineno, const.co_qualname)
                        found[key] = f"{path.name}:{const.co_qualname}"
    return found


def test_every_src_function_runs_on_the_product_path(tmp_path, monkeypatch):
    monkeypatch.setattr(mc, "BUDGET", 2)  # the sampler's workers
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        for name, (text, args) in RUNS.items():
            path = tmp_path / f"{name}.yaml"
            path.write_text(text)
            argv = ["run", "--preset", "desk", "--drops", "1", *args]
            assert main([*argv, "--config", str(path), "--out", str(tmp_path / name)]) == 0
        assert main(["validate", "--config", str(tmp_path / "ub.yaml")]) == 0
        (tmp_path / "bad.yaml").write_text("power:\n  dl: bogus\n")
        assert main(["validate", "--config", str(tmp_path / "bad.yaml")]) == 2
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    ran = {(pathlib.Path(c.co_filename).name, c.co_firstlineno, c.co_qualname) for c in entered}
    functions = _src_functions()
    never = {name for key, name in functions.items() if key not in ran}
    assert sorted(never - NOT_IN_PROCESS) == []
    assert NOT_IN_PROCESS <= set(functions.values())  # the exemption names a function
