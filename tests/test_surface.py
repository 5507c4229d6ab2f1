"""The public surface of ``src/netcov``: every public function, class and
method, every private helper, and every module-level constant, is used by
the package or the benchmark, the package's ``__init__`` re-exports
nothing, README's library example runs as written, and its command lines
parse."""

import ast
import glob
import os
import re
import shlex

from netcov import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "netcov")

# names that only the tests call, each kept on purpose
KEEP = {
    "analytic_variance": "the scrambled-net variance the paper compares with Monte Carlo",
    "x_coefficients": "the coefficients criterion 6 compares with q_s_polynomial",
    "to_json": "writes the coefficient files simulate reads; "
               "test_criterion_9_decay_polynomial_is_pinned pins its output",
}


def _public_names(path):
    """Every public function, class and method name defined in a module."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                if not child.name.startswith("_"):
                    found.append(child.name)
                if isinstance(child, ast.ClassDef):
                    visit(child)

    with open(path, encoding="utf-8") as fh:
        visit(ast.parse(fh.read()))
    return found


def _private_names(path):
    """Every private function and class name a module defines, at any depth,
    dunders aside."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return [node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")]


def _module_constants(path):
    """Every name a module assigns at its top level, dunders aside."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    targets = [target for node in tree.body if isinstance(node, ast.Assign)
               for target in node.targets]
    targets += [node.target for node in tree.body if isinstance(node, ast.AnnAssign)]
    return [target.id for target in targets
            if isinstance(target, ast.Name) and not target.id.startswith("__")]


MODULES = [p for p in sorted(glob.glob(os.path.join(SRC, "*.py")))
           if os.path.basename(p) != "__init__.py"]
# the package and the benchmark: a public name or constant needs a reader here
PACKAGE = MODULES + sorted(glob.glob(os.path.join(ROOT, "perfbench", "*.py")))


def _names_read(paths):
    """Names read as code in the given files, so one that only a docstring
    or comment mentions, or only its assignment, has no reader."""
    read = set()
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            for node in ast.walk(ast.parse(fh.read())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
    return read


def test_every_public_name_has_a_caller():
    read = _names_read(PACKAGE)
    unused = {name for path in MODULES for name in _public_names(path)
              if name not in read}
    assert unused == set(KEEP)


def test_every_module_constant_is_read():
    # a deleted code path cannot leave its cap behind
    read = _names_read(PACKAGE)
    assert [name for path in MODULES for name in _module_constants(path)
            if name not in read] == []


def test_every_private_helper_is_read():
    # a refactor cannot leave a dead helper behind
    read = _names_read(PACKAGE)
    assert [name for path in MODULES for name in _private_names(path)
            if name not in read] == []


def test_every_kept_name_is_read_by_a_test():
    # an oracle no test calls any more cannot stay listed
    tests = _names_read(sorted(glob.glob(os.path.join(ROOT, "tests", "*.py"))))
    assert set(KEEP) - tests == set()


def test_package_init_imports_nothing():
    # each name has one home, the module that defines it
    with open(os.path.join(SRC, "__init__.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imports = [node.lineno for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports == []


def test_readme_library_example_runs():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_readme_command_lines_parse():
    # a flag renamed or removed without a README edit fails here
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        blocks = re.findall(r"```sh\n(.*?)```", fh.read(), re.DOTALL)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("netcov ")]
    assert len(lines) >= 16
    parser = cli.build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])
