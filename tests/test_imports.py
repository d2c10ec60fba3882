"""Every module-level import in the library's modules is used there,
every private module-level name is used somewhere in the library, every
function reads each of its parameters, only the kernel modules read the
slice, block and packed-table layout, and only the sampler reads the
sizes of the slice, the block and the QR sub-batch.

No linter runs on the source tree, so this catches the dead imports, the
orphaned private helpers and the unread parameters a deletion leaves behind. `__init__.py` is
skipped as a module whose imports must be used: its imports are the
package's re-exports.

`python tests/test_imports.py` prints the library's line counts for each
module and in total: all lines (`wc -l`), code lines (neither blank,
comment nor docstring; `__init__.py`'s re-exports shown in parentheses and
left out of the total) and docstring lines.
"""

import ast
import io
import tokenize
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "bitretrieve"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def bound_names(tree: ast.Module) -> set[str]:
    """Names bound by the module-level imports, `from __future__` aside."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert bound_names(tree) - used == set()


def private_definitions(tree: ast.Module) -> set[str]:
    """The private names a module defines at module level: functions,
    classes and assigned constants, dunder names aside."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def uses(tree: ast.Module) -> set[str]:
    """The names a module reads or imports from a sibling."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_private_definitions(path):
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")]
    used = set().union(*(uses(tree) for tree in trees))
    assert private_definitions(ast.parse(path.read_text(encoding="utf-8"))) - used == set()


def unread_parameters(tree: ast.Module) -> set[str]:
    """`function:parameter` for each parameter of a function or lambda in
    the module that its body never reads; `self`, `cls` and names starting
    with an underscore aside."""
    unread = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        nodes = [n for stmt in body for n in ast.walk(stmt)]
        loads = [n for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)]
        # `acc += ...` reads acc, though its Name node is a store
        updated = [n.target for n in nodes if isinstance(n, ast.AugAssign)]
        read = {n.id for n in loads + updated if isinstance(n, ast.Name)}
        name = getattr(node, "name", "<lambda>")
        unread.update(
            f"{name}:{p}"
            for p in params
            if p not in read and p not in ("self", "cls") and not p.startswith("_")
        )
    return unread


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(ast.parse(path.read_text(encoding="utf-8"))) == set()


# The slice, block and packed-table layout and the accumulators that know it:
# only the modules that own the kernels may read them.
KERNEL_MODULES = ("sampler.py", "measurement.py", "recovery.py")
OTHER_MODULES = [p for p in sorted(SRC.glob("*.py")) if p.name not in KERNEL_MODULES]
LAYOUT_NAMES = {
    "_TRACE_SLICE",
    "_INPUT_BLOCK",
    "_CHUNK",
    "_SUB_BATCH_BYTES",
    "_pack_frames",
    "_pack_hermitian",
    "_packed_width",
    "_unpack_hermitian",
    "_accumulate_signed",
    "_accumulate_table",
    "_finalize_average",
}


@pytest.mark.parametrize("path", OTHER_MODULES, ids=lambda p: p.name)
def test_only_the_kernel_modules_read_the_layout(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    attributes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert (uses(tree) | attributes) & LAYOUT_NAMES == set()


# The sizes the sampler's `_slice`, `_frame_blocks` and `_sub_batch` cut by:
# no other module may read them, so that changing one changes one module.
SAMPLER_SIZES = {"_TRACE_SLICE", "_CHUNK", "_SUB_BATCH_BYTES", "_SLICE_BYTES"}


@pytest.mark.parametrize(
    "path", [p for p in sorted(SRC.glob("*.py")) if p.name != "sampler.py"], ids=lambda p: p.name
)
def test_only_the_sampler_reads_the_slice_sizes(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    attributes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert (uses(tree) | attributes) & SAMPLER_SIZES == set()


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of the module's, classes' and functions' docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def line_counts(path: Path) -> tuple[int, int, int]:
    """(all lines, code lines, docstring lines) of one source file; a code
    line holds a token other than a comment and is not in a docstring."""
    text = path.read_text(encoding="utf-8")
    docstrings = docstring_lines(ast.parse(text))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        # newlines, indents and the end marker are blank
        if token.type != tokenize.COMMENT and token.string.strip():
            code.update(range(token.start[0], token.end[0] + 1))
    return len(text.splitlines()), len(code - docstrings), len(docstrings)


if __name__ == "__main__":
    counts = {p.name: line_counts(p) for p in sorted(SRC.glob("*.py"))}
    print(f"{'':16}{'lines':>7}{'code':>7}{'docstring':>11}")
    for name, (lines, code, docs) in counts.items():
        code = f"({code})" if name == "__init__.py" else code
        print(f"{name:16}{lines:>7}{code:>7}{docs:>11}")
    counts["__init__.py"] = (counts["__init__.py"][0], 0, counts["__init__.py"][2])
    lines, code, docs = (sum(column) for column in zip(*counts.values()))
    print(f"{'total':16}{lines:>7}{code:>7}{docs:>11}")
