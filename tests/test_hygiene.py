"""Source hygiene checks that need no linter: the standard library's ast and
tokenize only."""

import ast
import inspect
import io
import pathlib
import re
import tokenize

import fusionrec

PACKAGE = pathlib.Path(fusionrec.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parent.parent
# where a definition of the package may be referenced
REFERENCE_DIRS = ("src", "tests", "perfbench")

# (module, name) -> why the import stays although the module never reads it
ALLOWED_UNUSED = {
    ("experiment", "train_loop"):
        "perfbench/spans.py wraps experiment.train_loop by name, and a test "
        "monkeypatches it",
}


def unused_imports(path):
    """Names a module binds by import and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {name for name in imported if name not in used}


def modules():
    """(dotted module name, path) of every module but the __init__ files,
    whose imports are the package's re-exports."""
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name != "__init__.py":
            rel = path.relative_to(PACKAGE).with_suffix("")
            yield ".".join(rel.parts), path


def test_no_module_imports_a_name_it_never_uses():
    found = {(mod, name) for mod, path in modules()
             for name in unused_imports(path)}
    assert sorted(found - set(ALLOWED_UNUSED)) == []
    # an entry whose import went or is now read must leave the allowlist
    assert sorted(set(ALLOWED_UNUSED) - found) == []


def test_unused_import_check_sees_an_unused_name(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("from __future__ import annotations\n"
                    "import os\nimport numpy as np\nfrom a.b import c, d\n"
                    "print(np.zeros(1), d)\n")
    assert unused_imports(path) == {"os", "c"}


# (module, name) -> why the definition stays although nothing references it
ALLOWED_UNREFERENCED = {}

# a string naming a definition, alone or as a dotted path
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*\Z")


def definitions(tree):
    """(name, first line, last line) of each module-level function, class
    and constant, and of each method that is not a dunder."""
    found = []

    def add(name, node):
        if not (name.startswith("__") and name.endswith("__")):
            found.append((name, node.lineno, node.end_lineno))

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            add(node.name, node)
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    add(item.name, item)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        add(name.id, node)
    return found


def references(tree):
    """(name, line) of every name read, attribute read, import alias, and
    identifier or dotted path written as a string; docstrings excluded."""
    docs = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            for part in node.name.split(".") + [node.asname or ""]:
                yield part, node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docs and _DOTTED.match(node.value)):
            for part in node.value.split("."):
                yield part, node.lineno


def unreferenced(defining, referencing):
    """(path, name) of each definition in the `defining` files that no
    `referencing` file references outside the definition itself."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in set(defining) | set(referencing)}
    lines = {}  # name -> {path: lines referencing it}
    for path in referencing:
        for name, line in references(trees[path]):
            lines.setdefault(name, {}).setdefault(path, []).append(line)
    found = set()
    for path in defining:
        for name, first, last in definitions(trees[path]):
            seen = lines.get(name, {})
            if not any(other != path or not first <= line <= last
                       for other, at in seen.items() for line in at):
                found.add((path, name))
    return found


def test_every_definition_is_referenced():
    # perfbench/_work holds run outputs, not code
    referencing = [path for folder in REFERENCE_DIRS
                   for path in sorted((ROOT / folder).rglob("*.py"))
                   if "_work" not in path.parts]
    found = {(".".join(path.relative_to(PACKAGE).with_suffix("").parts), name)
             for path, name in unreferenced(sorted(PACKAGE.rglob("*.py")), referencing)}
    assert sorted(found - set(ALLOWED_UNREFERENCED)) == []
    # an entry that is now referenced, or gone, must leave the allowlist
    assert sorted(set(ALLOWED_UNREFERENCED) - found) == []


def test_unreferenced_check_sees_an_unused_definition(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        '"""Docstrings name nothing: dead, Box.dead."""\n'
        "LIMIT = 3\nSPARE, _HIDDEN = 1, 2\n"
        "def used():\n    return LIMIT\n"
        "def dead():\n    return dead()\n"
        "def by_string():\n    pass\n"
        "class Box:\n    def __len__(self):\n        return 0\n"
        "    def method(self):\n        return self.method\n"
        "    def read(self):\n        'dead'\n        return used()\n"
    )
    caller = tmp_path / "caller.py"
    caller.write_text("from sample import Box as B\n"
                      "B().read()\nprint('unknown dead', 'sample.by_string')\n")
    found = {name for _, name in unreferenced([sample], [sample, caller])}
    assert found == {"SPARE", "_HIDDEN", "dead", "method"}


# sparse-to-dense conversions: a sparse graph is multiplied as it is stored
DENSIFYING = ("toarray", "todense")


def densifying_calls(path):
    """(line of the method name, method) of every call to a method named
    in DENSIFYING."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {(node.func.end_lineno, node.func.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in DENSIFYING}


def test_no_module_densifies_a_sparse_matrix():
    found = {(mod, line, name) for mod, path in modules()
             for line, name in densifying_calls(path)}
    assert sorted(found) == []


def test_densifying_check_sees_a_conversion(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text('"""Docstrings name nothing: m.toarray()."""\n'
                    "dense = m.csr().toarray()\n"
                    "other = m.todense\n"
                    "full = np.asarray(m.todense())\n"
                    "graph = (knn(x)\n         .toarray())\n")
    assert densifying_calls(path) == {(2, "toarray"), (4, "todense"), (6, "toarray")}


def scoped_nodes(path):
    """(qualified name of the innermost enclosing function or None, node)
    of every node of a module below its class and function definitions."""
    def visit(node, scope, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, scope + (child.name,), func)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = scope + (child.name,)
                yield from visit(child, inner, ".".join(inner))
                continue
            yield func, child
            yield from visit(child, scope, func)

    return visit(ast.parse(path.read_text(encoding="utf-8")), (), None)


def calls(path, names, owners=None):
    """(qualified name of the innermost enclosing function or None, line,
    name) of every call to a function named in `names`, bare or as an
    attribute. With `owners`, only attribute calls on one of those names
    count: str.partition shares np.partition's name."""
    found = set()
    for func, node in scoped_nodes(path):
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Attribute) and f.attr in names and (
                    owners is None
                    or isinstance(f.value, ast.Name) and f.value.id in owners):
                found.add((func, node.lineno, f.attr))
            elif isinstance(f, ast.Name) and f.id in names and owners is None:
                found.add((func, node.lineno, f.id))
    return found


# numpy's partial sorts, allowed only in the one top-k path (module, function)
PARTITIONING = ("partition", "argpartition")
TOPK_HELPERS = {("evaluation", "topk_rows"), ("evaluation", "_topk_exact")}


def test_only_the_topk_helpers_partition():
    found = {(mod, func) for mod, path in modules()
             for func, _, _ in calls(path, PARTITIONING, owners=("np", "numpy"))}
    assert sorted(found - TOPK_HELPERS, key=str) == []


def test_partition_check_sees_a_partial_sort(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text('"""Docstrings name nothing: np.partition(x, 1)."""\n'
                    "import numpy\nimport numpy as np\n"
                    "kth = numpy.argpartition(x, 2)\n"
                    "def ranked(x):\n"
                    "    head, _, _ = 'a:b'.partition(':')\n"
                    "    def inner(y):\n"
                    "        return np.partition(y, 1)\n"
                    "    return np.argpartition(x, 1), inner\n")
    assert calls(path, PARTITIONING, owners=("np", "numpy")) == {
        (None, 4, "argpartition"), ("ranked.inner", 8, "partition"),
        ("ranked", 9, "argpartition")}


# numpy's float-error policy is set only where the tape computes: the two
# recording bodies, l2_normalize and backward, all under errstate(all="ignore"),
# so no caller hides a warning or changes what raises NonFiniteError
FLOAT_POLICY = {("tensor", f"Tape.{func}", "errstate") for func in (
    "_unary", "_binary", "l2_normalize", "backward")}
SETTING_FLOAT_POLICY = ("errstate", "seterr")


def test_only_the_tape_sets_numpys_float_error_policy():
    found = {(mod, func, name) for mod, path in modules()
             for func, _, name in calls(path, SETTING_FLOAT_POLICY)}
    # every body on the list sets it, and nothing else does
    assert sorted(found, key=str) == sorted(FLOAT_POLICY, key=str)


def test_float_policy_check_sees_errstate_and_seterr(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text('"""Docstrings name nothing: np.errstate(all="ignore")."""\n'
                    "import numpy as np\nfrom numpy import errstate, seterr\n"
                    "class Tape:\n"
                    "    def _unary(self, x):\n"
                    "        with np.errstate(all='ignore'):\n"
                    "            return x\n"
                    "def caller(x):\n"
                    "    with errstate(over='ignore'):\n"
                    "        return np.errstate(under='raise')\n"
                    "old = seterr(all='ignore')\n")
    assert calls(path, SETTING_FLOAT_POLICY) == {
        ("Tape._unary", 6, "errstate"), ("caller", 9, "errstate"),
        ("caller", 10, "errstate"), (None, 11, "seterr")}


# a BPR loss is formed in one place: the model base's scorer, which every
# triple loss (a model's main term and FREEDOM's modality terms) calls
BPR_SCORER = {("models.base", "bpr_on_rows")}


def test_only_bpr_on_rows_forms_a_bpr_loss():
    found = {(mod, func) for mod, path in modules()
             for func, _, _ in calls(path, ("bpr_loss",))}
    assert sorted(found, key=str) == sorted(BPR_SCORER)


# a tape skips its finiteness checks only in tensor.checked_once, which
# checks its run's result once and replays a failing run on a checked tape;
# the training loop (per batch) and embed (per scoring pass) call it, and
# tests and every other caller get a checked tape
UNCHECKED_TAPES = {("tensor", "checked_once")}


def unchecked_tapes(path):
    """(qualified name of the innermost enclosing function or None, line) of
    every Tape(...) call that may pass `checked` as anything but True."""
    found = set()
    for func, node in scoped_nodes(path):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if (f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)) != "Tape":
            continue
        given = node.args + [k.value for k in node.keywords if k.arg in ("checked", None)]
        if any(not (isinstance(a, ast.Constant) and a.value is True) for a in given):
            found.add((func, node.lineno))
    return found


def test_only_checked_once_builds_an_unchecked_tape():
    found = {(mod, func) for mod, path in modules()
             for func, _ in unchecked_tapes(path)}
    assert sorted(found, key=str) == sorted(UNCHECKED_TAPES)


def test_unchecked_tape_check_sees_every_form_of_the_argument(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text('"""Docstrings name nothing: Tape(checked=False)."""\n'
                    "a, b = Tape(), T.Tape(checked=True)\n"
                    "def loop(flag, opts):\n"
                    "    c = Tape(checked=False)\n"
                    "    d = T.Tape(flag)\n"
                    "    return Tape(**opts), Tape(True), Tape.backward(c)\n")
    assert unchecked_tapes(path) == {("loop", 4), ("loop", 5), ("loop", 6)}


# the functions of tensor.py that may call np.where: l2_normalize's zero-row
# branch
WHERE_ALLOWED = {"Tape.l2_normalize", "Tape.l2_normalize.rule"}


def test_the_tape_selects_per_entry_only_where_such_entries_exist():
    """np.where selects each entry by a branch on its condition, and a
    data-dependent condition costs a branch per entry: on mixed-sign
    7,325 x 64 float32 it took 2.05 ms against 0.26 ms on a sorted one. So
    the tape calls it only on a path that runs when the entries it fixes
    exist, l2_normalize's zero rows, and every other mask is arithmetic or a
    table lookup."""
    found = calls(PACKAGE / "tensor.py", ("where",), owners=("np", "numpy"))
    assert sorted({func for func, _, _ in found}) == sorted(WHERE_ALLOWED)


def test_where_check_sees_np_and_numpy_calls(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text('"""Docstrings name nothing: np.where(x > 0, 1, s)."""\n'
                    "import numpy\nimport numpy as np\n"
                    "m = numpy.where(x > 0)\n"
                    "class Tape:\n"
                    "    def leaky_relu(self, x, s):\n"
                    "        w = re.where(x)\n"
                    "        return lambda y: np.where(y > 0, 1.0, s)\n"
                    "    def l2_normalize(self, x):\n"
                    "        def rule(g):\n"
                    "            return np.where(g > 0, g, 0.0)\n"
                    "        return rule\n")
    assert calls(path, ("where",), owners=("np", "numpy")) == {
        (None, 4, "where"), ("Tape.leaky_relu", 8, "where"),
        ("Tape.l2_normalize.rule", 11, "where")}


# a SparseMatrix holds float64 values, and the tape's sparse products cast
# them to the dense operand's dtype, so neither its constructors nor any graph
# builder takes a dtype
GRAPH_BUILDERS = ("knn_graph", "item_graph", "bipartite_adjacency",
                  "bipartite_structure")


def test_sparse_constructors_and_graph_builders_take_no_dtype():
    from fusionrec.models import base
    from fusionrec.tensor import SparseMatrix

    builders = [getattr(base, name) for name in GRAPH_BUILDERS]
    taking = [f.__qualname__ for f in (SparseMatrix.__init__, SparseMatrix.from_dense,
                                       *builders)
              if "dtype" in inspect.signature(f).parameters]
    assert taking == []


# eval_every >= 1 is checked once, by TrainerConfig, and only the training
# loop reads the value, to schedule its evaluations
EVAL_EVERY_READERS = {("training", "TrainerConfig.__post_init__"),
                      ("schema", "train_loop")}


def attribute_reads(path, name):
    """(qualified name of the innermost enclosing function or None, line) of
    every read of an attribute called `name`."""
    return {(func, node.lineno) for func, node in scoped_nodes(path)
            if isinstance(node, ast.Attribute) and node.attr == name
            and isinstance(node.ctx, ast.Load)}


def test_only_the_trainer_config_and_the_loop_read_eval_every():
    found = {(mod, func) for mod, path in modules()
             for func, _ in attribute_reads(path, "eval_every")}
    assert sorted(found, key=str) == sorted(EVAL_EVERY_READERS)


def test_attribute_read_check_sees_reads_not_stores(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text('"""Docstrings name nothing: trainer.eval_every."""\n'
                    "class TrainerConfig:\n"
                    "    eval_every: int = 10\n"
                    "    def __post_init__(self):\n"
                    "        assert self.eval_every >= 1\n"
                    "def loop(trainer):\n"
                    "    trainer.eval_every = 2\n"
                    "    return replace(trainer, eval_every=3).eval_every\n"
                    "every = config.trainer.eval_every\n")
    assert attribute_reads(path, "eval_every") == {
        ("TrainerConfig.__post_init__", 5), ("loop", 8), (None, 9)}


# a feature file's format follows from its name, and only the reader that owns
# the formats looks at the name
NAME_READERS = {("modality", "load_features")}


def name_reads(path):
    """(qualified name of the innermost enclosing function or None, line) of
    every endswith or splitext call and every read of a suffix attribute."""
    return attribute_reads(path, "suffix") | {
        (func, line) for func, line, _ in calls(path, ("endswith", "splitext"))}


def test_only_the_feature_reader_reads_a_file_name():
    found = {(mod, func) for mod, path in modules() for func, _ in name_reads(path)}
    assert sorted(found, key=str) == sorted(NAME_READERS)


def test_name_check_sees_endswith_splitext_and_suffix(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text('"""Docstrings name nothing: path.endswith(".tsv")."""\n'
                    "import os\n"
                    "def load_features(path):\n"
                    "    return str(path).endswith('.tsv')\n"
                    "def load_store(path):\n"
                    "    root, ext = os.path.splitext(path)\n"
                    "    return path.suffix == '.tsv'\n"
                    "def rename(path):\n"
                    "    path.suffix = '.bin'\n"
                    "kind = splitext(name)[1]\n")
    assert name_reads(path) == {("load_features", 4), ("load_store", 6),
                                ("load_store", 7), (None, 10)}


# deterministic text artifacts have one byte format, written by dataset's
# two helpers; binary writes (checkpoint blobs, feature files) are free
TEXT_WRITERS = {("dataset", "write_text")}


def text_writes(path):
    """(qualified name of the innermost enclosing function or None, line,
    name) of every json.dump and every open() whose mode may write text:
    a mode that is not a string constant, or holds no "b" and one of
    "wax+". The mode is open's and io.open's second argument, and the first
    of an open method (pathlib's)."""
    found = calls(path, ("dump",), owners=("json",))
    for func, node in scoped_nodes(path):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id == "open":
            at = 1
        elif isinstance(f, ast.Attribute) and f.attr == "open":
            at = 1 if isinstance(f.value, ast.Name) and f.value.id == "io" else 0
        else:
            continue
        mode = node.args[at] if len(node.args) > at else next(
            (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r"))
        if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) or (
                "b" not in mode.value and set(mode.value) & set("wax+")):
            found.add((func, node.lineno, "open"))
    return found


def test_every_text_artifact_goes_through_the_dataset_helpers():
    found = {(mod, func) for mod, path in modules()
             for func, _, _ in text_writes(path)}
    assert sorted(found, key=str) == sorted(TEXT_WRITERS)


def test_text_write_check_sees_open_and_json_dump(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text('"""Docstrings name nothing: open(p, "w")."""\n'
                    "import json\n"
                    "def write_text(path, text, mode):\n"
                    "    with open(path, 'w', encoding='utf-8') as fh:\n"
                    "        fh.write(text)\n"
                    "    open(path, mode)\n"
                    "def readers(path, fh):\n"
                    "    open(path), open(path, 'rb'), io.open(path, mode='r')\n"
                    "    open(path, 'wb'), path.open('ab'), pickle.dump(fh, fh)\n"
                    "    json.dump({}, fh), path.open(mode='a'), open(path, 'r+')\n"
                    "with io.open(p, 'x', newline='\\n') as fh:\n"
                    "    json.dumps(1), p.open('w')\n")
    assert text_writes(path) == {
        ("write_text", 4, "open"), ("write_text", 6, "open"),
        ("readers", 10, "dump"), ("readers", 10, "open"), (None, 11, "open"),
        (None, 12, "open")}


# sparse layouts: scipy's COO to CSR sort runs only in tensor._bucket, and
# tensor.py neither lexsorts nor builds a csr_matrix outside SparseMatrix.csr
LAYOUT_SORT = {("tensor", "_bucket")}
TENSOR_LAYOUT = {("SparseMatrix.csr", "csr_matrix")}


def test_every_sparse_layout_comes_from_the_bucket_helper():
    found = {(mod, func) for mod, path in modules()
             for func, _, _ in calls(path, ("coo_tocsr",))}
    assert sorted(found - LAYOUT_SORT, key=str) == []
    found = {(func, name) for func, _, name
             in calls(PACKAGE / "tensor.py", ("lexsort", "csr_matrix"))}
    assert sorted(found - TENSOR_LAYOUT, key=str) == []


def test_layout_check_sees_a_sort_and_a_conversion(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text('"""Docstrings name nothing: np.lexsort(k)."""\n'
                    "from scipy.sparse import csr_matrix\n"
                    "def _bucket(k):\n"
                    "    return _sparsetools.coo_tocsr(k)\n"
                    "class SparseMatrix:\n"
                    "    def csr(self):\n"
                    "        return scipy.sparse.csr_matrix(self)\n"
                    "    def other(self):\n"
                    "        return csr_matrix(np.lexsort(self))\n"
                    "order = coo_tocsr(1)\n")
    assert calls(path, ("coo_tocsr", "lexsort", "csr_matrix")) == {
        ("_bucket", 4, "coo_tocsr"), ("SparseMatrix.csr", 7, "csr_matrix"),
        ("SparseMatrix.other", 9, "csr_matrix"), ("SparseMatrix.other", 9, "lexsort"),
        (None, 10, "coo_tocsr")}


def name_uses(path, names):
    """(qualified name of the innermost enclosing function or None, line,
    name) of every import, name, attribute or string that is one of
    `names`."""
    found = set()
    for func, node in scoped_nodes(path):
        if isinstance(node, ast.Import):
            used = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            used = [(node.module or "").split(".")[0]]
            used += [alias.name for alias in node.names]
        elif isinstance(node, ast.Name):
            used = [node.id]
        elif isinstance(node, ast.Attribute):
            used = [node.attr]
        elif isinstance(node, ast.Constant):
            used = [node.value]
        else:
            continue
        found.update((func, node.lineno, name) for name in used if name in names)
    return found


# one layout per sparse matrix: the counting sort orders entries only for
# entry_order, and the product by a CSR and by its transpose, the same arrays
# read as a CSC, reach scipy's two kernels through one helper
ONE_LAYOUT = {("tensor", "entry_order", "_bucket"),
              ("tensor", "_csr_product", "csr_matvecs"),
              ("tensor", "_csr_product", "csc_matvecs")}


def test_each_sparse_matrix_has_one_layout():
    found = {(mod, func, name) for mod, path in modules()
             for func, _, name in name_uses(path, {n for _, _, n in ONE_LAYOUT})}
    assert sorted(found, key=str) == sorted(ONE_LAYOUT, key=str)


def test_layout_use_check_sees_calls_and_references(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text('"""Docstrings name nothing: _bucket(keys, n)."""\n'
                    "def entry_order(rows, cols):\n"
                    "    return _bucket(rows[_bucket(cols, 3)[1]], 4)\n"
                    "class SparseMatrix:\n"
                    "    def transpose(self):\n"
                    "        return T._bucket(self.cols, 3)\n"
                    "class Tape:\n"
                    "    def row_gather(self, idx):\n"
                    "        return lambda g: _csr_product(*_bucket(idx, 4), g)\n"
                    "def _csr_product(transposed):\n"
                    "    kernel = _sparsetools.csc_matvecs if transposed else csr_matvecs\n"
                    "    return kernel(1)\n")
    assert name_uses(path, ("_bucket", "csr_matvecs", "csc_matvecs")) == {
        ("entry_order", 3, "_bucket"), ("SparseMatrix.transpose", 6, "_bucket"),
        ("Tape.row_gather", 9, "_bucket"), ("_csr_product", 11, "csc_matvecs"),
        ("_csr_product", 11, "csr_matvecs")}


# the C library is reached in two places, both in tensor and through ctypes:
# the malloc policy and the scoped flush-to-zero mode
NATIVE = ("ctypes", "mallopt")
NATIVE_HELPERS = {("tensor", "_pin_malloc_thresholds"), ("tensor", "flush_to_zero")}


def test_only_the_malloc_policy_reaches_the_c_library():
    found = {(mod, func) for mod, path in modules()
             for func, _, _ in name_uses(path, NATIVE)}
    assert sorted(found, key=str) == sorted(NATIVE_HELPERS)


def test_native_check_sees_ctypes_and_mallopt(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text('"""Docstrings name nothing: ctypes.CDLL(None).mallopt."""\n'
                    "import ctypes.util\n"
                    "from ctypes import CDLL\n"
                    "def _pin_malloc_thresholds():\n"
                    "    import ctypes\n"
                    "    return ctypes.CDLL(None).mallopt(-3, 1)\n"
                    "class Library:\n"
                    "    def load(self, lib):\n"
                    "        return getattr(lib, 'mallopt')\n"
                    "mallopt = None\n"
                    "@contextlib.contextmanager\n"
                    "def flush_to_zero():\n"
                    "    import ctypes\n"
                    "    yield ctypes.CDLL(None).fegetenv(ctypes.c_int(0))\n")
    assert name_uses(path, NATIVE) == {
        (None, 2, "ctypes"), (None, 3, "ctypes"),
        ("_pin_malloc_thresholds", 5, "ctypes"),
        ("_pin_malloc_thresholds", 6, "ctypes"),
        ("_pin_malloc_thresholds", 6, "mallopt"),
        ("Library.load", 9, "mallopt"), (None, 10, "mallopt"),
        ("flush_to_zero", 13, "ctypes"), ("flush_to_zero", 14, "ctypes")}


# a thread's float environment is read and written in one place: the scoped
# flush-to-zero mode that schema.train_loop runs each epoch's batches in
FLOAT_ENVIRONMENT = ("fegetenv", "fesetenv")
FLOAT_MODE = {("tensor", "flush_to_zero")}


def test_only_flush_to_zero_touches_the_float_environment():
    found = {(mod, func) for mod, path in modules()
             for func, _, _ in name_uses(path, FLOAT_ENVIRONMENT)}
    assert sorted(found, key=str) == sorted(FLOAT_MODE)


def test_float_environment_check_sees_names_and_strings(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text('"""Docstrings name nothing: libc.fesetenv(env)."""\n'
                    "import ctypes\n"
                    "def flush_to_zero():\n"
                    "    libc = ctypes.CDLL(None)\n"
                    "    return libc.fegetenv, getattr(libc, 'fesetenv')\n"
                    "class Trainer:\n"
                    "    def step(self, libc):\n"
                    "        libc.fesetenv(self.env)\n"
                    "from fenv import fegetenv\n"
                    "fesetenv = None\n")
    assert name_uses(path, FLOAT_ENVIRONMENT) == {
        ("flush_to_zero", 5, "fegetenv"), ("flush_to_zero", 5, "fesetenv"),
        ("Trainer.step", 8, "fesetenv"), (None, 9, "fegetenv"),
        (None, 10, "fesetenv")}


# consecutive code lines that are written at most once in the package
BLOCK_LINES = 4


def code_lines(path):
    """(line number, text) of each code line of a module: blank lines,
    comments and docstrings dropped, each run of whitespace one space."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type == tokenize.COMMENT:
            row, col = token.start
            lines[row - 1] = lines[row - 1][:col]
    docs = {line for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
            for line in range(node.lineno, node.end_lineno + 1)}
    return [(number, " ".join(line.split()))
            for number, line in enumerate(lines, start=1)
            if line.strip() and number not in docs]


def repeated_blocks(paths, root):
    """The places ("path:line", relative to root, at the block's first
    line) of each BLOCK_LINES consecutive code lines found more than once."""
    places = {}
    for path in paths:
        lines = code_lines(path)
        for at in range(len(lines) - BLOCK_LINES + 1):
            block = tuple(text for _, text in lines[at:at + BLOCK_LINES])
            places.setdefault(block, []).append(
                f"{path.relative_to(root).as_posix()}:{lines[at][0]}")
    return {tuple(where) for where in places.values() if len(where) > 1}


def test_no_four_line_block_is_written_twice():
    found = repeated_blocks(sorted(PACKAGE.rglob("*.py")), PACKAGE)
    assert sorted(found) == []


def test_repeated_block_check_sees_a_copy(tmp_path):
    (tmp_path / "a.py").write_text(
        '"""One\ntwo\nthree\nfour."""\n'
        "def f(x):\n    y = x + 1\n    z = y * 2\n    return z\n"
        "p = 1\nq = 2\nr = 3\n")
    (tmp_path / "b.py").write_text(
        "class C:\n    '''One\n    two\n    three\n    four.'''\n"
        "    def f(x):\n        # a comment\n        y  =  x + 1\n\n"
        "        z = y * 2  # trailing\n        return z\n"
        "s = 0\np = 1\nq = 2\nr = 3\n")
    paths = [tmp_path / "a.py", tmp_path / "b.py"]
    assert repeated_blocks(paths, tmp_path) == {("a.py:5", "b.py:6")}


def _is_call(node, name):
    """Whether node calls a function named `name`, bare or as an attribute."""
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    return (f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)) == name


def written_out_sampled_dots(path):
    """(qualified name of the innermost enclosing function or None, line) of
    every rowsum call whose operand is a mul call taking as an operand a
    row_gather call, or a name that this function or one enclosing it
    assigns one."""
    nodes = list(scoped_nodes(path))
    gathered = {(func, target.id) for func, node in nodes
                if isinstance(node, ast.Assign) and _is_call(node.value, "row_gather")
                for target in node.targets if isinstance(target, ast.Name)}

    def reads_a_gather(func, arg):
        if _is_call(arg, "row_gather"):
            return True
        return isinstance(arg, ast.Name) and any(
            name == arg.id and (scope == func or scope is None
                                or (func or "").startswith(scope + "."))
            for scope, name in gathered)

    return {(func, node.lineno) for func, node in nodes
            if _is_call(node, "rowsum") and node.args and _is_call(node.args[0], "mul")
            and any(reads_a_gather(func, arg) for arg in node.args[0].args)}


def test_no_module_writes_out_a_sampled_dot_product():
    # a[row] . b[col] over given pairs is Tape.entry_dot, which forms no
    # gathered nnz x width array in either pass
    found = {(mod, func, line) for mod, path in modules()
             for func, line in written_out_sampled_dots(path)}
    assert sorted(found, key=str) == []


def test_sampled_dot_check_sees_gathers_inline_and_by_name(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text('"""Docstrings name nothing: t.rowsum(t.mul(q, f))."""\n'
                    "def score(t, u, items, idx):\n"
                    "    q = t.row_gather(u, idx)\n"
                    "    plain = t.rowsum(t.mul(u, items))\n"
                    "    inline = t.rowsum(t.mul(u, t.row_gather(items, idx)))\n"
                    "    def inner(f):\n"
                    "        return t.rowsum(t.mul(q, f))\n"
                    "    return t.rowsum(t.mul(q, items)), t.sum(t.mul(q, q))\n"
                    "class Tape:\n"
                    "    def cosine(self, a, idx):\n"
                    "        return self.rowsum(self.mul(a, row_gather(a, idx)))\n"
                    "f = rowsum(mul(row_gather(a, i), b))\n")
    assert written_out_sampled_dots(path) == {
        ("score", 5), ("score.inner", 7), ("score", 8), ("Tape.cosine", 11),
        (None, 12)}


# the sampled product's body, blockwise over the stored entries, runs for
# the primitive itself and for spmm_weighted's value gradient, which is one
SAMPLED_PRODUCT = {("tensor", "Tape.entry_dot", "_entry_dot"),
                   ("tensor", "Tape._spmm", "_entry_dot")}


def test_only_entry_dot_and_the_value_gradient_run_the_sampled_product():
    found = {(mod, func, name) for mod, path in modules()
             for func, _, name in name_uses(path, {"_entry_dot"})}
    assert sorted(found, key=str) == sorted(SAMPLED_PRODUCT, key=str)


# a row dot, a[i] . b[i], goes through one BLAS dot per row: tensor's
# _row_dot, which copies strided rows first, is the one caller of numpy's dot
# ufuncs, and no sum of a product is left in the tape for it to replace
ROW_DOT = {("tensor", "_row_dot")}
DOT_UFUNCS = {"vecdot", "vdot"}


def test_only_the_row_dot_helper_calls_numpys_vector_dots():
    found = {(mod, func) for mod, path in modules()
             for func, _, _ in name_uses(path, DOT_UFUNCS)}
    assert sorted(found, key=str) == sorted(ROW_DOT)


def product_sums(path):
    """(qualified name of the innermost enclosing function or None, line) of
    every sum of a `*` product: its .sum() method, or sum() or np.sum() of
    one."""
    def is_product(node):
        return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)

    found = set()
    for func, node in scoped_nodes(path):
        if not _is_call(node, "sum"):
            continue
        f = node.func
        if isinstance(f, ast.Attribute) and is_product(f.value) or (
                node.args and is_product(node.args[0])):
            found.add((func, node.lineno))
    return found


def test_the_tape_sums_no_product():
    assert sorted(product_sums(PACKAGE / "tensor.py"), key=str) == []


def test_dot_checks_see_vecdot_vdot_and_product_sums(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text('"""Docstrings name nothing: np.vecdot(a, b), (x * x).sum()."""\n'
                    "import numpy as np\nfrom numpy import vdot\n"
                    "def _row_dot(a, b):\n"
                    "    return np.vecdot(a, b)\n"
                    "class Tape:\n"
                    "    def norm(self, x, w):\n"
                    "        s = (x * x).sum(axis=1) + (x + w).sum() + x.sum()\n"
                    "        t = np.sum(x * w) + np.sum(x) * 2\n"
                    "        return sum(w * 2)\n"
                    "dot = np.linalg.vecdot\n")
    assert name_uses(path, DOT_UFUNCS) == {
        (None, 3, "vdot"), ("_row_dot", 5, "vecdot"), (None, 11, "vecdot")}
    assert product_sums(path) == {("Tape.norm", 8), ("Tape.norm", 9),
                                  ("Tape.norm", 10)}


# backward alone decides which gradients it owns: it is the one caller that
# hands a rule a gradient its input already holds (held=), and a rule uses
# that array only as the out= of _csr_product, the one helper that adds into
# a caller's array
HELD_OWNER = ("tensor", "Tape.backward")


def held_gradient_uses(path):
    """(qualified name of the innermost enclosing function or None, line,
    use) of every call that passes `held=` ("hands"), and of every name
    `held` other than one inside the out= of a _csr_product call ("uses")."""
    nodes = list(scoped_nodes(path))
    into = {id(n) for _, node in nodes if _is_call(node, "_csr_product")
            for kw in node.keywords if kw.arg == "out" for n in ast.walk(kw.value)}
    found = set()
    for func, node in nodes:
        if isinstance(node, ast.keyword) and node.arg == "held":
            found.add((func, node.lineno, "hands"))
        elif isinstance(node, ast.Name) and node.id == "held" and id(node) not in into:
            found.add((func, node.lineno, "uses"))
    return found


def test_only_backward_hands_a_rule_the_gradient_it_holds():
    found = {(mod, func, use) for mod, path in modules()
             for func, _, use in held_gradient_uses(path)}
    assert sorted(found, key=str) == sorted({HELD_OWNER + ("hands",),
                                             HELD_OWNER + ("uses",)}, key=str)


def test_held_gradient_check_sees_hands_and_uses(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text('"""Docstrings name nothing: rule(g, held=held)."""\n'
                    "class Tape:\n"
                    "    def backward(self, rule, g, held):\n"
                    "        return rule(g, held=held) if held is not None else rule(g)\n"
                    "    def row_gather(self, idx):\n"
                    "        def rule(g, held=None):\n"
                    "            return _csr_product(idx, g, out=held if g.ndim else None)\n"
                    "        def other(g, held=None):\n"
                    "            held += g\n"
                    "            return np.add(held, g, out=held)\n"
                    "        return lambda g, **kw: rule(g, held=kw)\n"
                    "step = helper(held=1)\n")
    assert held_gradient_uses(path) == {
        ("Tape.backward", 4, "hands"), ("Tape.backward", 4, "uses"),
        ("Tape.row_gather.other", 9, "uses"), ("Tape.row_gather.other", 10, "uses"),
        ("Tape.row_gather", 11, "hands"), (None, 12, "hands")}
