"""Static checks on the package source: every import is used, no module
keeps state of its own between calls, no handler only re-labels the
exception it caught, every private top-level name is used, only the
command line prints, only ``ingest`` opens files or uses ``os``, every
text-mode ``open`` names its encoding, only ``_lag_moments`` warns, the
objective's sums make no BLAS products, only ``harness`` uses ``ctypes``,
only ``fracsim`` imports ``scipy.signal``, and every exported name has a
caller in the package or is a listed reference implementation."""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "roughvol"
# __init__ imports names only to re-export them as the public API.
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno

    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            quoted = ast.parse(annotation.value, mode="eval")
            used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_detects_an_unused_import():
    source = "import os\nfrom math import pi, tau\nx: 'Path' = pi\nfrom pathlib import Path\n"
    assert unused_imports(source) == ["os (line 1)", "tau (line 2)"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(module):
    assert unused_imports(module.read_text()) == []


# Module-level caches that outlive the calls that fill them.
WEAK_CACHES = {"WeakKeyDictionary", "WeakValueDictionary"}


def module_state(source: str) -> list[str]:
    """Module-level weak-reference caches and ``global`` statements."""
    tree = ast.parse(source)
    found = [f"global {', '.join(node.names)} (line {node.lineno})"
             for node in ast.walk(tree) if isinstance(node, ast.Global)]
    for statement in tree.body:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for node in ast.walk(statement):
            name = getattr(node, "attr", None) or getattr(node, "id", None)
            if name in WEAK_CACHES:
                found.append(f"{name} (line {node.lineno})")
    return found


def test_detects_module_state():
    source = ("import weakref\n"
              "cache = weakref.WeakKeyDictionary()\n"
              "def f():\n    global cache\n    return weakref.WeakValueDictionary()\n")
    assert module_state(source) == ["global cache (line 4)", "WeakKeyDictionary (line 2)"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_module_state(module):
    assert module_state(module.read_text()) == []


def relabelling_handlers(source: str) -> list[str]:
    """``except`` handlers whose only statement is
    ``raise <Name>(str(<caught>)) from None``: they change the exception's
    type and add nothing to its message."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler) and node.name and len(node.body) == 1:
            statement = ast.unparse(node.body[0])
            if re.fullmatch(rf"raise \w+\(str\({node.name}\)\) from None", statement):
                found.append(f"{statement} (line {node.body[0].lineno})")
    return found


def test_detects_relabelling():
    source = ("try:\n    f()\nexcept ValueError as exc:\n    raise InputError(str(exc)) from None\n"
              "try:\n    g()\nexcept ValueError as exc:\n    raise InputError(f'g: {exc}') from None\n")
    assert relabelling_handlers(source) == ["raise InputError(str(exc)) from None (line 4)"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_relabelling_handlers(module):
    assert relabelling_handlers(module.read_text()) == []


def unreferenced_private_names(sources: dict) -> list[str]:
    """Top-level ``_name`` functions, classes and constants that no source
    in ``sources`` (module name -> text) reads, imports or accesses as an
    attribute."""
    defined = []
    used = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for statement in tree.body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [statement.name]
            elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
                targets = (statement.targets if isinstance(statement, ast.Assign)
                           else [statement.target])
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(module, name, statement.lineno) for name in names
                        if name.startswith("_") and not name.endswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return [f"{module}: {name} (line {line})" for module, name, line in defined
            if name not in used]


def test_detects_unreferenced_private_names():
    sources = {
        "a": ("import b\n_LIMIT = 8\n_A, _B = 1, 2\n__all__ = []\n"
              "def _fallback():\n    return _LIMIT\n"
              "def _shared():\n    pass\n"
              "class _Unused:\n    pass\n"
              "def public():\n    return b._helper() + _A\n"),
        "b": "from a import _shared\ndef _helper():\n    return 3\n",
    }
    assert unreferenced_private_names(sources) == [
        "a: _B (line 3)", "a: _fallback (line 5)", "a: _Unused (line 9)"]


def test_no_unreferenced_private_names():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_private_names(sources) == []


STREAMS = {"stdout", "stderr"}


def printing(source: str) -> list[str]:
    """Calls of ``print`` and uses of ``sys.stdout`` or ``sys.stderr``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "print":
            found.append((node.lineno, "print"))
        elif isinstance(node, ast.Attribute) and node.attr in STREAMS \
                and isinstance(node.value, ast.Name) and node.value.id == "sys":
            found.append((node.lineno, f"sys.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "sys":
            found += [(node.lineno, f"sys.{a.name}") for a in node.names if a.name in STREAMS]
    return [f"{what} (line {line})" for line, what in sorted(found)]


def test_detects_printing():
    source = ("import sys\nfrom sys import stderr\n"
              "def f(x, log=sys.stdout):\n    print(x, file=log)\n"
              "    log.write('print(x)')\n    pprint(x)\n")
    assert printing(source) == ["sys.stderr (line 2)", "sys.stdout (line 3)", "print (line 4)"]


@pytest.mark.parametrize("module", [p for p in MODULES if p.name != "cli.py"],
                         ids=lambda p: p.name)
def test_only_cli_prints(module):
    assert printing(module.read_text()) == []


# Modules that reach the file system, and methods that open, read or write
# a file (on a path object, or numpy's readers and writers).
FILE_MODULES = {"io", "os", "pathlib", "shutil", "tempfile"}
FILE_METHODS = {"open", "read_text", "write_text", "read_bytes", "write_bytes",
                "loadtxt", "genfromtxt", "savetxt", "fromfile", "tofile"}


def file_access(source: str) -> list[str]:
    """Calls of the builtin ``open`` or of a method in ``FILE_METHODS``, and
    imports from or attributes of a module in ``FILE_MODULES``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "open":
            found.append((node.lineno, "open"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in FILE_METHODS:
            found.append((node.lineno, f".{node.func.attr}()"))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, f"import {a.name}") for a in node.names
                      if a.name.partition(".")[0] in FILE_MODULES]
        elif isinstance(node, ast.ImportFrom) \
                and (node.module or "").partition(".")[0] in FILE_MODULES:
            found.append((node.lineno, f"from {node.module} import"))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in FILE_MODULES:
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return [f"{what} (line {line})" for line, what in sorted(found)]


def test_detects_file_access():
    source = ("import os\nimport os.path as osp\nfrom pathlib import Path\n"
              "with open(p, encoding='utf-8') as fh:\n    pass\n"
              "if os.path.exists(p):\n    fh = Path(p).open()\n"
              "text = p.read_text(encoding='utf-8')\nx = np.loadtxt(p)\n"
              "cli.open_input(p)\n")
    assert file_access(source) == [
        "import os (line 1)", "import os.path (line 2)", "from pathlib import (line 3)",
        "open (line 4)", "os.path (line 6)", ".open() (line 7)",
        ".read_text() (line 8)", ".loadtxt() (line 9)"]


@pytest.mark.parametrize("module", [p for p in sorted(PACKAGE.glob("*.py"))
                                    if p.name != "ingest.py"], ids=lambda p: p.name)
def test_only_ingest_opens_files(module):
    # every file is read and written in one module, which names it in any error
    assert file_access(module.read_text()) == []


def locale_opens(source: str) -> list[str]:
    """Calls of the builtin ``open`` in text mode that pass no ``encoding``,
    and so read or write in the locale's encoding."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "open"):
            continue
        keywords = {k.arg: k.value for k in node.keywords}
        mode = node.args[1] if len(node.args) > 1 else keywords.get("mode")
        binary = isinstance(mode, ast.Constant) and "b" in str(mode.value)
        if not binary and "encoding" not in keywords:
            found.append(node.lineno)
    return [f"open (line {line})" for line in sorted(found)]


def test_detects_locale_opens():
    source = ("with open(p) as fh:\n    pass\nfh = open(p, 'x', newline='')\n"
              "fh = open(p, 'rb')\nfh = open(p, mode='wb')\nfh = open(p, encoding='utf-8')\n"
              "fh = gzip.open(p)\nfh = open(p, mode='w')\n")
    assert locale_opens(source) == ["open (line 1)", "open (line 3)", "open (line 8)"]


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_file_io_names_its_encoding(module):
    # the locale's encoding would make a byte-order mark part of the header
    assert locale_opens(module.read_text()) == []


def blas_products(source: str) -> list[str]:
    """Uses of ``@`` as matrix product (not as decorator), and calls of
    ``np.dot`` or of any ``.dot`` method."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "dot":
            found.append((node.lineno, f"{ast.unparse(node.func)}("))
    return [f"{what} (line {line})" for line, what in sorted(found)]


def test_detects_blas_products():
    source = ("import numpy as np\n@dataclass\nclass A:\n    pass\n"
              "x = w @ v\nx @= m\ny = np.dot(w, v)\nz = w.dot(v)\nt = np.einsum('i,i->', w, v)\n")
    assert blas_products(source) == [
        "@ (line 5)", "@ (line 6)", "np.dot( (line 7)", "w.dot( (line 8)"]


def test_whittle_sums_without_blas():
    # OpenBLAS rounds a long dot product differently at another thread
    # count, and its threads oversubscribe the cores of a worker pool
    modules = ("whittle.py", "spectral.py")
    assert {m: blas_products((PACKAGE / m).read_text()) for m in modules} == dict.fromkeys(modules, [])


def ctypes_imports(source: str) -> list[str]:
    """Imports of ``ctypes``, of its submodules or of names from it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [node.lineno for a in node.names if a.name.partition(".")[0] == "ctypes"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "ctypes":
            found.append(node.lineno)
    return [f"ctypes (line {line})" for line in found]


def test_detects_ctypes_imports():
    source = ("import ctypes\nimport numpy as np, ctypes.util as cu\n"
              "from ctypes import CDLL\nimport ctypesgen\nfrom . import ctypes_helpers\n")
    assert ctypes_imports(source) == ["ctypes (line 1)", "ctypes (line 2)", "ctypes (line 3)"]


def test_only_harness_uses_ctypes():
    # native libraries are found and called in one place, single_blas_thread
    users = [p.name for p in sorted(PACKAGE.glob("*.py")) if ctypes_imports(p.read_text())]
    assert users == ["harness.py"]


def scipy_signal_imports(source: str) -> list[str]:
    """Imports of ``scipy.signal``, of its submodules or of names from it,
    including ``from scipy import signal``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        if any(name == "scipy.signal" or name.startswith("scipy.signal.") for name in names):
            found.append(node.lineno)
    return [f"scipy.signal (line {line})" for line in found]


def test_detects_scipy_signal_imports():
    source = ("import scipy.signal\nimport numpy as np, scipy.signal.windows as w\n"
              "from scipy.signal import lfilter\nfrom scipy import fft, signal\n"
              "import scipy.fft\nfrom scipy import special\nimport scipy_signal\n")
    assert scipy_signal_imports(source) == [
        "scipy.signal (line 1)", "scipy.signal (line 2)", "scipy.signal (line 3)",
        "scipy.signal (line 4)"]


def test_only_fracsim_imports_scipy_signal():
    # its import costs about half a second; the objective's path (spectral,
    # whittle) evaluates the periodogram by FFT and Horner's rule, without it
    users = [p.name for p in sorted(PACKAGE.glob("*.py")) if scipy_signal_imports(p.read_text())]
    assert users == ["fracsim.py"]


def warning_sites(source: str) -> list[str]:
    """Calls of ``warnings.warn`` or a bare ``warn``, each named by the
    top-level function or class that makes it."""
    found = []
    for statement in ast.parse(source).body:
        owner = getattr(statement, "name", "<module>")
        for node in ast.walk(statement):
            if isinstance(node, ast.Call) and ast.unparse(node.func) in {"warnings.warn", "warn"}:
                found.append(f"{owner} (line {node.lineno})")
    return found


def test_detects_warning_sites():
    source = ("import warnings\nfrom warnings import warn\n"
              "def check(x):\n    warnings.warn('x')\n"
              "class Fit:\n    def run(self):\n        warn('y')\n"
              "warnings.warn('z')\nwarnings.simplefilter('ignore')\n")
    assert warning_sites(source) == ["check (line 4)", "Fit (line 7)", "<module> (line 8)"]


def test_only_lag_moments_warns():
    # the correction series' accuracy is checked once, where its moments are built
    sites = [f"{p.name}: {site.partition(' (')[0]}" for p in sorted(PACKAGE.glob("*.py"))
             for site in warning_sites(p.read_text())]
    assert sites == ["whittle.py: _lag_moments"]


# Exported names that no package code calls: reference implementations the
# tests check production code and the model against.
REFERENCES = (
    "objective_oracle",  # test_acceptance.py::test_criterion_4_objective_equivalence
    "a_coefficient",  # test_acceptance.py::test_criterion_3_correction_oracles
    "correction_a2",  # test_acceptance.py::test_criterion_3_correction_oracles
    "simulate_fgn",  # test_acceptance.py::test_criterion_9_fgn_acf
    "compute_m",  # test_ingest.py::TestComputeM
    "objective",  # test_acceptance.py::test_criterion_4_objective_equivalence
)


def imported_names(tree: ast.Module) -> set:
    """Names an ``import`` or ``from ... import`` binds in the module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.asname or a.name for a in node.names)
    return names


def uncalled_exports(exports, sources: dict) -> list[str]:
    """Names in ``exports`` that no source in ``sources`` (module name ->
    text) reads, imports or accesses as an attribute of an imported name
    outside the top-level definition of that name. An attribute of any
    other object, such as ``fit.objective``, is not a use of the export
    ``objective``."""
    used = set()
    for source in sources.values():
        tree = ast.parse(source)
        modules = imported_names(tree)
        for statement in tree.body:
            names = set()
            for node in ast.walk(statement):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                        and node.value.id in modules:
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
            names.discard(getattr(statement, "name", None))  # a def or class's own name
            used |= names
    return [name for name in exports if name not in used]


def test_detects_uncalled_exports():
    sources = {
        "a": ("def walk(n):\n    return walk(n - 1)\n"
              "class Box:\n    def copy(self):\n        return Box()\n"
              "LIMIT = 8\n"),
        # fit.walk is an attribute that shares the export's name, not a call of it
        "b": "from a import Box\nimport a\ndef run(fit):\n    return Box, a.LIMIT, fit.walk\n",
    }
    assert uncalled_exports(["walk", "Box", "LIMIT", "run"], sources) == ["walk", "run"]


def test_every_export_has_a_caller():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    exports = [alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
               for alias in node.names]
    uncalled = uncalled_exports(exports, {p.name: p.read_text() for p in MODULES})
    assert sorted(uncalled) == sorted(REFERENCES)
