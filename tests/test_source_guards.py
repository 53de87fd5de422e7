"""Checks on the program's source text."""

from __future__ import annotations

import argparse
import ast
import importlib
import itertools
import json
import os
import re
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

import rmra
from rmra.cli import build_parser

PACKAGE = Path(rmra.__file__).resolve().parent
# The pure-Python kernel is the reference oracle the compiled kernel is
# checked against; it is kept as written.
EXEMPT = {"_kernel_py.py"}


def test_no_tuple_of_a_generator_expression():
    # On CPython 3.11, tuple(<generator>) starts with 10 slots and resizes, so
    # the result bypasses its size's tuple freelist when it is made but joins
    # it when it is freed. A long in-process command stream then fills the
    # freelists (up to 2000 tuples for each of 19 sizes) and holds that memory
    # until a full collection clears them. tuple([<list comprehension>])
    # builds the tuple at its final size and does not.
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in EXEMPT:
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "tuple"
                and len(node.args) == 1
                and not node.keywords
                and isinstance(node.args[0], ast.GeneratorExp)
            ):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_no_indented_json_dumps():
    # On CPython 3.11, json.dumps with any indent takes the pure-Python
    # encoder: about 4-5x slower than the C encoder on an envelope, and its
    # nested closures leave cyclic garbage behind on every call. bench.py
    # writes one report per run and is exempt.
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "bench.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "dumps" and any(k.arg == "indent" for k in node.keywords):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_readme_search_flag_table_lists_the_parser_options():
    # The table is the search command's reference; it has drifted from the
    # parser before.
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = lines.index("Flags for `search`:")
    documented = []
    for line in itertools.takewhile(lambda s: s.startswith("|"), lines[start + 2 :]):
        first_cell = re.match(r"\| `([^`]*)` \|", line)
        if first_cell:
            documented += re.findall(r"--[a-z][a-z-]*", first_cell.group(1))
    search = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices["search"]
    options = [
        opt for a in search._actions for opt in a.option_strings if opt not in ("-h", "--help")
    ]
    assert sorted(documented) == sorted(options)


def test_every_name_the_benchmark_tracer_wraps_exists():
    # perfbench/tracer.py replaces these attributes by name on every traced
    # run; a renamed or deleted one breaks only traced runs. Read TARGETS
    # from its source so the tracer is neither imported nor changed.
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    targets = next(
        node.value
        for node in ast.parse(tracer.read_text()).body
        if isinstance(node, ast.Assign)
        and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"]
    )
    names = [tuple(ast.literal_eval(elt)[:2]) for elt in targets.elts]
    assert names
    missing = [
        f"{module}.{attr}"
        for module, attr in names
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []


def test_cli_handlers_return_payloads_and_main_alone_renders_and_maps_errors():
    # One pipeline: each _cmd_* handler returns (inputs, result, exit_code);
    # main alone builds the envelope, renders it and maps exceptions to exit
    # codes. New flags and subcommands keep to it.
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    callers: dict[str, list[str]] = {"_envelope": [], "_emit": []}
    handlers_with_try = []
    for func in tree.body:
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in callers
            ):
                callers[node.func.id].append(func.name)
            if func.name.startswith("_cmd_") and isinstance(node, ast.Try):
                handlers_with_try.append(f"{func.name}:{node.lineno}")
    assert callers == {"_envelope": ["main"], "_emit": ["main"]}
    assert handlers_with_try == []


def test_import_loads_no_dataclasses_inspect_fractions_or_decimal():
    # Every command pays for `import rmra` first. dataclasses pulls in
    # inspect, ast, dis and tokenize, and fractions pulls in decimal and
    # numbers; together they made up most of the import time.
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import rmra\n"
        "after_rmra = set(sys.modules)\n"
        "import rmra.cli\n"
        "print(json.dumps([sorted(after_rmra - before), sorted(set(sys.modules) - after_rmra)]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True,
        text=True,
        check=True,
    )
    by_rmra, by_cli = json.loads(proc.stdout)
    assert "rmra.coarray" in by_rmra and "rmra.cli" in by_cli
    unwanted = {"dataclasses", "inspect", "fractions", "decimal"}
    assert unwanted & set(by_rmra) == set()
    assert unwanted & set(by_cli) == set()


def test_no_module_imports_dataclasses():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def setup_compile_args() -> list[str]:
    """``EXTRA_COMPILE_ARGS`` from setup.py, read without running the build."""
    tree = ast.parse((PACKAGE.parents[1] / "setup.py").read_text())
    return next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["EXTRA_COMPILE_ARGS"]
    )


def test_compiled_kernel_builds_without_warnings(tmp_path):
    # setup.py turns a failed compile into a warning and the pure-Python
    # fallback, so a warning that becomes an error on another compiler would
    # go unnoticed. The engine is plain C99 and compiles cleanly, both with
    # the strict flags alone and with the build's own flags added, so a flag
    # or pragma the build gains is checked too.
    cc = (sysconfig.get_config_var("CC") or "cc").split()
    if shutil.which(cc[0]) is None:
        pytest.skip("no C compiler")
    strict = ["-std=c99", "-O2", "-Wall", "-Wextra", "-Wpedantic", "-Werror", "-fPIC"]
    extra = setup_compile_args()
    assert extra  # the build passes flags of its own
    for flags in (strict, strict + extra):
        proc = subprocess.run(
            [*cc, *flags, f"-I{sysconfig.get_paths()['include']}", "-c"]
            + [str(PACKAGE / "_kernel_c.c"), "-o", str(tmp_path / "_kernel_c.o")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, (flags, proc.stderr)
