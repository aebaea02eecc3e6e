"""Every function in ``src/flopcalc`` is reached by a product path, or is
allow-listed here with its reason.

A fresh interpreter runs ``cli.main`` under the stdlib ``trace`` module on
the command corpus and a few larger argvs, so no warm ``lru_cache`` or
``monkeypatch`` of another test hides a function body.  The executed lines
are mapped onto functions with ``ast``: a function is unreached when no
statement of its body runs, its docstring aside.  That set must equal the
allow-list, so a new function that no product path reaches is justified in
the change that adds it, and an allow-listed function that a product path
now reaches leaves the list.
"""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

CORPUS_PATH = Path(__file__).parent / "data" / "cli_corpus.json"
SOURCE_DIR = Path(__file__).resolve().parents[1] / "src" / "flopcalc"

# the argvs traced besides every corpus argv: larger n, the Serre branch of
# the line-bundle tables, and both help texts
EXTRA_ARGVS = [
    ["verify", "all", "--max-n", "12", "--json"],
    ["verify", "all", "--max-n", "6", "--markdown"],
    ["koszul", "--n", "40"],
    ["ext", "oy-oy", "--n", "40"],
    ["ext", "ideal-self", "--n", "2", "--trace"],
    ["cohomology", "--n", "3", "--j", "-9", "--k", "2"],
    ["cohomology", "--n", "4", "--j", "-7", "--k", "-3"],
    ["--help"],
    ["bott", "--help"],
]

# the functions no traced argv reaches, each with its reason
ALLOWED = {
    "bwb.CohomologyTable.euler": "harness hook: perfbench's checks read it (item 5)",
    "homalg.ChaseSystem.terms": "harness hook: perfbench's tracer and checks read it (item 5)",
    "homalg.KoszulResolution.alternating_euler_sum":
        "harness hook: perfbench's ext-chase workload calls it (item 5)",
    "homalg.reference_chase_systems": "harness hook: CI digests and perfbench read it (item 5)",
    "flop._wrong_side": "error path: a class on the wrong side of the flop",
    "pbundle._frozen": "error path: assigning to a field of a frozen value",
    "verify._fail": "error path: a suite that FAILs, which no product input makes",
    "pbundle.ModelVariety.__eq__": "value semantics: interning makes the product compare by identity",
    "pbundle.ModelVariety.__hash__": "value semantics: interning makes the product hash by identity",
    "pbundle.ModelVariety.__repr__": "value semantics: no report prints a variety",
    "pbundle.ModelVariety.__reduce__": "value semantics: the product pickles nothing",
    "pbundle.XLineBundle.__hash__": "value semantics: the product keys no dict or set by class",
    "pbundle.XLineBundle.__repr__": "value semantics: no report prints a class",
    "pbundle.XLineBundle.__reduce__": "value semantics: the product pickles nothing",
}

# run in a fresh interpreter: trace cli.main on each argv given as JSON on
# stdin, with the command's own output discarded, and print the executed
# (file, line) pairs under the package as JSON
CHILD = textwrap.dedent("""
    import contextlib, io, json, os, sys, trace
    from flopcalc import cli

    tracer = trace.Trace(count=1, trace=0, ignoredirs=[sys.prefix, sys.exec_prefix])
    sink = io.StringIO()
    for argv in json.load(sys.stdin):
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            tracer.runfunc(cli.main, argv)
        sink.seek(0)
        sink.truncate()
    package = os.path.dirname(cli.__file__) + os.sep
    lines = sorted([path[len(package):], line] for path, line in tracer.results().counts
                   if path.startswith(package))
    print(json.dumps(lines))
""")


def traced_lines(argvs, cwd, timeout=60):
    """The (file name, line) pairs of ``src/flopcalc`` that run across
    ``argvs``, traced in a fresh interpreter; a run past ``timeout`` seconds
    fails rather than stalls."""
    done = subprocess.run(
        [sys.executable, "-c", CHILD], input=json.dumps(argvs), capture_output=True,
        text=True, cwd=cwd, timeout=timeout, check=True,
        env={**os.environ, "PYTHONPATH": str(SOURCE_DIR.parent)})
    return {(name, line) for name, line in json.loads(done.stdout)}


def unreached_functions(sources, executed):
    """The functions of ``sources`` ({file name: source text}) none of whose
    body statements, the docstring aside, is among ``executed`` (a set of
    (file name, line)), named ``module.qualname``."""
    unreached = set()
    for name, text in sources.items():
        ran = {line for path, line in executed if path == name}

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}{child.name}.")
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    body = child.body
                    if ast.get_docstring(child) is not None:
                        body = body[1:]
                    lines = {line for stmt in body
                             for line in range(stmt.lineno, stmt.end_lineno + 1)}
                    if not lines & ran:
                        unreached.add(f"{prefix}{child.name}")
                    walk(child, f"{prefix}{child.name}.")

        walk(ast.parse(text), name.removesuffix(".py") + ".")
    return unreached


def mismatches(unreached, allowed):
    """One line per function on which ``unreached`` and ``allowed`` differ."""
    return ([f"{name}: reached by no traced argv and not allow-listed"
             for name in sorted(unreached - set(allowed))]
            + [f"{name}: allow-listed but reached or not defined"
               for name in sorted(set(allowed) - unreached)])


def test_unreached_functions_are_exactly_the_allow_list(tmp_path):
    corpus = json.loads(CORPUS_PATH.read_text(encoding="utf-8"))
    executed = traced_lines([case["argv"] for case in corpus] + EXTRA_ARGVS, tmp_path)
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(SOURCE_DIR.glob("*.py"))}
    assert {name for name, _ in executed} <= set(sources)
    assert mismatches(unreached_functions(sources, executed), ALLOWED) == []
    assert all(reason and "\n" not in reason for reason in ALLOWED.values())


FAKE = '''\
def reached():
    """Its docstring does not count."""
    return 1


def unreached():
    """Only its docstring would run."""
    return 2


class Value:
    def method(self):
        return (
            3)
'''


def test_comparison_names_both_kinds_of_mismatch():
    # reached() runs line 3, Value.method only its continuation line 14, and
    # line 7, the docstring of unreached(), does not count
    unreached = unreached_functions({"fake.py": FAKE}, {("fake.py", 3), ("fake.py", 14),
                                                        ("fake.py", 7), ("other.py", 8)})
    assert unreached == {"fake.unreached"}
    assert mismatches(unreached, {"fake.reached": "a reason"}) == [
        "fake.unreached: reached by no traced argv and not allow-listed",
        "fake.reached: allow-listed but reached or not defined",
    ]
    assert mismatches(unreached, {"fake.unreached": "a reason"}) == []
