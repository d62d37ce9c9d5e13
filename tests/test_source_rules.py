"""Rules the engine's source keeps: exact arithmetic only, so no float
literal and no `float(` call, and a runtime of the standard library alone."""

import ast
import sys
from pathlib import Path

import quantalg


def test_source_has_no_float_and_imports_only_the_standard_library():
    found = []
    for path in sorted(Path(quantalg.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                found.append(f"{where}: float literal {node.value!r}")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id == "float":
                found.append(f"{where}: float() call")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                else:
                    modules = [] if node.level else [node.module]
                for module in modules:
                    top = module.split(".")[0]
                    if top != "quantalg" and top not in sys.stdlib_module_names:
                        found.append(f"{where}: import of {module}")
    assert found == []


def test_only_the_cli_reader_reads_files():
    # one reader (`cli._read_file`) turns an unreadable or non-UTF-8 file
    # into exit code 1 or 2; a read anywhere else could escape as a traceback
    found, in_reader = [], 0
    for path in sorted(Path(quantalg.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        reader = {id(node) for f in ast.walk(tree)
                  if isinstance(f, ast.FunctionDef) and path.name == "cli.py"
                  and f.name == "_read_file" for node in ast.walk(f)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("open", "read_text", "read_bytes"):
                if id(node) in reader:
                    in_reader += 1
                else:
                    found.append(f"{path.name}:{node.lineno}: {name}() call")
    assert found == [] and in_reader == 1, (found, in_reader)


def test_the_hot_path_names_no_fraction():
    # Psi's evaluation on the pair vector, policy reading and policy solving
    # block by block, and the transport under them, cold or warm, run on
    # ints, and so do denotation, interning, the pair graph's build with its
    # fold of INF slots, the transport's least-cost start, the tokenizer,
    # the term, space and coalgebra readers and the rationals they read: a
    # Fraction is built only at the edges (a distribution's `items` and key,
    # a conv weight or monoid element, printing)
    hot = {"semantics.py": ["SemValue.__new__", "make_dist", "_apply_here", "_apply", "_eta",
                            "PairGraph._slot", "PairGraph._node", "PairGraph._infinite",
                            "PairGraph._op", "PairGraph.evaluate", "PairGraph.evaluated",
                            "PairGraph.policy"],
           "lexing.py": ["TokenStream.__init__", "TokenStream.expect_ext"],
           "terms.py": ["_parse_term"],
           "spaces.py": ["parse_spaces"],
           "bisim.py": ["solve_affine", "_blocks", "_eliminate", "psi_step", "_parse_rows",
                        "_solve_policy", "PseudoMetric.index", "MaxStrategy.pick"],
           "transport.py": ["scale_costs", "min_cost_transport", "solve_scaled", "_least_cost",
                            "_tree", "_entering", "_pivot"]}
    found = []
    for name, functions in hot.items():
        tree = ast.parse((Path(quantalg.__file__).parent / name).read_text(), name)
        for qualname in functions:
            node = tree
            for part in qualname.split("."):
                node = next(n for n in node.body if getattr(n, "name", None) == part)
            for n in (n for stmt in node.body for n in ast.walk(stmt)):
                if getattr(n, "id", None) == "Fraction" or getattr(n, "attr", None) == "Fraction":
                    found.append(f"{name}:{n.lineno}: Fraction in {qualname}")
    assert found == []


def test_the_tokenizer_builds_no_object_per_token():
    # a token is its text in one list and an index into it: lexing.py
    # declares no tuple class to hold a token and builds no tuple per token
    tree = ast.parse((Path(quantalg.__file__).parent / "lexing.py").read_text())
    found = [f"lexing.py:{n.lineno}: {getattr(n, 'id', None) or n.attr}" for n in ast.walk(tree)
             if getattr(n, "id", None) in ("NamedTuple", "namedtuple")
             or getattr(n, "attr", None) in ("NamedTuple", "namedtuple")
             or (getattr(n, "attr", None) == "__new__"
                 and getattr(n.value, "id", None) == "tuple")]
    assert found == []


def test_the_pair_graph_evaluates_on_ints():
    # an evaluation builds ExtValues for its roots alone: the op loop of
    # `PairGraph.evaluate` runs on ints at the slots' scales, and so do the
    # transports it starts, which take their costs as ints
    path = Path(quantalg.__file__).parent
    semantics = ast.parse((path / "semantics.py").read_text())
    graph = next(n for n in semantics.body if getattr(n, "name", None) == "PairGraph")
    evaluate = next(n for n in graph.body if getattr(n, "name", None) == "evaluate")
    (loop,) = [n for n in evaluate.body if isinstance(n, ast.For)]
    transport = ast.parse((path / "transport.py").read_text())
    hot = [("PairGraph.evaluate's op loop", loop)] + [
        (n.name, n) for n in transport.body if getattr(n, "name", None)
        in ("solve_scaled", "_least_cost", "_tree", "_entering", "_pivot")]
    assert len(hot) == 6
    banned = {"ExtValue", "ext_max", "scaled", "truncated", "ratio", "INF"}
    found = [f"{where}:{n.lineno}: {getattr(n, 'id', None) or n.attr}"
             for where, node in hot for n in ast.walk(node)
             if getattr(n, "id", None) in banned or getattr(n, "attr", None) in banned]
    assert found == []


def test_premised_axiom_instances_are_built_in_one_constructor():
    # the schema x_i =_{e_i} y_i |- f(x..) =_{b(e..)} g(y..) is written once,
    # in `theories._premised`: any other AxiomInstance has no premises
    found, in_constructor = [], 0
    for path in sorted(Path(quantalg.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        constructor = {id(node) for f in ast.walk(tree)
                       if isinstance(f, ast.FunctionDef) and path.name == "theories.py"
                       and f.name == "_premised" for node in ast.walk(f)}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and getattr(node.func, "id", None)
                    == "AxiomInstance"):
                continue
            premises = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "premises"), None)
            if isinstance(premises, ast.Tuple) and not premises.elts:
                continue
            if id(node) in constructor:
                in_constructor += 1
            else:
                found.append(f"{path.name}:{node.lineno}: AxiomInstance with premises")
    assert found == [] and in_constructor == 1, (found, in_constructor)


def test_source_parses_as_python_3_10():
    # pyproject requires Python >= 3.10: no syntax of a later version
    found = []
    for path in sorted(Path(quantalg.__file__).parent.rglob("*.py")):
        try:
            ast.parse(path.read_text(), str(path), feature_version=(3, 10))
        except SyntaxError as exc:
            found.append(f"{path.name}:{exc.lineno}: {exc.msg}")
    assert found == []
