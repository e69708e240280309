"""No definition in ``src/`` is reachable only from the tests.

The scan reads code, not words.  A top-level function, a top-level class
or a method of one counts as used only when reachable program code names
it through

- an ``ast.Name`` or an ``ast.Attribute`` (a call, a reference, a type
  annotation or a base class);
- an import in a module other than a package ``__init__.py``;
- a string constant shaped like an identifier or a dotted path, as in
  ``getattr(graph, "collective_connections", ())`` or perfbench's
  ``"AnalysisCache.key_for"`` targets.

Reachable code is ``benchmarks/``, ``perfbench/`` and ``examples/``, the
top-level code of ``src/`` modules, and the body of every definition
already found used; so definitions that only name each other are
reported together.  A class's body here is its bases, decorators,
fields and dunder methods; its other methods are definitions of their
own.  ``__all__`` lists, ``__init__.py`` re-exports, docstrings and
comments name a definition without using it, so they do not count.  A
definition under a decorator other than a plain wrapper (``property``,
``classmethod``, ``dataclass`` ...) counts as used: the decorator may
register it, as ``@register_operation`` does.  A method counts as used
once its name is used and its own class is reachable, so a dead class
cannot hide behind a live method of the same name; methods still match
by name, so a method of a live class sharing its name with anything
reachable counts as used: the scan errs towards keeping code.

``ORACLES`` lists the definitions kept on purpose because a retained
invariant test measures other code with them.  Each must stay test-only:
once the program calls one, it leaves the list.
"""

import ast
import re
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("benchmarks", "perfbench", "examples")
IDENTIFIER_PATH = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*\Z")
# decorators that wrap a definition without registering it anywhere
WRAPPERS = frozenset(
    {"property", "cached_property", "setter", "staticmethod", "classmethod",
     "dataclass", "lru_cache", "cache"}
)

ORACLES = {
    "SelfTimedTrace": (
        "the eq. 3 reference trace: tests/mapping/test_mcm.py checks the "
        "maximum cycle mean against its iteration period"
    ),
    "SelfTimedTrace.iteration_period": (
        "the eq. 3 period that tests/mapping/test_mcm.py checks the maximum "
        "cycle mean against; ROADMAP item 3 measures against it"
    ),
    "SelfTimedTrace.makespan": (
        "the eq. 3 reference trace's finish time; tests/mapping/"
        "test_mcm.py pins the reference schedule's timing through it"
    ),
    "simulate_selftimed": (
        "builds the eq. 3 reference trace the MCM, resync and pipelining "
        "tests measure the analysis against"
    ),
    "zero_delay_topological_order": (
        "orders the eq. 3 reference's zero-delay precedence; its tests pin "
        "the cyclic-graph rejection the reference relies on"
    ),
    "first_output_latency": (
        "the latency measure tests/integration/"
        "test_latency_and_pipelining_properties.py checks pipelining against"
    ),
    "pipeline_fill_latency": (
        "the fill-latency measure the same latency and pipelining tests "
        "check auto_pipeline's delays against"
    ),
    "TraceRecorder.events_of": (
        "the trace query both latency measures read a task's firings with"
    ),
    "TimedGraph.from_records": (
        "builds the graphs the analysis tests write as records "
        "(tests/conftest.py's EditableGraph); tests/mapping/"
        "test_timed_graph.py pins it against build_ipc_graph's columns"
    ),
}


def _terminal_name(node):
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _registers(node):
    """Whether a decorator of ``node`` may register it somewhere."""
    return any(
        _terminal_name(decorator) not in WRAPPERS
        for decorator in node.decorator_list
    )


def _unused_nodes(tree):
    """Ids of the string constants that name without using: docstrings
    and everything assigned to ``__all__``."""
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            docstring = node.body[0] if node.body else None
            if isinstance(docstring, ast.Expr) and isinstance(
                docstring.value, ast.Constant
            ):
                skipped.add(id(docstring.value))
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__"
                   for t in targets) and node.value is not None:
                skipped.update(id(sub) for sub in ast.walk(node.value))
    return skipped


def references(nodes, skipped=frozenset(), is_init=False):
    """The set of names that code in ``nodes`` uses (see the module
    docstring for what counts); ``skipped`` holds the ids of string
    constants that do not count."""
    names = set()
    for node in (sub for top in nodes for sub in ast.walk(top)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and not is_init:
            names.update(alias.name for alias in node.names)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in skipped
            and IDENTIFIER_PATH.match(node.value)
        ):
            names.update(node.value.split("."))
    return names


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def definitions(tree, skipped, is_init):
    """Split a module into the names its top-level code uses and
    ``(qualified name, name, node, names its body uses, owning class
    node or None)`` of every top-level function and class and every
    method of a top-level class.  A class's body holds its bases,
    decorators, fields and dunder methods; its other methods are
    definitions of their own."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    top_level, defs = [], []

    def uses(nodes):
        return references(nodes, skipped, is_init)

    for node in tree.body:
        if isinstance(node, functions):
            defs.append((node.name, node.name, node, uses([node]), None))
        elif isinstance(node, ast.ClassDef):
            methods = [item for item in node.body
                       if isinstance(item, functions)
                       and not _is_dunder(item.name)]
            own = [item for item in node.body if item not in methods]
            defs.append((node.name, node.name, node, uses(
                own + node.bases + node.keywords + node.decorator_list
            ), None))
            defs += [(f"{node.name}.{item.name}", item.name, item,
                      uses([item]), node) for item in methods]
        else:
            top_level.append(node)
    return uses(top_level), defs


def dead_definitions(sources, callers):
    """``{qualified name: [path:line, ...]}`` of every definition in
    ``sources`` that no reachable code uses.  Both arguments are
    ``{path: text}`` maps of Python files.  All of ``callers`` and the
    top-level code of ``sources`` is reachable, and so is the body of a
    definition once reachable code uses it or a decorator registers it
    (and, for a method, once its class is reachable); definitions that
    only reach each other stay dead."""
    used, reached, pending = set(), set(), []
    for where, text in {**sources, **callers}.items():
        tree = ast.parse(text)
        is_init = Path(where).name == "__init__.py"
        skipped = _unused_nodes(tree)
        if where not in sources:
            used |= references([tree], skipped, is_init)
            continue
        top_level, found = definitions(tree, skipped, is_init)
        used |= top_level
        pending += [(f"{where}:{found_def[2].lineno}", *found_def)
                    for found_def in found]
    changed = True
    while changed:
        changed, still = False, []
        for entry in pending:
            _, _, name, node, body, owner = entry
            if (name in used or _registers(node)) and (
                owner is None or id(owner) in reached
            ):
                used |= body
                reached.add(id(node))
                changed = True
            else:
                still.append(entry)
        pending = still
    dead = {}
    for site, qualified, *_ in pending:
        dead.setdefault(qualified, []).append(site)
    return dead


def _python_files(*directories):
    return {
        str(path.relative_to(ROOT)): path.read_text()
        for directory in directories
        for path in sorted((ROOT / directory).rglob("*.py"))
    }


@lru_cache(maxsize=None)
def program_sources():
    """``{path relative to the repo: text}`` of every file in ``src/``."""
    return _python_files("src")


@lru_cache(maxsize=None)
def caller_sources():
    return _python_files(*CALLER_DIRS)


@lru_cache(maxsize=None)
def unreached_definitions():
    return dead_definitions(program_sources(), caller_sources())


def test_no_definition_is_reachable_only_from_tests():
    unexpected = sorted(
        f"{site} {qualified}"
        for qualified, sites in unreached_definitions().items()
        if qualified not in ORACLES
        for site in sites
    )
    assert not unexpected, (
        "nothing outside tests/ uses these; delete them and their tests "
        "(or list a kept test oracle in ORACLES):\n" + "\n".join(unexpected)
    )


def test_oracles_are_still_test_only():
    dead = unreached_definitions()
    tests = {
        where: text for where, text in _python_files("tests").items()
        if Path(where).name != Path(__file__).name
    }
    dead_with_tests = dead_definitions(
        program_sources(), {**caller_sources(), **tests}
    )
    for qualified in ORACLES:
        assert qualified in dead, (
            f"{qualified} has a caller now; drop it from ORACLES"
        )
        assert qualified not in dead_with_tests, (
            f"no test uses {qualified}; delete it"
        )


class TestScanner:
    """The scan itself, on small synthetic programs."""

    def test_flags_a_method_named_only_on_its_def_line(self):
        src = {"m.py": "class A:\n    def lonely(self):\n        return 1\n"
                       "A()\n"}
        assert dead_definitions(src, {}) == {"A.lonely": ["m.py:2"]}

    def test_a_use_elsewhere_in_src_keeps_a_definition(self):
        src = {
            "m.py": "def helper():\n    return 1\n",
            "n.py": "from m import helper\nVALUE = helper()\n",
        }
        assert dead_definitions(src, {}) == {}

    def test_a_use_in_a_caller_directory_keeps_a_definition(self):
        src = {"m.py": "def helper():\n    return 1\n"}
        assert dead_definitions(src, {"x.py": "print(helper())\n"}) == {}

    def test_an_import_alone_keeps_a_definition(self):
        src = {"m.py": "def helper():\n    return 1\n",
               "n.py": "from m import helper as h\n"}
        assert dead_definitions(src, {}) == {}

    def test_a_re_export_alone_does_not_keep_a_definition(self):
        src = {
            "pkg/m.py": "def helper():\n    return 1\n",
            "pkg/__init__.py": (
                "from pkg.m import helper\n__all__ = ['helper']\n"
            ),
        }
        assert dead_definitions(src, {}) == {"helper": ["pkg/m.py:1"]}

    def test_prose_does_not_keep_a_definition(self):
        src = {
            "m.py": (
                '"""Module that helps: see assign."""\n'
                "def assign():\n"
                '    """assign does the assigning"""\n'
                "    return 1\n"
                "# assign is mentioned in a comment\n"
                "MESSAGE = 'partition does not assign actors'\n"
            )
        }
        assert dead_definitions(src, {}) == {"assign": ["m.py:2"]}

    def test_a_class_is_a_definition(self):
        src = {"m.py": "class Lonely:\n    pass\n"}
        assert dead_definitions(src, {}) == {"Lonely": ["m.py:1"]}
        used = {"m.py": "class Used:\n    pass\nVALUE: 'Used' = None\n"}
        assert dead_definitions(used, {}) == {}

    def test_a_use_inside_its_own_body_does_not_count(self):
        src = {
            "m.py": (
                "def walk(n):\n    return walk(n - 1) if n else 0\n"
                "class Node:\n"
                "    def copy(self):\n"
                "        return Node()\n"
            )
        }
        assert dead_definitions(src, {}) == {
            "walk": ["m.py:1"], "Node": ["m.py:3"], "Node.copy": ["m.py:4"],
        }

    def test_a_getattr_string_keeps_a_definition(self):
        src = {
            "m.py": "class G:\n    def extra(self):\n        return ()\n",
            "n.py": "from m import G\nEXTRA = getattr(G(), 'extra', ())\n",
        }
        assert dead_definitions(src, {}) == {}

    def test_a_perfbench_target_string_keeps_a_definition(self):
        src = {"m.py": "class Cache:\n    def key_for(self):\n"
                       "        return 0\n"}
        caller = {
            "perfbench/t.py": "TARGETS = (('c', 'm', 'Cache.key_for'),)\n"
        }
        assert dead_definitions(src, caller) == {}

    def test_a_registering_decorator_keeps_a_definition(self):
        src = {
            "m.py": (
                "from reg import register\n"
                "@register\n"
                "def handler():\n"
                "    return 1\n"
                "class A:\n"
                "    @property\n"
                "    def wrapped(self):\n"
                "        return 1\n"
                "A()\n"
            )
        }
        assert dead_definitions(src, {}) == {"A.wrapped": ["m.py:7"]}

    def test_dunder_methods_are_never_reported(self):
        src = {"m.py": "class A:\n    def __len__(self):\n        return 0\n"
                       "A()\n"}
        assert dead_definitions(src, {}) == {}

    def test_nested_functions_are_not_definitions(self):
        src = {
            "m.py": (
                "def outer():\n"
                "    def inner():\n"
                "        return 1\n"
                "    return 2\n"
                "VALUE = outer()\n"
            )
        }
        assert dead_definitions(src, {}) == {}

    def test_every_same_named_definition_is_reported(self):
        src = {
            "m.py": "class A:\n    def reset(self):\n        pass\nA()\n",
            "n.py": "async def reset():\n    pass\n",
        }
        assert dead_definitions(src, {}) == {
            "A.reset": ["m.py:2"], "reset": ["n.py:1"],
        }

    def test_definitions_that_only_name_each_other_are_dead(self):
        src = {
            "m.py": (
                "class Gauge:\n"
                "    def as_dict(self):\n"
                "        return {'type': 'gauge'}\n"
                "class Registry:\n"
                "    def gauge(self):\n"
                "        return Gauge()\n"
                "Registry()\n"
            )
        }
        assert dead_definitions(src, {}) == {
            "Gauge": ["m.py:1"], "Gauge.as_dict": ["m.py:2"],
            "Registry.gauge": ["m.py:5"],
        }

    def test_a_dead_class_does_not_hide_behind_a_live_method_name(self):
        """``Gauge.as_dict`` shares its name with the live
        ``Counter.as_dict``; it counts only once ``Gauge`` is reachable,
        so its ``'gauge'`` string no longer keeps ``Registry.gauge``."""
        src = {
            "m.py": (
                "class Counter:\n"
                "    def as_dict(self):\n"
                "        return {}\n"
                "class Gauge:\n"
                "    def as_dict(self):\n"
                "        return {'type': 'gauge'}\n"
                "class Registry:\n"
                "    def gauge(self):\n"
                "        return Gauge()\n"
                "Registry()\n"
                "Counter().as_dict()\n"
            )
        }
        assert dead_definitions(src, {}) == {
            "Gauge": ["m.py:4"], "Gauge.as_dict": ["m.py:5"],
            "Registry.gauge": ["m.py:8"],
        }

    def test_a_dead_method_added_to_the_program_is_caught(self):
        sources = dict(program_sources())
        clock = "src/repro/platform/clock.py"
        text = sources[clock]
        anchor = "        return cycles / self.frequency_mhz\n"
        assert anchor in text
        sources[clock] = text.replace(
            anchor,
            anchor + "\n    def period_ps(self) -> float:\n"
            "        return 1e6 / self.frequency_mhz\n",
        )
        dead = dead_definitions(sources, caller_sources())
        assert set(dead) - set(ORACLES) == {"ClockDomain.period_ps"}
        assert dead["ClockDomain.period_ps"][0].startswith(f"{clock}:")
