"""No definition in ``src/`` is reachable only from the tests.

A top-level function or method whose name, as a whole word, appears in
``src/`` only on the ``def`` lines of that name, and nowhere in
``benchmarks/``, ``perfbench/`` or ``examples/``, has no caller outside
the test suite: delete it with its tests.  The scan matches words, so a
name shared with a live definition or attribute counts as used: it errs
towards keeping code.

``ORACLES`` lists the definitions kept on purpose because a retained
invariant test measures other code with them.  Each must stay test-only:
once the program calls one, it leaves the list.
"""

import ast
import re
from collections import Counter
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("benchmarks", "perfbench", "examples")
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

ORACLES = {
    "iteration_period": (
        "SelfTimedTrace.iteration_period measures the eq. 3 period that "
        "tests/mapping/test_mcm.py checks the maximum cycle mean against"
    ),
}


def definitions(tree):
    """``(qualified name, name, line)`` of every top-level function and
    every method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.name, node.lineno
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item.name, item.lineno


def dead_definitions(sources, caller_texts):
    """``{name: [site, ...]}`` of every definition in ``sources`` (a
    ``{path: text}`` map of program files) that no text mentions outside
    its own ``def`` line: neither another line of ``sources`` nor any of
    ``caller_texts``."""
    words, defs = Counter(), []
    for where, text in sources.items():
        words.update(WORD.findall(text))
        defs += [
            (name, f"{where}:{line} {qualified}")
            for qualified, name, line in definitions(ast.parse(text))
        ]
    callers = Counter()
    for text in caller_texts:
        callers.update(WORD.findall(text))
    def_lines = Counter(name for name, _ in defs)
    dead = {}
    for name, site in defs:
        if name.startswith("__") and name.endswith("__"):
            continue
        if words[name] == def_lines[name] and not callers[name]:
            dead.setdefault(name, []).append(site)
    return dead


@lru_cache(maxsize=None)
def program_sources():
    """``{path relative to the repo: text}`` of every file in ``src/``."""
    return {
        path.relative_to(ROOT): path.read_text()
        for path in sorted((ROOT / "src").rglob("*.py"))
    }


@lru_cache(maxsize=None)
def caller_texts():
    return tuple(
        path.read_text()
        for directory in CALLER_DIRS
        for path in sorted((ROOT / directory).rglob("*.py"))
    )


def unreached_definitions():
    """``{name: [path:line qualified name, ...]}`` of every definition
    no program file outside its own ``def`` line mentions."""
    return dead_definitions(program_sources(), caller_texts())


def test_no_definition_is_reachable_only_from_tests():
    dead = unreached_definitions()
    unexpected = sorted(
        site for name, sites in dead.items() if name not in ORACLES
        for site in sites
    )
    assert not unexpected, (
        "nothing outside tests/ calls these; delete them and their tests "
        "(or list a kept test oracle in ORACLES):\n" + "\n".join(unexpected)
    )


def test_oracles_are_still_test_only():
    dead = unreached_definitions()
    test_words = Counter()
    for path in (ROOT / "tests").rglob("*.py"):
        if path.name != Path(__file__).name:
            test_words.update(WORD.findall(path.read_text()))
    for name in ORACLES:
        assert name in dead, f"{name} has a caller now; drop it from ORACLES"
        assert test_words[name], f"no test uses {name}; delete it"


class TestScanner:
    """The scan itself, on small synthetic programs."""

    def test_flags_a_method_named_only_on_its_def_line(self):
        src = {"m.py": "class A:\n    def lonely(self):\n        return 1\n"}
        assert dead_definitions(src, ()) == {"lonely": ["m.py:2 A.lonely"]}

    def test_a_use_elsewhere_in_src_keeps_a_definition(self):
        src = {
            "m.py": "def helper():\n    return 1\n",
            "n.py": "from m import helper\nVALUE = helper()\n",
        }
        assert dead_definitions(src, ()) == {}

    def test_a_use_in_a_caller_directory_keeps_a_definition(self):
        src = {"m.py": "def helper():\n    return 1\n"}
        assert dead_definitions(src, ("print(helper())\n",)) == {}

    def test_dunder_methods_are_never_reported(self):
        src = {"m.py": "class A:\n    def __len__(self):\n        return 0\n"}
        assert dead_definitions(src, ()) == {}

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
        assert dead_definitions(src, ()) == {}

    def test_names_match_as_whole_words(self):
        src = {"m.py": "def run():\n    return 1\n\nrerun = run_all = 0\n"}
        assert dead_definitions(src, ("prerun()\n",)) == {
            "run": ["m.py:1 run"]
        }

    def test_every_same_named_definition_is_reported(self):
        src = {
            "m.py": "class A:\n    def reset(self):\n        pass\n",
            "n.py": "async def reset():\n    pass\n",
        }
        assert dead_definitions(src, ()) == {
            "reset": ["m.py:2 A.reset", "n.py:1 reset"]
        }

    def test_a_dead_method_added_to_the_program_is_caught(self):
        sources = dict(program_sources())
        clock = Path("src/repro/platform/clock.py")
        text = sources[clock]
        anchor = "        return cycles / self.frequency_mhz\n"
        assert anchor in text
        sources[clock] = text.replace(
            anchor,
            anchor + "\n    def period_ps(self) -> float:\n"
            "        return 1e6 / self.frequency_mhz\n",
        )
        dead = dead_definitions(sources, caller_texts())
        assert [site.split()[1] for site in dead["period_ps"]] == [
            "ClockDomain.period_ps"
        ]
