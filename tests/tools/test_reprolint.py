"""Tests for the reprolint static-analysis pass.

Every rule gets at least one positive fixture (snippet that must be
flagged) and one negative fixture (snippet that must pass).  Fixtures
are inline strings, never files on disk — reprolint itself walks
``src tests`` and must stay clean over this very test file.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from tools.reprolint import (
    Finding,
    SourceFile,
    all_rules,
    lint_paths,
    load_files,
    render_json,
    render_text,
    run_lint,
)

REPO = Path(__file__).resolve().parents[2]

#: Default virtual path: inside the package, so _SRC-scoped rules apply.
SRC_PATH = "src/repro/simulator/snippet.py"


def lint(code, rel=SRC_PATH, select=None):
    """Lint one in-memory snippet under a virtual repo path."""
    return run_lint([SourceFile(rel, code)], select=select)


def rule_ids(findings):
    return [f.rule for f in findings]


class TestCatalog:
    def test_at_least_ten_rules(self):
        assert len(all_rules()) >= 10

    def test_ids_unique_and_documented(self):
        rules = all_rules()
        ids = [r.id for r in rules]
        assert len(set(ids)) == len(ids)
        for r in rules:
            assert r.id.startswith("REPRO")
            assert r.name
            assert r.description

    def test_repo_is_clean(self):
        findings = lint_paths(
            ["src", "tests", "benchmarks", "tools"], root=REPO
        )
        assert findings == [], render_text(findings)


class TestUnseededRng:
    def test_flags_stdlib_random(self):
        code = "import random\nx = random.randint(0, 5)\n"
        assert rule_ids(lint(code)) == ["REPRO101"]

    def test_flags_legacy_numpy_global(self):
        code = "import numpy as np\nx = np.random.rand(3)\n"
        assert rule_ids(lint(code)) == ["REPRO101"]

    def test_flags_seedless_default_rng(self):
        code = "import numpy as np\nrng = np.random.default_rng()\n"
        assert rule_ids(lint(code)) == ["REPRO101"]

    def test_passes_seeded_generator(self):
        code = (
            "import numpy as np\n"
            "rng = np.random.default_rng(1995)\n"
            "x = rng.integers(0, 5, size=3)\n"
        )
        assert lint(code) == []

    def test_out_of_scope_path_passes(self):
        code = "import random\nx = random.random()\n"
        assert lint(code, rel="benchmarks/bench_x.py") == []


class TestWallClock:
    def test_flags_perf_counter(self):
        code = "import time\nt = time.perf_counter()\n"
        assert rule_ids(lint(code)) == ["REPRO102"]

    def test_flags_from_import_alias(self):
        code = "from time import perf_counter\nt = perf_counter()\n"
        assert rule_ids(lint(code)) == ["REPRO102"]

    def test_flags_datetime_now(self):
        code = "import datetime\nt = datetime.datetime.now()\n"
        assert rule_ids(lint(code)) == ["REPRO102"]

    def test_passes_outside_sim_paths(self):
        code = "import time\nt = time.perf_counter()\n"
        assert lint(code, rel="src/repro/analysis/report.py") == []

    def test_passes_time_arithmetic(self):
        code = "def _f(t0, t1):\n    return t1 - t0\n"
        assert lint(code) == []


class TestFloatEquality:
    def test_flags_float_literal_equality(self):
        code = "def _f(x):\n    return x == 1.5\n"
        assert rule_ids(lint(code)) == ["REPRO103"]

    def test_flags_float_cast_inequality(self):
        code = "def _f(a, b):\n    return float(a) != b\n"
        assert rule_ids(lint(code)) == ["REPRO103"]

    def test_passes_integer_equality(self):
        code = "def _f(x):\n    return x == 1\n"
        assert lint(code) == []

    def test_passes_tolerance_compare(self):
        code = "def _f(a, b):\n    return abs(a - b) <= 1e-9\n"
        assert lint(code) == []

    def test_passes_float_ordering(self):
        code = "def _f(x):\n    return x < 1.5\n"
        assert lint(code) == []


class TestMutableDefault:
    def test_flags_list_literal_default(self):
        code = "def _f(xs=[]):\n    return xs\n"
        assert rule_ids(lint(code)) == ["REPRO104"]

    def test_flags_numpy_array_default(self):
        code = "import numpy as np\ndef _f(a=np.zeros(3)):\n    return a\n"
        assert rule_ids(lint(code)) == ["REPRO104"]

    def test_flags_kwonly_dict_default(self):
        code = "def _f(*, opts={}):\n    return opts\n"
        assert rule_ids(lint(code)) == ["REPRO104"]

    def test_passes_none_default(self):
        code = (
            "def _f(xs=None):\n"
            "    return list(xs) if xs is not None else []\n"
        )
        assert lint(code) == []

    def test_passes_tuple_default(self):
        code = "def _f(xs=()):\n    return xs\n"
        assert lint(code) == []


class TestSetIteration:
    def test_flags_for_over_set_literal(self):
        code = "for x in {1, 2, 3}:\n    print(x)\n"
        assert rule_ids(lint(code)) == ["REPRO105"]

    def test_flags_comprehension_over_set_call(self):
        code = "def _f(items):\n    return [y for y in set(items)]\n"
        assert rule_ids(lint(code)) == ["REPRO105"]

    def test_passes_sorted_set(self):
        code = "for x in sorted({1, 2, 3}):\n    print(x)\n"
        assert lint(code) == []

    def test_passes_list_iteration(self):
        code = "for x in [1, 2, 3]:\n    print(x)\n"
        assert lint(code) == []


class TestUnsortedWalk:
    def test_flags_unsorted_glob(self):
        code = (
            "from pathlib import Path\n"
            "for p in Path('.').glob('*.py'):\n"
            "    print(p)\n"
        )
        assert rule_ids(lint(code)) == ["REPRO106"]

    def test_flags_os_listdir(self):
        code = "import os\nnames = [n for n in os.listdir('.')]\n"
        assert rule_ids(lint(code)) == ["REPRO106"]

    def test_passes_sorted_glob(self):
        code = (
            "from pathlib import Path\n"
            "for p in sorted(Path('.').glob('*.py')):\n"
            "    print(p)\n"
        )
        assert lint(code) == []


class TestPoolClosure:
    def test_flags_lambda_to_run_grid(self):
        code = (
            "from repro.experiments.runner import run_grid\n"
            "rows = run_grid(lambda **kw: kw, [dict(a=1)])\n"
        )
        assert rule_ids(lint(code)) == ["REPRO107"]

    def test_flags_nested_function(self):
        code = (
            "from repro.experiments.runner import run_grid\n"
            "def _sweep():\n"
            "    def point(a):\n"
            "        return a\n"
            "    return run_grid(point, [dict(a=1)])\n"
        )
        assert rule_ids(lint(code)) == ["REPRO107"]

    def test_passes_module_level_function(self):
        code = (
            "from repro.experiments.runner import run_grid\n"
            "def _point(a):\n"
            "    return a\n"
            "def _sweep():\n"
            "    return run_grid(_point, [dict(a=1)])\n"
        )
        assert lint(code) == []


class TestCacheOpaqueKwarg:
    REL = "src/repro/experiments/snippet.py"

    def test_flags_set_valued_kwarg(self):
        code = (
            "from .runner import run_grid\n"
            "rows = run_grid(point, [{'ks': {1, 2}}])\n"
        )
        assert rule_ids(lint(code, rel=self.REL)) == ["REPRO108"]

    def test_flags_lambda_in_dict_call(self):
        code = (
            "from .runner import run_grid\n"
            "rows = run_grid(point, [dict(fn=lambda x: x)])\n"
        )
        assert rule_ids(lint(code, rel=self.REL)) == ["REPRO108"]

    def test_flags_comprehension_points(self):
        code = (
            "from .runner import run_grid\n"
            "rows = run_grid(point, [{'ks': {k}} for k in range(3)])\n"
        )
        assert rule_ids(lint(code, rel=self.REL)) == ["REPRO108"]

    def test_passes_canonical_kwargs(self):
        code = (
            "from .runner import run_grid\n"
            "rows = run_grid(point, [{'ks': (1, 2), 'n': 64}])\n"
        )
        assert lint(code, rel=self.REL) == []


class TestTelemetryTimedPath:
    REL = "benchmarks/bench_snippet.py"

    def test_flags_telemetry_true(self):
        code = (
            "from repro.simulator import simulate_scatter\n"
            "r = simulate_scatter(m, addr, telemetry=True)\n"
        )
        assert rule_ids(lint(code, rel=self.REL)) == ["REPRO109"]

    def test_flags_simtelemetry_construction(self):
        code = (
            "from repro.simulator import SimTelemetry\n"
            "t = SimTelemetry(busy, qhw, {})\n"
        )
        assert rule_ids(lint(code, rel=self.REL)) == ["REPRO109"]

    def test_passes_telemetry_off(self):
        code = (
            "from repro.simulator import simulate_scatter\n"
            "r = simulate_scatter(m, addr, telemetry=False)\n"
        )
        assert lint(code, rel=self.REL) == []

    def test_passes_outside_benchmarks(self):
        code = "r = simulate_scatter(m, addr, telemetry=True)\n"
        assert lint(code, rel="src/repro/analysis/diag.py") == []


BANKSIM_OK = """\
def simulate_scatter(machine, addresses, bank_map=None,
                     assignment='round_robin', telemetry=False,
                     sanitize=None):
    pass

def simulate_gather(machine, addresses, bank_map=None,
                    assignment='round_robin', telemetry=False,
                    sanitize=None):
    pass

def simulate_scatter_blocked(machine, addresses, superstep_size,
                             bank_map=None, assignment='round_robin',
                             telemetry=False, sanitize=None):
    pass
"""

CYCLE_OK = """\
def simulate_scatter_cycle(machine, addresses, bank_map=None,
                           assignment='round_robin', max_cycles=None,
                           engine='event', telemetry=False, sanitize=None):
    pass
"""

GRID_OK = """\
def simulate_scatter_grid(machine, addresses, bank_map=None,
                          assignment='round_robin', max_cycles=None,
                          telemetry=False, sanitize=None):
    pass
"""

DISPATCH_OK = """\
def simulate_scatter_engine(machine, addresses, bank_map=None,
                            assignment='round_robin', telemetry=False,
                            sanitize=None, engine='banksim'):
    pass
"""


class TestEngineParity:
    BANKSIM = "src/repro/simulator/banksim.py"
    CYCLE = "src/repro/simulator/cycle.py"
    GRID = "src/repro/simulator/cycle_grid.py"
    DISPATCH = "src/repro/simulator/dispatch.py"

    def _lint(self, banksim_src, cycle_src, grid_src=GRID_OK,
              dispatch_src=DISPATCH_OK):
        files = [
            SourceFile(self.BANKSIM, banksim_src),
            SourceFile(self.CYCLE, cycle_src),
            SourceFile(self.GRID, grid_src),
            SourceFile(self.DISPATCH, dispatch_src),
        ]
        return run_lint(files, select=["REPRO110"])

    def test_passes_canonical_signatures(self):
        assert self._lint(BANKSIM_OK, CYCLE_OK) == []

    def test_flags_default_drift(self):
        drifted = CYCLE_OK.replace("telemetry=False", "telemetry=True")
        findings = self._lint(BANKSIM_OK, drifted)
        assert rule_ids(findings) == ["REPRO110"]
        assert "telemetry" in findings[0].message

    def test_flags_missing_canonical_parameter(self):
        drifted = CYCLE_OK.replace(", sanitize=None", "")
        findings = self._lint(BANKSIM_OK, drifted)
        assert rule_ids(findings) == ["REPRO110"]
        assert "sanitize" in findings[0].message

    def test_flags_missing_entry_point(self):
        drifted = BANKSIM_OK.replace("def simulate_gather", "def sim_gather")
        findings = self._lint(drifted, CYCLE_OK)
        assert rule_ids(findings) == ["REPRO110"]
        assert "simulate_gather" in findings[0].message

    def test_flags_unknown_extra_parameter(self):
        drifted = CYCLE_OK.replace("max_cycles=None", "budget=None")
        findings = self._lint(BANKSIM_OK, drifted)
        assert rule_ids(findings) == ["REPRO110"]

    def test_flags_batch_engine_drift(self):
        # The batch engine's grid entry point is held to the same
        # canonical surface.
        drifted = GRID_OK.replace("sanitize=None", "sanitize=True")
        findings = self._lint(BANKSIM_OK, CYCLE_OK, drifted)
        assert rule_ids(findings) == ["REPRO110"]
        assert "sanitize" in findings[0].message

    def test_flags_missing_batch_entry_point(self):
        drifted = GRID_OK.replace("def simulate_scatter_grid",
                                  "def run_scatter_grid")
        findings = self._lint(BANKSIM_OK, CYCLE_OK, drifted)
        assert rule_ids(findings) == ["REPRO110"]
        assert "simulate_scatter_grid" in findings[0].message

    def test_flags_dispatcher_drift(self):
        # The engine dispatcher is a parity entry point like the engines
        # it routes to; `engine=` is its one allowed extra.
        drifted = DISPATCH_OK.replace("assignment='round_robin'",
                                      "assignment='block'")
        findings = self._lint(BANKSIM_OK, CYCLE_OK, dispatch_src=drifted)
        assert rule_ids(findings) == ["REPRO110"]
        assert "assignment" in findings[0].message

    def test_flags_missing_dispatcher_entry_point(self):
        drifted = DISPATCH_OK.replace("def simulate_scatter_engine",
                                      "def route_engine")
        findings = self._lint(BANKSIM_OK, CYCLE_OK, dispatch_src=drifted)
        assert rule_ids(findings) == ["REPRO110"]
        assert "simulate_scatter_engine" in findings[0].message

    def test_silent_when_engines_not_linted(self):
        # Linting only test files must not fabricate parity findings.
        assert lint("x = 1\n", rel="tests/test_x.py", select=["REPRO110"]) == []


class TestBroadExcept:
    def test_flags_except_exception(self):
        code = (
            "try:\n    f()\n"
            "except Exception:\n    x = 1\n"
        )
        assert rule_ids(lint(code)) == ["REPRO111"]

    def test_flags_bare_except(self):
        code = "try:\n    f()\nexcept:\n    x = 1\n"
        assert rule_ids(lint(code)) == ["REPRO111"]

    def test_flags_broad_tuple(self):
        code = (
            "try:\n    f()\n"
            "except (ValueError, Exception):\n    x = 1\n"
        )
        assert rule_ids(lint(code)) == ["REPRO111"]

    def test_passes_narrow_except(self):
        code = "try:\n    f()\nexcept ValueError:\n    x = 1\n"
        assert lint(code) == []

    def test_passes_reraise(self):
        code = (
            "try:\n    f()\n"
            "except Exception:\n    cleanup()\n    raise\n"
        )
        assert lint(code) == []


class TestSilentHandler:
    def test_flags_pass_only_handler(self):
        code = "try:\n    f()\nexcept OSError:\n    pass\n"
        assert rule_ids(lint(code)) == ["REPRO112"]

    def test_flags_continue_only_handler(self):
        code = (
            "for x in xs:\n"
            "    try:\n        f(x)\n"
            "    except OSError:\n        continue\n"
        )
        assert rule_ids(lint(code)) == ["REPRO112"]

    def test_passes_handler_with_accounting(self):
        code = (
            "try:\n    f()\n"
            "except OSError:\n    errors += 1\n"
        )
        assert lint(code) == []


class TestPublicDocstring:
    def test_flags_undocumented_public_function(self):
        code = "def served(x):\n    return x\n"
        findings = lint(code, select=["REPRO113"])
        assert rule_ids(findings) == ["REPRO113"]
        assert "`served`" in findings[0].message

    def test_flags_undocumented_public_class_and_method(self):
        code = (
            "class Service:\n"
            "    def submit(self, r):\n"
            "        return r\n"
        )
        findings = lint(code, select=["REPRO113"])
        assert [f.message for f in findings] == [
            "public class `Service` has no docstring",
            "public method `Service.submit` has no docstring",
        ]

    def test_passes_documented_api(self):
        code = (
            'class Service:\n'
            '    """Answers requests."""\n'
            '\n'
            '    def submit(self, r):\n'
            '        """Admit one request."""\n'
            '        return r\n'
            '\n'
            'def served(x):\n'
            '    """Count served requests."""\n'
            '    return x\n'
        )
        assert lint(code, select=["REPRO113"]) == []

    def test_passes_private_names(self):
        code = (
            "def _helper(x):\n    return x\n"
            "class _Impl:\n"
            "    def run(self):\n        return 1\n"
        )
        assert lint(code, select=["REPRO113"]) == []

    def test_skips_function_nested_defs(self):
        code = (
            'def outer():\n'
            '    """Documented."""\n'
            '    def inner(a):\n'
            '        return a\n'
            '    return inner\n'
        )
        assert lint(code, select=["REPRO113"]) == []

    def test_out_of_scope_path_passes(self):
        code = "def served(x):\n    return x\n"
        assert lint(code, rel="tools/helper.py", select=["REPRO113"]) == []

    def test_line_suppression_works(self):
        code = (
            "def served(x):  # reprolint: disable=REPRO113 -- thin alias\n"
            "    return x\n"
        )
        assert lint(code, select=["REPRO113"]) == []


class TestUnboundedConcat:
    STREAM_PATH = "src/repro/simulator/stream.py"

    def test_flags_self_concatenate(self):
        code = (
            "import numpy as np\n"
            "def absorb(self, chunk):\n"
            "    self.seen = np.concatenate([self.seen, chunk])\n"
        )
        findings = lint(code, rel=self.STREAM_PATH, select=["REPRO114"])
        assert rule_ids(findings) == ["REPRO114"]
        assert "self.seen" in findings[0].message

    def test_flags_np_append_accumulation(self):
        code = (
            "import numpy as np\n"
            "def absorb(trace, chunk):\n"
            "    trace = np.append(trace, chunk)\n"
            "    return trace\n"
        )
        findings = lint(code, rel="src/repro/serving/service.py",
                        select=["REPRO114"])
        assert rule_ids(findings) == ["REPRO114"]

    def test_passes_bounded_union(self):
        # Concatenating two *other* arrays into a fresh name (and
        # pruning before reassigning) is the sanctioned pattern.
        code = (
            "import numpy as np\n"
            "def sweep(self, arrival):\n"
            "    events = np.concatenate([self.pend, arrival])\n"
            "    keep = events >= self.cut\n"
            "    self.pend = events[keep]\n"
        )
        assert lint(code, rel=self.STREAM_PATH, select=["REPRO114"]) == []

    def test_out_of_scope_path_passes(self):
        code = (
            "import numpy as np\n"
            "def grow(xs, x):\n"
            "    xs = np.concatenate([xs, x])\n"
            "    return xs\n"
        )
        assert lint(code, rel="src/repro/analysis/tables.py",
                    select=["REPRO114"]) == []

    def test_line_suppression_works(self):
        code = (
            "import numpy as np\n"
            "def absorb(self, chunk):\n"
            "    self.seen = np.concatenate([self.seen, chunk])"
            "  # reprolint: disable=REPRO114 -- bounded by max_chunk\n"
        )
        assert lint(code, rel=self.STREAM_PATH, select=["REPRO114"]) == []


class TestSuppressions:
    def test_line_pragma_suppresses(self):
        code = (
            "import time\n"
            "t = time.perf_counter()  # reprolint: disable=REPRO102 -- why\n"
        )
        assert lint(code) == []

    def test_line_pragma_is_rule_specific(self):
        code = (
            "import time\n"
            "t = time.perf_counter()  # reprolint: disable=REPRO103\n"
        )
        assert rule_ids(lint(code)) == ["REPRO102"]

    def test_disable_all_pragma(self):
        code = (
            "import time\n"
            "t = time.perf_counter()  # reprolint: disable=all\n"
        )
        assert lint(code) == []

    def test_file_pragma_suppresses_whole_file(self):
        code = (
            "# reprolint: disable-file=REPRO102\n"
            "import time\n"
            "a = time.perf_counter()\n"
            "b = time.monotonic()\n"
        )
        assert lint(code) == []

    def test_file_pragma_only_in_first_ten_lines(self):
        code = "\n" * 11 + (
            "# reprolint: disable-file=REPRO102\n"
            "import time\n"
            "t = time.perf_counter()\n"
        )
        assert rule_ids(lint(code)) == ["REPRO102"]


class TestFramework:
    def test_select_and_ignore(self):
        code = (
            "import time\n"
            "t = time.perf_counter()\n"
            "def _f(xs=[]):\n"
            "    return xs\n"
        )
        assert rule_ids(lint(code)) == ["REPRO102", "REPRO104"]
        assert rule_ids(lint(code, select=["REPRO104"])) == ["REPRO104"]
        only = run_lint(
            [SourceFile(SRC_PATH, code)], ignore=["REPRO104"]
        )
        assert rule_ids(only) == ["REPRO102"]

    def test_findings_sorted_and_formatted(self):
        code = (
            "import time\n"
            "def _f(xs=[]):\n"
            "    return time.perf_counter()\n"
        )
        findings = lint(code)
        assert findings == sorted(
            findings, key=lambda fi: (fi.path, fi.line, fi.col, fi.rule)
        )
        line = findings[0].format()
        assert line.startswith(f"{SRC_PATH}:")
        assert findings[0].rule in line

    def test_render_text_and_json(self):
        findings = lint("import time\nt = time.perf_counter()\n")
        text = render_text(findings)
        assert "1 finding(s)" in text
        payload = json.loads(render_json(findings))
        assert payload["count"] == 1
        assert payload["findings"][0]["rule"] == "REPRO102"
        assert render_text([]) == "reprolint: clean"

    def test_parse_error_is_a_finding(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        files, errors = load_files([str(bad)], root=tmp_path)
        assert files == []
        assert [e.rule for e in errors] == ["REPRO000"]

    def test_missing_path_is_a_finding(self, tmp_path):
        files, errors = load_files(["nope"], root=tmp_path)
        assert files == []
        assert [e.rule for e in errors] == ["REPRO000"]


class TestCli:
    def _run(self, *args, cwd=REPO):
        return subprocess.run(
            [sys.executable, "-m", "tools.reprolint", *args],
            cwd=cwd, capture_output=True, text=True,
        )

    def test_clean_tree_exits_zero(self, tmp_path):
        pkg = tmp_path / "src"
        pkg.mkdir()
        (pkg / "ok.py").write_text("x = 1\n")
        proc = self._run(str(pkg), "--root", str(tmp_path), cwd=REPO)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "reprolint: clean" in proc.stdout

    def test_findings_exit_nonzero(self, tmp_path):
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text("def _f(xs=[]):\n    return xs\n")
        proc = self._run("src", "--root", str(tmp_path))
        assert proc.returncode == 1
        assert "REPRO104" in proc.stdout

    def test_json_format(self, tmp_path):
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text("def _f(xs=[]):\n    return xs\n")
        proc = self._run("src", "--root", str(tmp_path), "--format", "json")
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["count"] == 1

    def test_list_rules(self):
        proc = self._run("--list-rules")
        assert proc.returncode == 0
        for rid in ("REPRO101", "REPRO110", "REPRO112"):
            assert rid in proc.stdout
