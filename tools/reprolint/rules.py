"""The reprolint rule catalog.

Each rule guards an invariant this reproduction's correctness claims
rest on (DESIGN.md §9 states the full justification):

========  ====================  ==========================================
id        name                  invariant protected
========  ====================  ==========================================
REPRO101  unseeded-rng          every random draw in the package is
                                seeded — results regenerate bit-identically
REPRO102  wall-clock            simulated time never reads the host clock;
                                wall-clock belongs to the bench harness
REPRO103  float-equality        cycle accounting never compares floats for
                                equality against float literals
REPRO104  mutable-default       no mutable default arguments (state leaks
                                across calls and across pool workers)
REPRO105  set-iteration         no iteration over sets (hash-order varies
                                with PYTHONHASHSEED across processes)
REPRO106  unsorted-walk         directory walks are sorted (filesystem
                                order is not deterministic)
REPRO107  pool-closure          nothing unpicklable (lambdas, nested
                                functions) is handed to the process pool
REPRO108  cache-opaque-kwarg    run_grid point kwargs stay inside the
                                cache-key normalizer's canonical types
REPRO109  telemetry-timed-path  the perf_guard-gated benchmark path never
                                constructs telemetry
REPRO110  engine-parity         the public simulate_* signatures of the
                                three engines stay in parity
REPRO111  broad-except          no bare/over-broad except without re-raise
REPRO112  silent-handler        no except handler that only passes
REPRO113  public-docstring      every public function/class in src/repro/
                                documents its contract with a docstring
REPRO114  unbounded-concat      streaming paths never accumulate into an
                                array they concatenate onto (O(n^2) growth
                                breaks the chunk memory bound)
========  ====================  ==========================================

Every rule is suppressible per line with ``# reprolint: disable=ID`` —
the suppression plus its justification is the documented escape hatch.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .core import Finding, Rule, SourceFile, register

__all__ = ["qualified_names", "call_name"]

#: Default path scope for package-determinism rules.
_SRC = ("src/repro/*", "src/repro/**")
#: Simulator + experiment code: the simulated-time domain.
_SIM_EXP = (
    "src/repro/simulator/**", "src/repro/experiments/**",
    "src/repro/simulator/*", "src/repro/experiments/*",
)


def qualified_names(tree: ast.AST) -> Dict[str, str]:
    """Map local names to the qualified module paths they were imported
    as (``np`` -> ``numpy``, ``perf_counter`` -> ``time.perf_counter``)."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                aliases[a.asname or a.name.split(".")[0]] = (
                    a.name if a.asname else a.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module \
                and node.level == 0:
            for a in node.names:
                if a.name == "*":
                    continue
                aliases[a.asname or a.name] = f"{node.module}.{a.name}"
    return aliases


def call_name(node: ast.expr, aliases: Dict[str, str]) -> Optional[str]:
    """Resolve a call target to a dotted qualified name, or ``None``."""
    if isinstance(node, ast.Name):
        return aliases.get(node.id, node.id)
    if isinstance(node, ast.Attribute):
        base = call_name(node.value, aliases)
        return f"{base}.{node.attr}" if base else None
    return None


def _walk_calls(
    f: SourceFile,
) -> Iterator[Tuple[ast.Call, Optional[str], Dict[str, str]]]:
    aliases = qualified_names(f.tree)
    for node in ast.walk(f.tree):
        if isinstance(node, ast.Call):
            yield node, call_name(node.func, aliases), aliases


@register
class UnseededRngRule(Rule):
    """Flag RNG constructions/draws that are not reproducibly seeded."""

    id = "REPRO101"
    name = "unseeded-rng"
    description = (
        "stdlib `random` draws and legacy `numpy.random` module calls are "
        "process-global and unseeded; `default_rng()`/`RandomState()` "
        "without a seed differ every run — every experiment result must "
        "regenerate bit-identically"
    )
    paths = _SRC

    _STDLIB_FNS = {
        "random", "randint", "randrange", "choice", "choices", "sample",
        "shuffle", "uniform", "gauss", "betavariate", "expovariate",
        "getrandbits", "seed",
    }
    _NUMPY_LEGACY = {
        "rand", "randn", "randint", "random", "random_sample", "choice",
        "shuffle", "permutation", "uniform", "normal", "seed", "bytes",
    }

    def check(self, f: SourceFile) -> Iterator[Finding]:
        for node, qual, _aliases in _walk_calls(f):
            if qual is None:
                continue
            if qual.startswith("random.") \
                    and qual.split(".", 1)[1] in self._STDLIB_FNS:
                yield self.finding(
                    f, node,
                    f"call to process-global `{qual}` — draw from a "
                    "seeded `numpy.random.Generator` (see `repro._util"
                    ".as_rng`) instead",
                )
            elif qual.startswith("numpy.random.") \
                    and qual.rsplit(".", 1)[1] in self._NUMPY_LEGACY:
                yield self.finding(
                    f, node,
                    f"legacy global-state call `{qual}` — use a seeded "
                    "`numpy.random.default_rng(seed)` generator",
                )
            elif qual in ("numpy.random.default_rng",
                          "numpy.random.RandomState"):
                seedless = not node.args and not node.keywords or (
                    len(node.args) == 1
                    and isinstance(node.args[0], ast.Constant)
                    and node.args[0].value is None
                )
                if seedless:
                    yield self.finding(
                        f, node,
                        f"`{qual}` without a seed is nondeterministic — "
                        "pass an explicit seed",
                    )


@register
class WallClockRule(Rule):
    """Flag host-clock reads on simulated-time code paths."""

    id = "REPRO102"
    name = "wall-clock"
    description = (
        "simulator/experiment code measures *simulated* cycles; a host "
        "clock read there either leaks nondeterminism into results or "
        "into the memo cache — wall-clock timing belongs to the bench "
        "harness (benchmarks/, tools/perf_guard.py)"
    )
    paths = _SIM_EXP

    _CLOCKS = {
        "time.time", "time.time_ns", "time.perf_counter",
        "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns",
        "time.process_time", "time.process_time_ns",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    }

    def check(self, f: SourceFile) -> Iterator[Finding]:
        for node, qual, _aliases in _walk_calls(f):
            if qual in self._CLOCKS:
                yield self.finding(
                    f, node,
                    f"host clock read `{qual}` on a simulated-time path — "
                    "simulator/experiment results must be functions of "
                    "their inputs only",
                )


@register
class FloatEqualityRule(Rule):
    """Flag ==/!= comparisons against float literals or float() casts."""

    id = "REPRO103"
    name = "float-equality"
    description = (
        "cycle accounting mixes exact integer-valued float64s with "
        "derived quantities; equality against a float literal silently "
        "breaks the moment any operand stops being exact — compare "
        "against integers or use an explicit tolerance"
    )
    paths = _SRC + ("tools/*", "tools/**")

    @staticmethod
    def _is_floaty(node: ast.expr, aliases: Dict[str, str]) -> bool:
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            return True
        if isinstance(node, ast.Call):
            return call_name(node.func, aliases) == "float"
        return False

    def check(self, f: SourceFile) -> Iterator[Finding]:
        aliases = qualified_names(f.tree)
        for node in ast.walk(f.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, right in zip(node.ops, node.comparators):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if any(self._is_floaty(o, aliases) for o in operands):
                    yield self.finding(
                        f, node,
                        "float equality comparison — use an integer "
                        "comparison or an explicit tolerance "
                        "(`abs(a - b) <= tol`)",
                    )
                    break


@register
class MutableDefaultRule(Rule):
    """Flag mutable default argument values."""

    id = "REPRO104"
    name = "mutable-default"
    description = (
        "a mutable default is shared across every call *and* pickled "
        "into pool workers — state leaks between grid points"
    )
    # Applies everywhere reprolint looks.

    _MUTABLE_CALLS = {
        "list", "dict", "set", "bytearray", "collections.deque",
        "collections.defaultdict", "collections.Counter",
        "collections.OrderedDict",
        "numpy.array", "numpy.zeros", "numpy.ones", "numpy.empty",
        "numpy.arange",
    }

    def _bad(self, node: ast.expr, aliases: Dict[str, str]) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            return call_name(node.func, aliases) in self._MUTABLE_CALLS
        return False

    def check(self, f: SourceFile) -> Iterator[Finding]:
        aliases = qualified_names(f.tree)
        for node in ast.walk(f.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            defaults = [
                *node.args.defaults,
                *(d for d in node.args.kw_defaults if d is not None),
            ]
            for d in defaults:
                if self._bad(d, aliases):
                    label = getattr(node, "name", "<lambda>")
                    yield self.finding(
                        f, d,
                        f"mutable default argument in `{label}` — default "
                        "to None and construct inside the function",
                    )


def _iter_targets(tree: ast.AST) -> Iterator[ast.expr]:
    """Every expression something iterates over: for loops and the
    generators of comprehensions."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node.iter
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for gen in node.generators:
                yield gen.iter


@register
class SetIterationRule(Rule):
    """Flag direct iteration over sets."""

    id = "REPRO105"
    name = "set-iteration"
    description = (
        "set iteration order follows the hash seed, which differs across "
        "the runner's pool workers (PYTHONHASHSEED) — anything "
        "order-sensitive built from it diverges between processes; wrap "
        "in sorted()"
    )
    paths = _SRC

    @staticmethod
    def _is_set_expr(node: ast.expr, aliases: Dict[str, str]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            return call_name(node.func, aliases) in ("set", "frozenset")
        return False

    def check(self, f: SourceFile) -> Iterator[Finding]:
        aliases = qualified_names(f.tree)
        for target in _iter_targets(f.tree):
            if self._is_set_expr(target, aliases):
                yield self.finding(
                    f, target,
                    "iteration over a set is hash-order-dependent — wrap "
                    "in sorted() (or iterate the original sequence)",
                )


@register
class UnsortedWalkRule(Rule):
    """Flag unsorted directory iteration."""

    id = "REPRO106"
    name = "unsorted-walk"
    description = (
        "glob/listdir order is filesystem-dependent; the code-version "
        "digest and any walk whose order reaches a result must sort"
    )
    paths = _SRC + ("tools/*", "tools/**")

    _WALK_ATTRS = {"glob", "rglob", "iterdir"}
    _WALK_CALLS = {"os.listdir", "os.scandir"}

    def _is_walk(self, node: ast.expr, aliases: Dict[str, str]) -> bool:
        if not isinstance(node, ast.Call):
            return False
        if isinstance(node.func, ast.Attribute) \
                and node.func.attr in self._WALK_ATTRS:
            return True
        return call_name(node.func, aliases) in self._WALK_CALLS

    def check(self, f: SourceFile) -> Iterator[Finding]:
        aliases = qualified_names(f.tree)
        for target in _iter_targets(f.tree):
            if self._is_walk(target, aliases):
                yield self.finding(
                    f, target,
                    "unsorted directory walk — wrap in sorted() so the "
                    "visit order is platform-independent",
                )


@register
class PoolClosureRule(Rule):
    """Flag unpicklable callables handed to the process pool."""

    id = "REPRO107"
    name = "pool-closure"
    description = (
        "the experiment runner fans work out over a process pool; "
        "lambdas and nested functions are not picklable by reference "
        "and die in the worker — point functions must be module-level"
    )
    paths = _SRC + ("benchmarks/*", "tools/*", "tools/**")

    _POOL_SINKS = {"run_grid", "run_experiments", "submit", "map_async",
                   "apply_async"}

    def check(self, f: SourceFile) -> Iterator[Finding]:
        nested = set()
        for outer in ast.walk(f.tree):
            if isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(outer):
                    if inner is not outer and isinstance(
                            inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        nested.add(inner.name)
        for node, qual, _aliases in _walk_calls(f):
            sink = None
            if isinstance(node.func, ast.Attribute) \
                    and node.func.attr in self._POOL_SINKS:
                sink = node.func.attr
            elif qual is not None \
                    and qual.rsplit(".", 1)[-1] in self._POOL_SINKS:
                sink = qual.rsplit(".", 1)[-1]
            if sink is None or not node.args:
                continue
            fn_arg = node.args[0]
            if isinstance(fn_arg, ast.Lambda):
                yield self.finding(
                    f, fn_arg,
                    f"lambda passed to pool sink `{sink}` — not picklable "
                    "by reference; use a module-level function",
                )
            elif isinstance(fn_arg, ast.Name) and fn_arg.id in nested:
                yield self.finding(
                    f, fn_arg,
                    f"nested function `{fn_arg.id}` passed to pool sink "
                    f"`{sink}` — not picklable by reference; hoist it to "
                    "module level",
                )


@register
class CacheOpaqueKwargRule(Rule):
    """Flag run_grid point kwargs outside the cache-key normalizer."""

    id = "REPRO108"
    name = "cache-opaque-kwarg"
    description = (
        "the memo cache canonicalizes ndarray/dataclass/dict/list/tuple/"
        "scalar kwargs; sets pickle in hash order and lambdas/generators "
        "by memory identity, so such kwargs poison or shatter the cache "
        "key"
    )
    paths = (
        "src/repro/experiments/*", "src/repro/experiments/**",
        "benchmarks/*",
    )

    _OPAQUE = (ast.Set, ast.SetComp, ast.GeneratorExp, ast.Lambda)

    def _point_values(self, point: ast.expr) -> Iterator[ast.expr]:
        if isinstance(point, ast.Dict):
            yield from (v for v in point.values if v is not None)
        elif isinstance(point, ast.Call) and isinstance(
                point.func, ast.Name) and point.func.id == "dict":
            yield from (kw.value for kw in point.keywords)

    def check(self, f: SourceFile) -> Iterator[Finding]:
        for node, qual, _aliases in _walk_calls(f):
            name = (qual or "").rsplit(".", 1)[-1]
            if name != "run_grid" or len(node.args) < 2:
                continue
            points_arg = node.args[1]
            point_exprs: List[ast.expr] = []
            if isinstance(points_arg, (ast.List, ast.Tuple)):
                point_exprs = list(points_arg.elts)
            elif isinstance(points_arg, (ast.ListComp, ast.GeneratorExp)):
                point_exprs = [points_arg.elt]
            for point in point_exprs:
                for value in self._point_values(point):
                    if isinstance(value, self._OPAQUE):
                        yield self.finding(
                            f, value,
                            "grid-point kwarg of a type the cache-key "
                            "normalizer cannot canonicalize (set/"
                            "generator/lambda) — pass a sorted tuple or "
                            "a module-level object",
                        )


@register
class TelemetryTimedPathRule(Rule):
    """Flag telemetry collection inside the perf-gated benchmarks."""

    id = "REPRO109"
    name = "telemetry-timed-path"
    description = (
        "tools/perf_guard.py gates the telemetry-off hot path; a "
        "benchmark that turns telemetry on (or builds SimTelemetry "
        "itself) would quietly re-baseline the gate to include "
        "accounting overhead"
    )
    paths = ("benchmarks/*",)

    def check(self, f: SourceFile) -> Iterator[Finding]:
        for node, qual, _aliases in _walk_calls(f):
            for kw in node.keywords:
                if kw.arg == "telemetry" and not (
                        isinstance(kw.value, ast.Constant)
                        and kw.value.value in (False, None)):
                    yield self.finding(
                        f, kw.value,
                        "telemetry enabled on a perf_guard-timed path — "
                        "the gated benchmark must keep the hot path "
                        "telemetry-off",
                    )
            if (qual or "").rsplit(".", 1)[-1] == "SimTelemetry":
                yield self.finding(
                    f, node,
                    "SimTelemetry constructed inside a benchmark — "
                    "telemetry is an opt-in diagnostic, not a timed "
                    "workload",
                )


@register
class EngineParityRule(Rule):
    """Cross-file check: the three engines' entry points stay in parity.

    The repo's central property — banksim, tick and event produce
    bit-identical results — is only testable while their public
    signatures agree on the shared parameters.  This rule parses the
    actual ``def`` statements, so drift fails the lint before it can
    fail (or silently skip) the property tests.
    """

    id = "REPRO110"
    name = "engine-parity"
    description = (
        "public simulate_* entry points must share the canonical "
        "parameter sequence (machine, addresses, bank_map, assignment, "
        "telemetry, sanitize) with identical defaults across banksim "
        "and the cycle engines"
    )

    #: Canonical shared parameters, in order, with their default source.
    CANONICAL: Tuple[Tuple[str, Optional[str]], ...] = (
        ("machine", None),
        ("addresses", None),
        ("bank_map", "None"),
        ("assignment", "'round_robin'"),
        ("telemetry", "False"),
        ("sanitize", "None"),
    )
    #: Engine-specific parameters allowed in addition to the canon.
    ALLOWED_EXTRAS = {"superstep_size", "max_cycles", "engine",
                      "chunk_size"}
    #: entry point -> file glob it must live in.
    ENTRY_POINTS = {
        "simulate_scatter": "src/repro/simulator/banksim.py",
        "simulate_gather": "src/repro/simulator/banksim.py",
        "simulate_scatter_blocked": "src/repro/simulator/banksim.py",
        "simulate_scatter_cycle": "src/repro/simulator/cycle.py",
        "simulate_scatter_grid": "src/repro/simulator/cycle_grid.py",
        "simulate_scatter_engine": "src/repro/simulator/dispatch.py",
        "simulate_scatter_stream": "src/repro/simulator/stream.py",
    }

    @staticmethod
    def _signature(node: ast.FunctionDef) -> List[Tuple[str, Optional[str]]]:
        args = node.args
        params = [*args.posonlyargs, *args.args]
        defaults: List[Optional[ast.expr]] = (
            [None] * (len(params) - len(args.defaults)) + list(args.defaults)
        )
        out = [
            (a.arg, ast.unparse(d) if d is not None else None)
            for a, d in zip(params, defaults)
        ]
        out.extend(
            (a.arg, ast.unparse(d) if d is not None else None)
            for a, d in zip(args.kwonlyargs, args.kw_defaults)
        )
        return out

    def check_project(self, files: Sequence[SourceFile]) -> Iterator[Finding]:
        found: Dict[str, Tuple[SourceFile, ast.FunctionDef]] = {}
        for f in files:
            if f.rel not in set(self.ENTRY_POINTS.values()):
                continue
            for node in ast.walk(f.tree):
                if isinstance(node, ast.FunctionDef) \
                        and node.name in self.ENTRY_POINTS:
                    found[node.name] = (f, node)
        # Only meaningful when the simulator sources are in the lint run.
        if not found:
            return
        for name, rel in self.ENTRY_POINTS.items():
            if name not in found:
                for f in files:
                    if f.rel == rel:
                        yield Finding(
                            rule=self.id, path=rel, line=1, col=1,
                            message=f"engine entry point `{name}` missing "
                                    f"from {rel} — the three-engine parity "
                                    "surface changed",
                        )
                        break
                continue
            f, node = found[name]
            sig = self._signature(node)
            canon = iter(self.CANONICAL)
            expected = next(canon)
            for param, default in sig:
                if param == expected[0]:
                    if default != expected[1]:
                        yield self.finding(
                            f, node,
                            f"`{name}` parameter `{param}` default "
                            f"{default!r} drifted from the canonical "
                            f"{expected[1]!r} shared by the engines",
                        )
                    expected = next(canon, None)
                    if expected is None:
                        break
                elif param not in self.ALLOWED_EXTRAS:
                    yield self.finding(
                        f, node,
                        f"`{name}` parameter `{param}` is neither the "
                        f"expected canonical parameter `{expected[0]}` "
                        "nor a known engine-specific extra — engine "
                        "signatures drifted out of parity",
                    )
                    expected = None
                    break
            if expected is not None:
                yield self.finding(
                    f, node,
                    f"`{name}` is missing canonical shared parameter "
                    f"`{expected[0]}` — all engines must accept it",
                )


@register
class BroadExceptRule(Rule):
    """Flag bare/over-broad except clauses that do not re-raise."""

    id = "REPRO111"
    name = "broad-except"
    description = (
        "a broad except on the runner's retry paths can swallow "
        "KeyboardInterrupt/cancellation or misclassify a code bug as a "
        "flaky point — catch the narrowest type the retry really handles"
    )
    paths = _SRC + ("tools/*", "tools/**")

    _BROAD = {"Exception", "BaseException"}

    def _is_broad(self, node: Optional[ast.expr]) -> bool:
        if node is None:
            return True
        if isinstance(node, ast.Name) and node.id in self._BROAD:
            return True
        if isinstance(node, ast.Tuple):
            return any(self._is_broad(e) for e in node.elts)
        return False

    @staticmethod
    def _reraises(handler: ast.ExceptHandler) -> bool:
        return any(
            isinstance(n, ast.Raise) for n in ast.walk(handler)
        )

    def check(self, f: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(f.tree):
            if isinstance(node, ast.ExceptHandler) \
                    and self._is_broad(node.type) \
                    and not self._reraises(node):
                label = "bare except" if node.type is None else \
                    f"except {ast.unparse(node.type)}"
                yield self.finding(
                    f, node,
                    f"{label} without re-raise — narrow the exception "
                    "type (or suppress with the justification for why "
                    "this retry path must be total)",
                )


@register
class SilentHandlerRule(Rule):
    """Flag except handlers whose body is only pass/continue."""

    id = "REPRO112"
    name = "silent-handler"
    description = (
        "an except body of just `pass` erases the failure with no "
        "counter, log line or comment pragma explaining why losing it "
        "is safe"
    )
    paths = _SRC

    def check(self, f: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(f.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if all(isinstance(stmt, (ast.Pass, ast.Continue))
                   for stmt in node.body):
                yield self.finding(
                    f, node,
                    "exception silently dropped — record it (counter/"
                    "result field) or suppress with the justification",
                )


@register
class PublicDocstringRule(Rule):
    """Flag public package API without a docstring.

    The package doubles as the paper's written-out methodology: the
    generated API reference (``tools/gen_api_docs.py`` -> docs/api.md)
    is assembled from docstrings, so an undocumented public function is
    a hole in the methodology document, not just a style nit.
    """

    id = "REPRO113"
    name = "public-docstring"
    description = (
        "docs/api.md is generated from docstrings; a public function, "
        "class or method without one ships an undocumented contract — "
        "document it (or suppress with the justification for why the "
        "name must stay public yet undocumented)"
    )
    paths = _SRC

    @staticmethod
    def _public(name: str) -> bool:
        return not name.startswith("_")

    def _scan(
        self, f: SourceFile, body: Sequence[ast.stmt], owner: str
    ) -> Iterator[Finding]:
        for node in body:
            if isinstance(node, ast.ClassDef) and self._public(node.name):
                label = f"{owner}{node.name}"
                if ast.get_docstring(node) is None:
                    yield self.finding(
                        f, node,
                        f"public class `{label}` has no docstring",
                    )
                # Methods of a public class are API surface too; nested
                # helpers inside functions are not.
                yield from self._scan(f, node.body, f"{label}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and self._public(node.name) \
                    and ast.get_docstring(node) is None:
                kind = "method" if owner else "function"
                yield self.finding(
                    f, node,
                    f"public {kind} `{owner}{node.name}` has no docstring",
                )

    def check(self, f: SourceFile) -> Iterator[Finding]:
        yield from self._scan(f, f.tree.body, "")


@register
class UnboundedConcatRule(Rule):
    """Flag self-accumulating array concatenation on streaming paths.

    The streaming tier's whole point is a peak-memory bound set by the
    chunk budget, not the trace.  ``x = np.concatenate([x, chunk])``
    (and friends) silently re-grows an unbounded array chunk by chunk —
    O(trace) memory and O(n^2) copying — which is exactly the failure
    mode streaming exists to rule out.  Keep per-chunk arrays bounded:
    fold chunks into fixed-size accumulators, or prune before you
    concatenate (and suppress with the justification for why the
    retained set is bounded).
    """

    id = "REPRO114"
    name = "unbounded-concat"
    description = (
        "streaming-path assignment concatenates an array onto itself "
        "(unbounded accumulation breaks the chunk memory bound); fold "
        "into bounded accumulators instead"
    )
    #: The bounded-memory streaming tier: the incremental simulator and
    #: the serving layer that pumps unbounded NDJSON traces through it.
    paths = (
        "src/repro/simulator/stream.py",
        "src/repro/serving/*",
        "src/repro/serving/**",
    )

    _GROWERS = {
        "numpy.concatenate", "numpy.append", "numpy.hstack",
        "numpy.vstack", "numpy.r_",
    }

    def check(self, f: SourceFile) -> Iterator[Finding]:
        aliases = qualified_names(f.tree)
        for node in ast.walk(f.tree):
            if not isinstance(node, (ast.Assign, ast.AugAssign,
                                     ast.AnnAssign)):
                continue
            value = node.value
            if not isinstance(value, ast.Call):
                continue
            if call_name(value.func, aliases) not in self._GROWERS:
                continue
            if isinstance(node, ast.Assign):
                targets = node.targets
            else:
                targets = [node.target]
            target_srcs = {
                ast.unparse(t) for t in targets
                if isinstance(t, (ast.Name, ast.Attribute))
            }
            if not target_srcs:
                continue
            arg_nodes = list(value.args) + [kw.value for kw in value.keywords]
            for arg in arg_nodes:
                for sub in ast.walk(arg):
                    if isinstance(sub, (ast.Name, ast.Attribute)) \
                            and ast.unparse(sub) in target_srcs:
                        yield self.finding(
                            f, node,
                            f"`{ast.unparse(sub)}` is concatenated onto "
                            "itself on a streaming path — this "
                            "accumulates without bound; fold chunks "
                            "into a bounded accumulator",
                        )
                        break
                else:
                    continue
                break
