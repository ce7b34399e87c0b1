"""Call counting and span tracing around the package's public functions.

The benchmark measures the package from outside.  It replaces the module
attributes that callers resolve at call time (``landweber.solve_forward``,
``forward.solve_spd``, ...), the ``precond`` and ``nonlinearity`` fields of
every ``ForwardProblem`` that ``ForwardProblem.build`` returns, and
``SpdSystem.matvec`` with wrappers, and puts the originals back on exit.
Nothing under ``src/`` changes.

A wrapper either only counts calls (untraced runs: the counters behind the
end-to-end metrics) or also records one span per call: layer name, parent
span, the operation (cell, run or mesh) it belongs to, start, end and the
exception class it raised.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from statistics import median

PACKAGE = "bouligand_landweber"

# (module, attribute, layer): module attributes wrapped where callers resolve them.
MODULE_HOOKS = (
    ("forward", "assemble", "mesh_fem.assemble"),
    ("forward", "solve_spd", "sparse_linalg.solve_spd"),
    ("bouligand", "solve_spd", "sparse_linalg.solve_spd"),
    ("landweber", "solve_forward", "forward.solve_forward"),
    ("landweber", "build_linearized", "bouligand.build_linearized"),
    ("landweber", "apply_subderivative", "bouligand.apply_subderivative"),
    ("landweber", "m_norm", "mesh_fem.m_norm"),
    ("experiments", "run", "landweber.run"),
    ("experiments", "exact_fields", "experiments.exact_fields"),
    ("experiments", "add_noise", "experiments.add_noise"),
)
BUILD = "forward.ForwardProblem.build"
MATVEC = "sparse_linalg.SpdSystem.matvec"
PRECOND = "ForwardProblem.precond"
NONLINEARITY = "ForwardProblem.nonlinearity"
NONLINEARITY_METHODS = ("value", "bouligand_coeff", "newton_coeff", "selection_pattern")
NEWTON_SOLVE = "forward.solve_spd"
# Calls the benchmark itself makes; wrapped at the call site.
RUN_TABLE = "experiments.run_table"
RUN_NOISE_FREE = "experiments.run_noise_free"
SOLVE_FORWARD = "forward.solve_forward"

ALL_HOOKS = frozenset(
    {f"{m}.{a}" for m, a, _ in MODULE_HOOKS}
    | {BUILD, MATVEC, PRECOND, NONLINEARITY, RUN_TABLE, RUN_NOISE_FREE, SOLVE_FORWARD}
)
# Untraced runs count only what the end-to-end metrics need: Newton solves
# and preconditioner applications (BUILD reaches the precond field).
COUNTING_HOOKS = frozenset({BUILD, PRECOND, NEWTON_SOLVE})

ROOT = "bench.rep"
# Spans that start an operation; every span below one shares its id.
OPERATIONS = frozenset({"landweber.run", "refine.mesh"})

# Span record fields.
NAME, PARENT, OP, START, END, ERROR = range(6)


class HookMissing(RuntimeError):
    """A function or field the benchmark wraps no longer exists or never ran."""


class _WrappedNonlinearity:
    """Delegates to a problem's nonlinearity, with its evaluations wrapped."""

    def __init__(self, inner, wrap):
        self._inner = inner
        for name in NONLINEARITY_METHODS:
            method = getattr(inner, name, None)
            if method is None:
                raise HookMissing(f"{NONLINEARITY}.{name}")
            setattr(self, name, wrap(method))

    def __getattr__(self, name):
        return getattr(self._inner, name)


class Tracer:
    """Install wrappers on enter, restore the originals on exit.

    `hooks` selects the hook ids to wrap; with `spans` false the wrappers
    only count calls, in `counts` keyed by hook id.
    """

    def __init__(self, hooks, spans: bool):
        self.hooks = frozenset(hooks)
        self.spans_on = spans
        self.counts: Counter = Counter()
        self.spans: list[list] = []
        self._open: list[int] = []
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------
    def _push(self, layer: str) -> int:
        i = len(self.spans)
        parent = self._open[-1] if self._open else -1
        op = i if parent < 0 or layer in OPERATIONS else self.spans[parent][OP]
        self.spans.append([layer, parent, op, time.perf_counter(), 0.0, None])
        self._open.append(i)
        return i

    def _pop(self, i: int) -> None:
        self.spans[i][END] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, layer: str):
        """A span opened by the benchmark itself; nothing when tracing is off."""
        if not self.spans_on:
            yield
            return
        i = self._push(layer)
        try:
            yield
        except BaseException as exc:
            self.spans[i][ERROR] = type(exc).__name__
            raise
        finally:
            self._pop(i)

    def wrap(self, hook: str, layer: str, fn):
        if hook not in self.hooks:
            return fn
        counts = self.counts
        if not self.spans_on:

            def counted(*args, **kwargs):
                counts[hook] += 1
                return fn(*args, **kwargs)

            return functools.wraps(fn)(counted)

        def traced(*args, **kwargs):
            counts[hook] += 1
            i = self._push(layer)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                self.spans[i][ERROR] = type(exc).__name__
                raise
            finally:
                self._pop(i)

        return functools.wraps(fn)(traced)

    def call(self, hook: str, layer: str, fn, *args, **kwargs):
        return self.wrap(hook, layer, fn)(*args, **kwargs)

    # -- installation ------------------------------------------------------
    def _patch(self, owner, attr: str, hook: str, replacement) -> None:
        raw = vars(owner).get(attr)
        if raw is None:
            raise HookMissing(hook)
        setattr(owner, attr, replacement(raw))
        self._patches.append((owner, attr, raw))

    def instrument(self, problem) -> None:
        """Wrap the precond and nonlinearity fields of one built problem."""
        try:
            if PRECOND in self.hooks:
                if getattr(problem, "precond", None) is None:
                    raise HookMissing(PRECOND)
                problem.precond = self.wrap(PRECOND, "sparse_linalg.precond", problem.precond)
            if NONLINEARITY in self.hooks:
                problem.nonlinearity = _WrappedNonlinearity(
                    problem.nonlinearity,
                    lambda fn: self.wrap(NONLINEARITY, "forward.nonlinearity", fn),
                )
        except AttributeError as exc:  # field gone or problem frozen
            raise HookMissing(f"{PRECOND} / {NONLINEARITY}: {exc}") from exc

    def __enter__(self) -> "Tracer":
        try:
            for module, attr, layer in MODULE_HOOKS:
                hook = f"{module}.{attr}"
                if hook in self.hooks:
                    mod = importlib.import_module(f"{PACKAGE}.{module}")
                    self._patch(mod, attr, hook, functools.partial(self.wrap, hook, layer))
            if MATVEC in self.hooks:
                system = importlib.import_module(f"{PACKAGE}.sparse_linalg").SpdSystem
                wrap = functools.partial(self.wrap, MATVEC, "sparse_linalg.matvec")
                self._patch(system, "matvec", MATVEC, wrap)
            if BUILD in self.hooks:
                cls = importlib.import_module(f"{PACKAGE}.forward").ForwardProblem
                self._patch(cls, "build", BUILD, lambda raw: self._build(raw.__get__(None, cls)))
        except BaseException:
            self.__exit__()
            raise
        return self

    def _build(self, build):
        def build_and_instrument(*args, **kwargs):
            problem = build(*args, **kwargs)
            self.instrument(problem)
            return problem

        return staticmethod(self.wrap(BUILD, "forward.build", build_and_instrument))

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)


def _ancestor(spans, i: int, names) -> str | None:
    """Name of the nearest ancestor of span i whose name is in `names`."""
    parent = spans[i][PARENT]
    while parent >= 0:
        if spans[parent][NAME] in names:
            return spans[parent][NAME]
        parent = spans[parent][PARENT]
    return None


def self_times(spans, lo: int, hi: int) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    Negative only if spans overlap wrongly, for example across threads.
    """
    covered = defaultdict(float)
    for s in spans[lo + 1 : hi]:
        covered[s[PARENT]] += s[END] - s[START]
    return [spans[i][END] - spans[i][START] - covered[i] for i in range(lo, hi)]


def layer_metrics(spans, lo: int, hi: int) -> dict:
    """Per-layer counts and times of the repeat whose spans are spans[lo:hi].

    spans[lo] is the repeat's root.
    """
    calls, failed = Counter(), Counter()
    total, self_time = defaultdict(float), defaultdict(float)
    for s, own in zip(spans[lo:hi], self_times(spans, lo, hi)):
        calls[s[NAME]] += 1
        total[s[NAME]] += s[END] - s[START]
        self_time[s[NAME]] += own
        failed[s[NAME]] += s[ERROR] is not None

    callers = ("forward.solve_forward", "bouligand.apply_subderivative")
    under = Counter()
    for i in range(lo, hi):
        if spans[i][NAME] in ("sparse_linalg.precond", "sparse_linalg.solve_spd"):
            under[spans[i][NAME], _ancestor(spans, i, callers)] += 1
        elif spans[i][NAME] == "bouligand.apply_subderivative":
            under["step", _ancestor(spans, i, ("landweber.run",))] += 1
    cell_s = sum(
        spans[i][END] - spans[i][START]
        for i in range(lo, hi)
        if spans[i][NAME] == "landweber.run"
        and spans[spans[i][PARENT]][NAME] == "experiments.run_table"
    )

    def per(a, b):
        return a / b if b else 0.0

    precond = calls["sparse_linalg.precond"]
    solves = calls["sparse_linalg.solve_spd"]
    fwd = calls["forward.solve_forward"]
    applies = calls["bouligand.apply_subderivative"]
    steps = under["step", "landweber.run"]
    wall = spans[lo][END] - spans[lo][START]
    return {
        "sparse_linalg.precond_applies": precond,
        "sparse_linalg.precond_ms": 1e3 * per(total["sparse_linalg.precond"], precond),
        "sparse_linalg.precond_s": total["sparse_linalg.precond"],
        "sparse_linalg.matvec_calls": calls["sparse_linalg.matvec"],
        "sparse_linalg.matvec_s": total["sparse_linalg.matvec"],
        "sparse_linalg.solve_spd_calls": solves,
        "sparse_linalg.cg_iters_per_solve": per(precond, solves),
        "sparse_linalg.solve_spd_self_s": self_time["sparse_linalg.solve_spd"],
        "sparse_linalg.solve_spd_failed": failed["sparse_linalg.solve_spd"],
        "forward.build_s": total["forward.build"],
        "mesh_fem.assemble_s": total["mesh_fem.assemble"],
        "experiments.exact_fields_s": total["experiments.exact_fields"],
        "forward.solve_forward_calls": fwd,
        "forward.ssn_per_solve": per(under["sparse_linalg.solve_spd", "forward.solve_forward"], fwd),
        "forward.solve_forward_self_s": self_time["forward.solve_forward"],
        "forward.nonlinearity_s": total["forward.nonlinearity"],
        "bouligand.apply_calls": applies,
        "bouligand.apply_s": total["bouligand.apply_subderivative"],
        "bouligand.cg_iters_per_apply": per(
            under["sparse_linalg.precond", "bouligand.apply_subderivative"], applies
        ),
        "bouligand.build_linearized_s": total["bouligand.build_linearized"],
        "landweber.run_calls": calls["landweber.run"],
        "landweber.steps": steps,
        "landweber.step_ms": 1e3 * per(total["landweber.run"], steps),
        "landweber.run_self_s": self_time["landweber.run"],
        "mesh_fem.m_norm_s": total["mesh_fem.m_norm"],
        "experiments.run_table_s": total["experiments.run_table"],
        "experiments.cell_s": cell_s,
        "experiments.add_noise_s": total["experiments.add_noise"],
        "trace.wall_s": wall,
        "trace.unattributed_frac": per(self_time[ROOT], wall),
    }


def median_metrics(per_rep: list[dict]) -> dict:
    return {k: median(m[k] for m in per_rep) for k in per_rep[0]}
