"""Spans around the calls into each layer, recorded from outside the package.

`Tracer` replaces the traced public functions with timing wrappers in every
`quboplan` module namespace that binds them, so calls the planner makes
through names it imported are seen too, and puts the originals back on exit.
Each span records its layer, function, plan, start, end and parent span;
a span's self time is its duration minus that of its child spans.
"""

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field

# Layer (the module under quboplan) -> the public functions traced in it.
# `plan_multi` is the entry point and `plan_paths` the planner's window loop.
TRACED = {
    "multi": ("plan_multi",),
    "planner": ("plan_paths",),
    "grid": ("bfs_layers", "bfs_distances"),
    "preprocess": ("fix_logical", "fold", "fix_numeric_diagonal"),
    "penalties": ("build_window_model",),
    "solvers": ("solve",),
    "qubo": ("decode", "QuboModel.energy"),
    "postprocess": ("fix_one_hot_continuity", "detect_invalid_move",
                    "find_vertex_conflicts", "resolve_clash_wait"),
    "classical": ("astar", "prioritized_plan"),
}


def _solve_info(args, result) -> dict:
    model, cfg = args
    return {"n": model.num_vars, "nnz": len(model.coeffs),
            "annealer": cfg.backend == "annealer",
            "reads": cfg.num_reads, "sweeps": cfg.sweeps, "distinct": len(result)}


def _numeric_info(args, result) -> dict:
    # The FixReport argument is final once the numeric pass has run on it.
    report = args[1]
    return {"original": report.original_count, "free": report.reduced_count}


# Function -> counts read from its (args, result) when a traced call returns.
OBSERVE = {
    "solve": _solve_info,
    "build_window_model": lambda args, model: {"nnz": len(model.coeffs)},
    "fix_numeric_diagonal": _numeric_info,
    "fix_one_hot_continuity": lambda args, out: {"dropped": out.dropped},
}


@dataclass
class Span:
    layer: str
    name: str
    plan: object
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0
    info: dict | None = None

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


@dataclass
class Tracer:
    """Context manager that records a `Span` per traced call.

    Set `plan` to tag the spans of the calls that follow. For the functions
    in `OBSERVE`, a few counts read from the call's arguments and result are
    kept on the span, so counts are taken where the work ran.
    """

    plan: object = None
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _patched: list[tuple[object, str, object]] = field(default_factory=list)

    def __enter__(self) -> "Tracer":
        try:
            for layer, names in TRACED.items():
                module = importlib.import_module(f"quboplan.{layer}")
                for name in names:
                    self._patch(module, layer, name)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _patch(self, module, layer: str, name: str) -> None:
        owner = module
        if "." in name:
            cls, name = name.split(".")
            owner = getattr(module, cls, None)
        original = getattr(owner, name, None) if owner is not None else None
        if original is None:
            raise RuntimeError(
                f"quboplan.{layer} no longer defines {name}; update TRACED")
        wrapper = self._wrap(layer, name, original)
        if owner is not module:
            # A method: patching the class reaches every caller.
            self._patched.append((owner, name, original))
            setattr(owner, name, wrapper)
            return
        bound = [
            (mod, attr)
            for mod_name, mod in list(sys.modules.items())
            if mod_name == "quboplan" or mod_name.startswith("quboplan.")
            for attr, value in vars(mod).items()
            if value is original
        ]
        for mod, attr in bound:
            self._patched.append((mod, attr, original))
            setattr(mod, attr, wrapper)

    def _restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrap(self, layer: str, name: str, fn):
        observe = OBSERVE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(layer, name, self.plan,
                        self._stack[-1] if self._stack else None,
                        time.perf_counter())
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if span.parent is not None:
                    self.spans[span.parent].child_s += span.end - span.start
            if observe is not None:
                span.info = observe(args, result)
            return result
        return traced
