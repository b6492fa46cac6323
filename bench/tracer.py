"""Span tracer that wraps partialmix's public functions from outside.

Each traced function is replaced, in every partialmix module namespace
that holds it, by a wrapper that records one span: name, start, end and
the span that was open when it was entered. ``learner.step`` is therefore
timed where ``environment.run_game`` looks it up, ``classnet.advance``
where ``learner.finish_round`` and the validation suites look it up, and
so on, while the program's own composition runs unchanged.

Spans stay in memory until ``Tracer.write`` stores them after the run.
A layer's self time is its span's duration minus the durations of its
direct child spans.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import defaultdict

# (defining module, function name) pairs; the span is named "module.name"
FUNCTIONS = (
    ("config", "load_config"),
    ("environment", "run_game"),
    ("environment", "best_competitor"),
    ("learner", "step"),
    ("learner", "prepare_round"),
    ("learner", "select"),
    ("learner", "finish_round"),
    ("learner", "estimate"),
    ("learner", "update_rate"),
    ("feedback", "observation_probabilities"),
    ("feedback", "sample_indicators"),
    ("classnet", "advance"),
    ("classnet", "expert_marginals"),
    ("evaluation", "realized_regret"),
    ("evaluation", "check_lemmas"),
    ("cli", "write_rounds_csv"),
    ("validation", "oracle_equivalence_suite"),
    ("validation", "lemma_suite"),
    ("validation", "affine_suite"),
    ("oracle", "enumerate_weights"),
)
# loss generation is a method of each LossProcess subclass
GENERATE_SPAN = "environment.generate"

SPAN_NAMES = tuple(f"{m}.{f}" for m, f in FUNCTIONS) + (GENERATE_SPAN,)
COUNTED = (
    "environment.run_game",
    "learner.step",
    "classnet.advance",
    "oracle.enumerate_weights",
)


class Tracer:
    """Records spans in memory; one instance per process."""

    def __init__(self) -> None:
        self.names: list[int] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.child_ns: list[int] = []
        self.revealed_losses = 0
        self.rounds_csv_bytes = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name_index: int, fn, after=None):
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        child_ns, stack, clock = self.child_ns, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = len(names)
            names.append(name_index)
            parents.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            child_ns.append(0)
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                starts[span] = start
                ends[span] = end
                if stack:
                    child_ns[stack[-1]] += end - start
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def _count_revealed(self, args, kwargs, indicators) -> None:
        self.revealed_losses += int(indicators.sum())

    def _count_csv_bytes(self, args, kwargs, result) -> None:
        path = args[0] if args else kwargs["path"]
        self.rounds_csv_bytes += os.path.getsize(path)

    def install(self) -> None:
        """Patch every partialmix namespace that holds a traced function."""
        for module_name, _ in FUNCTIONS:
            importlib.import_module(f"partialmix.{module_name}")
        from partialmix import environment

        modules = [
            mod for name, mod in sys.modules.items()
            if mod is not None and (name == "partialmix" or name.startswith("partialmix."))
        ]
        after = {
            "feedback.sample_indicators": self._count_revealed,
            "cli.write_rounds_csv": self._count_csv_bytes,
        }
        for index, (module_name, fn_name) in enumerate(FUNCTIONS):
            original = getattr(sys.modules[f"partialmix.{module_name}"], fn_name)
            span_name = f"{module_name}.{fn_name}"
            wrapper = self._wrap(index, original, after.get(span_name))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
        generate_index = SPAN_NAMES.index(GENERATE_SPAN)
        for cls in _subclasses(environment.LossProcess):
            if "generate" in vars(cls):
                original = vars(cls)["generate"]
                self._patched.append((cls, "generate", original))
                setattr(cls, "generate", self._wrap(generate_index, original))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    def layer_metrics(self) -> dict[str, float | int]:
        """Self time per span name in seconds, call counts, and the two
        counters recorded at layer boundaries."""
        self_ns: dict[int, int] = defaultdict(int)
        calls: dict[int, int] = defaultdict(int)
        for name, start, end, child in zip(self.names, self.starts, self.ends, self.child_ns):
            self_ns[name] += end - start - child
            calls[name] += 1
        metrics: dict[str, float | int] = {}
        for index, name in enumerate(SPAN_NAMES):
            metrics[f"{name}_s"] = self_ns[index] / 1e9
            if name in COUNTED:
                metrics[f"{name}_calls"] = calls[index]
        metrics["feedback.revealed_losses"] = self.revealed_losses
        metrics["cli.rounds_csv_bytes"] = self.rounds_csv_bytes
        return metrics

    def write(self, path: str) -> None:
        """One line per span: id, parent id, name, start and end in ns."""
        with open(path, "w") as handle:
            handle.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for span, (parent, name, start, end) in enumerate(
                zip(self.parents, self.names, self.starts, self.ends)
            ):
                handle.write(f"{span}\t{parent}\t{SPAN_NAMES[name]}\t{start}\t{end}\n")


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)
