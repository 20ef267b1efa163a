"""Span tracing for the benchmark's traced run, built from outside the package.

A public function is wrapped by replacing its name in every `rfid_sampler`
module that holds it, so calls through `from .hashing import ids_to_halves`
are caught as well as calls through `rfid_sampler.hashing`.  Only functions
called at most once per protocol iteration are wrapped, never per-tag ones,
so the tracing overhead stays small next to the work it measures.

Each span (name, start, end, parent, pass and operation index) is kept in
memory and written out as JSONL when the run ends.  A name missing from the code
under test is recorded as absent instead of raising, so the benchmark keeps
working when internals are renamed.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter

PACKAGE = "rfid_sampler"

# Layers in reporting order; a span's layer is the module part of its name.
LAYERS = ("population", "hashing", "protocol", "selgen", "baselines", "harness", "verify")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Collects spans and per-pass counts from wrapped package functions.

    Spans live in flat typed arrays, which the garbage collector does not
    scan; span objects would make every full collection slower as the run
    goes on and inflate the times being measured."""

    def __init__(self):
        self.labels: list[str] = []
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._pass = array("i")
        self._op = array("i")
        self.op: tuple[int, int] = (-1, -1)  # (pass, operation) being run
        self.absent: list[str] = []
        self.hook_errors: list[str] = []
        self.counts_by_pass: dict[int, Counter] = {}
        self.count = Counter()
        self.pending_optc: list = []
        self.originals: dict[str, object] = {}
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def begin_pass(self, index: int):
        self.count = self.counts_by_pass.setdefault(index, Counter())

    def wrap(self, module: str, name: str, hook=None):
        """Replace `module.name` everywhere the package looks it up."""
        mod = sys.modules.get(f"{PACKAGE}.{module}")
        orig = getattr(mod, name, None) if mod is not None else None
        label = f"{module}.{name}"
        if not callable(orig):
            self.absent.append(label)
            return
        self.originals[label] = orig
        self.labels.append(label)
        wrapper = self._make_wrapper(len(self.labels) - 1, label, orig, hook)
        for m in list(sys.modules.values()):
            mname = getattr(m, "__name__", "")
            if (mname == PACKAGE or mname.startswith(PACKAGE + ".")) and getattr(
                m, name, None
            ) is orig:
                setattr(m, name, wrapper)
                self._restore.append((m, name, orig))

    def unwrap_all(self):
        for m, name, orig in reversed(self._restore):
            setattr(m, name, orig)
        self._restore.clear()

    def _make_wrapper(self, label_id, label, fn, hook):
        names, starts, ends = self._name, self._start, self._end
        parents, passes, ops = self._parent, self._pass, self._op
        stack, clock = self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(label_id)
            parents.append(stack[-1] if stack else -1)
            passes.append(self.op[0])
            ops.append(self.op[1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                try:
                    hook(self, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    if label not in self.hook_errors:
                        self.hook_errors.append(label)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _rows(self):
        return zip(self._name, self._start, self._end, self._parent, self._pass, self._op)

    def write_jsonl(self, path):
        """One span per line: name, start, end, parent (line index or -1),
        pass and operation index (the trial id; -1 outside any)."""
        with open(path, "w") as fh:
            for name, start, end, parent, pass_index, op in self._rows():
                fh.write(json.dumps({
                    "name": self.labels[name], "start": start, "end": end,
                    "parent": parent, "pass": pass_index, "op": op,
                }) + "\n")

    def times(self, pass_index: int | None = None) -> dict[str, dict[str, float]]:
        """Per span name: total duration, total self time and call count,
        over all passes or over one.

        Self time is a span's duration minus the time its child spans cover;
        the program is single-threaded, so children never overlap."""
        child = [0.0] * len(self._start)
        for _, start, end, parent, _, _ in self._rows():
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, parent, p, _) in enumerate(self._rows()):
            if pass_index is not None and p != pass_index:
                continue
            t = out.setdefault(self.labels[name], {"s": 0.0, "self_s": 0.0, "calls": 0})
            t["s"] += end - start
            t["self_s"] += end - start - child[i]
            t["calls"] += 1
        return out

    def top_level_seconds(self) -> float:
        return sum(end - start for _, start, end, parent, _, _ in self._rows() if parent < 0)


# Count hooks: called after a wrapped call returns, with (tracer, args,
# kwargs, result).  They only read arguments and results, so each is O(1)
# or O(K) per call.

def _on_generate_population(tr, args, kwargs, result):
    tr.count["population.tags_generated"] += sum(
        n for n, _ in _arg(args, kwargs, 0, "category_sizes")
    )


def _on_sample_once(tr, args, kwargs, result):
    tr.count["population.tags_generated"] += _arg(args, kwargs, 0, "n")


def _on_ids_to_halves(tr, args, kwargs, result):
    tr.count["hashing.ids_to_halves.ids"] += len(result[0])


def _on_find_suitable_seed(tr, args, kwargs, result):
    stats = result[1]
    tr.count["hashing.find_suitable_seed.calls"] += 1
    tr.count["hashing.seed_tests"] += stats.tests
    tr.count["hashing.seed_first_hits"] += stats.tests == 1


def _on_optc1_round(tr, args, kwargs, result):
    tr.count["protocol.bits.coarse_header"] += result.bits_sent


def _on_optc2_round(tr, args, kwargs, result):
    # optc2_round charges 3*ceil(log2 m) header bits and m frame bits per
    # iteration, then one stop bit; run_optc adds the coarse bits to
    # bits_sent only after this call returns.
    c = _arg(args, kwargs, 1, "c")
    tr.count["protocol.sum_c"] += c
    tr.count["protocol.refine_iterations"] += result.iterations
    tr.count["protocol.pool_tags_hashed"] += result.payload_bits
    tr.count["protocol.bits.frame"] += result.payload_bits
    tr.count["protocol.bits.stop"] += 1
    tr.count["protocol.bits.refine_header"] += result.bits_sent - result.payload_bits - 1


def _on_run_optc(tr, args, kwargs, result):
    tr.pending_optc.append((_arg(args, kwargs, 0, "population"), result[0]))


def _on_run_impl_category(tr, args, kwargs, result):
    tr.count["selgen.categories"] += 1
    tr.count["selgen.commands"] += len(result.commands)
    tr.count["selgen.window_draws"] += result.coarse_redraws + result.refine_redraws


# (module, function, hook) for every wrapped public function.  All are
# called at most once per category or protocol iteration.
TARGETS = (
    ("population", "generate_population", _on_generate_population),
    ("population", "category_tags", None),
    ("hashing", "ids_to_halves", _on_ids_to_halves),
    ("hashing", "find_suitable_seed", _on_find_suitable_seed),
    ("hashing", "substring_values", None),
    ("protocol", "run_optc", _on_run_optc),
    ("protocol", "optc1_round", _on_optc1_round),
    ("protocol", "optc2_round", _on_optc2_round),
    ("protocol", "build_frame", None),
    ("selgen", "run_optc_impl", None),
    ("selgen", "run_impl_category", _on_run_impl_category),
    ("selgen", "best_threshold", None),
    ("selgen", "selgen_commands", None),
    ("baselines", "run_random_select", None),
    ("harness", "load_config", None),
    ("harness", "run_trial", None),
    ("harness", "write_results", None),
    ("verify", "sample_once", _on_sample_once),
)


def install(tracer: Tracer):
    for module, name, hook in TARGETS:
        tracer.wrap(module, name, hook)


def check_optc_outcomes(tracer: Tracer) -> int:
    """Check each pending run_optc result: per category exactly c Ready tags,
    orders 1..c, IDs drawn from that category.  Returns the failure count."""
    category_tags = tracer.originals.get("population.category_tags")
    failures = 0
    for population, outcomes in tracer.pending_optc:
        ok = len(outcomes) == len(population.categories)
        for spec, out in zip(population.categories, outcomes):
            ids = [tid for tid, _ in out.ready]
            members = (
                {t.id for t in category_tags(population, spec.k)}
                if category_tags is not None else set(ids)
            )
            ok = ok and (
                len(ids) == spec.c
                and len(set(ids)) == spec.c
                and sorted(o for _, o in out.ready) == list(range(1, spec.c + 1))
                and members.issuperset(ids)
            )
        failures += not ok
    tracer.pending_optc.clear()
    return failures
