"""Spans around dimdiff's public functions, installed from outside the program.

``Tracer.install`` replaces each function in ``SPANS`` with a wrapper, in
every module that looks the name up (a name brought in with ``from ...
import`` is a separate binding in each importing module).  A wrapper records
a span: name, label, start, end, parent span and request id.  Every span is
folded into per-(name, label) totals as it closes; the first
``STORED_PER_NAME`` spans of each name are also kept in memory and written
out by ``Tracer.write`` when the run ends.  The methods in ``COUNTS`` are
only counted, because they run millions of times in a traced run.

A span's self time is its duration minus the time covered by its children.
Calls nest strictly in a single thread, so the children never overlap and
their durations can simply be summed.
"""

from __future__ import annotations

import importlib
import json
from time import perf_counter

from checks import needed_masks

STORED_PER_NAME = 2000

# Which existence questions reach the two-agent kernels, judged from the
# question itself (as documented by dimdiff.search) rather than from the
# search's private tables, so that a refactor of those cannot relabel spans.
_FAST_PR = {"nec", "ndd", "pdd", "pos"}
_EQUAL_SIZE = {"nec", "ndd", "nid", "nbin"}


def _search_label(args, kwargs, result):
    instance, goal = args[0], args[1]
    extension = goal.extension.value
    n, m = instance.agent_count, instance.item_count
    if extension in _EQUAL_SIZE and m % n:
        return "shortcut"
    if (
        n == 2
        and instance.kind.value == "goods"
        and goal.criterion.value == "pr"
        and extension in _FAST_PR
    ):
        return f"two_agent_pr.{extension}"
    return "enumeration"


def _split_label(args, kwargs, result):
    return f"M{args[0]}"


def _equal_masks(args, kwargs, result):
    return needed_masks("equal_split", args[0], result[0])


def _any_masks(args, kwargs, result):
    return needed_masks("any_split", args[0], result[0])


def _found_label(args, kwargs, result):
    return "none" if result is None else "found"


_SEARCH = ("search.exists_allocation", _search_label, None)
_HOLDS = ("extensions.holds", lambda a, k, r: a[0].value, None)
_REFUTE = ("extensions.refuting_utility", None, None)
_CHECK_PR = ("fairness.check_proportional", None, None)
_NDDPR = ("protocols.nddpr_exists", None, None)

#: (module, attribute it is looked up under) -> (span name, label, extra).
#: ``label(args, kwargs, result)`` splits a name's totals; ``extra`` adds a
#: number per call to the totals (the masks a split kernel had to score).
SPANS = {
    ("dimdiff.simulate", "run_trial"): ("simulate.run_trial", lambda a, k, r: f"m{a[0]}", None),
    ("dimdiff.simulate", "generate_profile"): ("simulate.generate_profile", None, None),
    ("dimdiff.simulate", "exists_allocation"): _SEARCH,
    ("dimdiff.cli", "exists_allocation"): _SEARCH,
    ("dimdiff.search", "exists_allocation"): _SEARCH,
    ("dimdiff._pairsearch", "first_equal_split"): ("pairsearch.equal_split", _split_label, _equal_masks),
    ("dimdiff._pairsearch", "first_any_split"): ("pairsearch.any_split", _split_label, _any_masks),
    ("dimdiff.search", "holds"): _HOLDS,
    ("dimdiff.fairness", "holds"): _HOLDS,
    ("dimdiff.cli", "holds"): _HOLDS,
    ("dimdiff.fairness", "refuting_utility"): _REFUTE,
    ("dimdiff.cli", "refuting_utility"): _REFUTE,
    ("dimdiff.simulate", "check_proportional"): _CHECK_PR,
    ("dimdiff.cli", "check_proportional"): _CHECK_PR,
    ("dimdiff.protocols", "check_proportional"): _CHECK_PR,
    ("dimdiff.cli", "check_envy_free"): ("fairness.check_envy_free", None, None),
    ("dimdiff.cli", "check_pareto"): ("fairness.check_pareto", None, None),
    ("dimdiff.simulate", "nddpr_exists"): _NDDPR,
    ("dimdiff.cli", "nddpr_exists"): _NDDPR,
    ("dimdiff.cli", "nidpr_necessary"): ("protocols.nidpr_necessary", None, None),
    ("dimdiff.cli", "nidpr_two_agents"): ("protocols.nidpr_two_agents", None, None),
    ("dimdiff.reductions", "reduce_x3c"): ("reductions.reduce_x3c", None, None),
    ("dimdiff.reductions", "solve_x3c"): ("reductions.solve_x3c", None, None),
    ("dimdiff.reductions", "allocation_from_cover"): ("reductions.allocation_from_cover", None, None),
    ("dimdiff.reductions", "nddef_search_reduced"): ("reductions.nddef_search_reduced", _found_label, None),
    ("dimdiff.cli", "load_profile"): ("profiles.load_profile", None, None),
    ("dimdiff.cli", "main"): ("cli.main", lambda a, k, r: a[0][0], None),
}

#: (module, class, method) -> counter name.
COUNTS = {
    ("dimdiff.search", "AllocationGoal", "satisfied_by"): "search.enumeration.states",
    ("dimdiff.core", "Ranking", "reversed"): "core.ranking_reversed.calls",
    ("dimdiff.core", "MultiBundle", "levels"): "core.multibundle_levels.calls",
    ("dimdiff.core", "Allocation", "__init__"): "core.allocation_init.calls",
}


class Tracer:
    def __init__(self):
        self.request = None
        self.totals = {}  # (name, label) -> [calls, seconds, self seconds, extra]
        self.counts = {name: 0 for name in COUNTS.values()}
        self.spans = []  # (id, name, label, start, end, parent, request)
        self._stored = {}
        self._open = []  # [span id, seconds covered by children]
        self._next_id = 0
        self._originals = []  # (owner, attribute, original) for uninstall

    def install(self):
        """Wrap every function of SPANS and COUNTS in place."""
        for (module_name, attr), (name, label, extra) in SPANS.items():
            module = importlib.import_module(module_name)
            self._replace(module, attr, self._span(getattr(module, attr), name, label, extra))
        for (module_name, cls_name, method), name in COUNTS.items():
            cls = getattr(importlib.import_module(module_name), cls_name)
            self._replace(cls, method, self._counter(getattr(cls, method), name))

    def uninstall(self):
        """Put back every function install wrapped."""
        while self._originals:
            setattr(*self._originals.pop())

    def _replace(self, owner, attr, wrapper):
        self._originals.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _span(self, fn, name, label, extra):
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._open[-1] if self._open else None
            frame = [span_id, 0.0]
            self._open.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._open.pop()
                if parent is not None:
                    parent[1] += end - start
            tag = label(args, kwargs, result) if label else ""
            total = self.totals.setdefault((name, tag), [0, 0.0, 0.0, 0])
            total[0] += 1
            total[1] += end - start
            total[2] += end - start - frame[1]
            if extra is not None:
                total[3] += extra(args, kwargs, result)
            if self._stored.get(name, 0) < STORED_PER_NAME:
                self._stored[name] = self._stored.get(name, 0) + 1
                self.spans.append((
                    span_id, name, tag, start, end,
                    None if parent is None else parent[0], self.request,
                ))
            return result

        return traced

    def _counter(self, fn, name):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- summaries ----------------------------------------------------------

    def _sum(self, name, tag=None):
        calls = seconds = self_seconds = extra = 0
        for (n, t), (c, s, ss, e) in self.totals.items():
            if n == name and (tag is None or t == tag):
                calls, seconds, self_seconds, extra = calls + c, seconds + s, self_seconds + ss, extra + e
        return calls, seconds, self_seconds, extra

    def mean(self, name, tag=None, scale=1e3, self_time=False):
        """Mean (self) time per call in 1/scale seconds; 0 when never called."""
        calls, seconds, self_seconds, _ = self._sum(name, tag)
        return (self_seconds if self_time else seconds) / calls * scale if calls else 0.0

    def per_layer(self):
        """Every per-layer metric the traced run measures, by name."""
        metrics = {}
        for m in range(2, 9):
            metrics[f"simulate.run_trial.ms.m{m}"] = self.mean("simulate.run_trial", f"m{m}")
        metrics["simulate.generate_profile.us"] = self.mean("simulate.generate_profile", scale=1e6)
        for ext in ("nec", "ndd", "pdd", "pos"):
            metrics[f"search.two_agent_pr.ms.{ext}"] = self.mean(
                "search.exists_allocation", f"two_agent_pr.{ext}"
            )
        states = self.counts["search.enumeration.states"]
        enumeration_seconds = self._sum("search.exists_allocation", "enumeration")[1]
        metrics["search.enumeration.states"] = states
        metrics["search.enumeration.states_per_s"] = (
            states / enumeration_seconds if enumeration_seconds else 0.0
        )
        for kernel in ("equal_split", "any_split"):
            for m in range(4, 17, 2):
                metrics[f"pairsearch.{kernel}.ms.M{m}"] = self.mean(f"pairsearch.{kernel}", f"M{m}")
            _, seconds, _, masks = self._sum(f"pairsearch.{kernel}")
            metrics[f"pairsearch.{kernel}.ns_per_needed_mask"] = seconds * 1e9 / masks if masks else 0.0
        for kind in ("nec", "pos", "ndd", "pdd", "nid", "pid", "nbin", "pbin"):
            metrics[f"extensions.holds.us.{kind}"] = self.mean("extensions.holds", kind, scale=1e6)
        metrics["extensions.holds.calls"] = self._sum("extensions.holds")[0]
        metrics["extensions.refuting_utility.us"] = self.mean("extensions.refuting_utility", scale=1e6)
        metrics["fairness.check_proportional.us"] = self.mean("fairness.check_proportional", scale=1e6)
        metrics["fairness.check_envy_free.us"] = self.mean("fairness.check_envy_free", scale=1e6)
        metrics["fairness.check_pareto.ms"] = self.mean("fairness.check_pareto")
        metrics["protocols.nddpr_exists.us"] = self.mean("protocols.nddpr_exists", scale=1e6)
        metrics["protocols.nidpr_necessary.ms"] = self.mean("protocols.nidpr_necessary")
        metrics["protocols.nidpr_two_agents.ms"] = self.mean("protocols.nidpr_two_agents")
        for step in ("reduce_x3c", "solve_x3c", "allocation_from_cover"):
            metrics[f"reductions.{step}.ms"] = self.mean(f"reductions.{step}")
        for outcome in ("found", "none"):
            metrics[f"reductions.nddef_search_reduced.ms.{outcome}"] = self.mean(
                "reductions.nddef_search_reduced", outcome
            )
        metrics["profiles.load_profile.ms"] = self.mean("profiles.load_profile")
        for command in ("compare", "check", "solve"):
            metrics[f"cli.main.self_ms.{command}"] = self.mean("cli.main", command, self_time=True)
        for name in ("core.ranking_reversed.calls", "core.multibundle_levels.calls",
                     "core.allocation_init.calls"):
            metrics[name] = self.counts[name]
        return metrics

    def write(self, path):
        """Write the kept spans, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, tag, start, end, parent, request in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "label": tag, "start": start,
                    "end": end, "parent": parent, "request": request,
                }) + "\n")
