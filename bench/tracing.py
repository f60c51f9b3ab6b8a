"""Spans around the calls into coinfo's public functions.

`install` replaces every binding of each public function of the layer
modules, in every layer module that holds one (optimize, regions and
typicality import `entropy_of_array` and others by name, so each of those
bindings is wrapped too), and `JointPmf.__init__` on the class. A span is
(name, start, end, parent index); a round's spans are kept in memory, in
start order, until the round has ended. A span's self time is its length
minus the time its child spans cover; a layer's self time is the sum over
its spans.
"""

import inspect
import statistics
import time
from collections import Counter

import reference as ref
from coinfo import cli, optimize, probability, regions, typicality

MODULES = (probability, regions, optimize, typicality, cli)

# names counted as one group: a call nested in a call of the same group
# adds to the group's call count but not again to its inclusive time
_GROUPS = {
    "probability.entropy_of_array": "probability.entropy",
    "probability.conditional_mutual_information": "probability.mutual_information",
}


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_draws(counters, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    kept = result["samples"] if isinstance(result, dict) else len(result)
    counters["draws_attempted"] += a["cfg"].count
    counters["draws_kept"] += kept
    if a.get("variant") == "ro":
        counters["ro_attempted"] += a["cfg"].count
        counters["ro_kept"] += kept


def _count_code_pairs(counters, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    nx, nz = a["p_xz"].mass.shape
    n = a["n"]
    counters["code_pairs"] += ref.canonical_code_pairs(nx**n, a["m1"], nz**n, a["m2"])


# counts recorded at the boundary where the work happens
_HOOKS = {
    "optimize.conjecture_test": _count_draws,
    "optimize.sample_region_points": _count_draws,
    "typicality.best_theta": _count_code_pairs,
}


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = _HOOKS.get(name)
        counters = self.counters

        if inspect.isgeneratorfunction(fn):
            # one span per resumption: the body runs between the consumer's next() calls
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = len(spans)
                    spans.append(None)
                    parent = stack[-1] if stack else -1
                    stack.append(idx)
                    start = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        spans[idx] = (name, start, clock(), parent)
                        stack.pop()
                    yield item

            return traced_gen

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()
            if hook is not None:
                hook(counters, fn, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every binding; returns a callable that restores the originals."""
        names = {}
        for mod in MODULES:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and not name.startswith("_") and obj.__module__ == mod.__name__:
                    names[obj] = f"{layer}.{name}"
        wrappers = {fn: self.wrap(name, fn) for fn, name in names.items()}
        patched = []
        for mod in MODULES:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    patched.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])
        init = probability.JointPmf.__init__
        patched.append((probability.JointPmf, "__init__", init))
        probability.JointPmf.__init__ = self.wrap("probability.JointPmf", init)

        def restore():
            for owner, name, obj in reversed(patched):
                setattr(owner, name, obj)

        return restore

    def totals(self):
        """Calls and inclusive time per group, self time per layer."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        bits, masks = {}, [0] * len(spans)
        calls, inclusive, self_time = Counter(), Counter(), Counter()
        for i, (name, start, end, parent) in enumerate(spans):
            group = _GROUPS.get(name, name)
            bit = bits.setdefault(group, 1 << len(bits))
            above = masks[parent] if parent >= 0 else 0
            masks[i] = above | bit
            calls[group] += 1
            if not above & bit:
                inclusive[group] += end - start
            self_time[name.split(".", 1)[0]] += end - start - covered[i]
        return calls, inclusive, self_time

    def write(self, path):
        """All spans as CSV, times in seconds from the first span's start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", newline="\n") as fh:
            fh.write("index,parent,name,start_s,end_s\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{start - t0:.9f},{end - t0:.9f}\n")


_COMMANDS = ("conjecture", "region_sample", "dsbs_gap", "ib_curve", "bruteforce", "typicality_check", "dsbs_surface")


def layer_metrics(tracer):
    """Every per-layer metric of one traced round, keyed by metric name.

    Each value is (number, unit). Metrics of layers or functions the round
    never entered are left out.
    """
    calls, incl, self_time = tracer.totals()
    c = tracer.counters
    out = {}

    def put(name, value, unit, when=True):
        if when:
            out[name] = (value, unit)

    p, o = "probability.", "optimize."
    put("probability.entropy_calls", calls[p + "entropy"], "count")
    put("probability.entropy_s", incl[p + "entropy"], "s")
    put("probability.hb_inverse_calls", calls[p + "binary_entropy_inverse"], "count")
    put("probability.hb_calls", calls[p + "binary_entropy"], "count")
    put("probability.hb_inverse_s", incl[p + "binary_entropy_inverse"], "s", calls[p + "binary_entropy_inverse"])
    put("probability.mi_calls", calls[p + "mutual_information"], "count")
    put("probability.mi_s", incl[p + "mutual_information"], "s", calls[p + "mutual_information"])
    put("probability.joint_builds", calls[p + "JointPmf"], "count")
    put("probability.joint_build_s", incl[p + "JointPmf"], "s")
    put("probability.self_s", self_time["probability"], "s")

    region_calls = sum(v for k, v in calls.items() if k.startswith("regions."))
    put("regions.calls", region_calls, "count")
    put("regions.self_s", self_time["regions"], "s", region_calls)
    put("regions.attach_channels_calls", calls["regions.attach_channels"], "count")
    put("regions.multi_inner_search_s", incl["regions.multi_inner_search"], "s", calls["regions.multi_inner_search"])

    sampling_s = incl[o + "conjecture_test"] + incl[o + "sample_region_points"]
    put("optimize.draws_per_s", c["draws_attempted"] / sampling_s if sampling_s else 0.0, "1/s", sampling_s)
    put("optimize.draws_kept", c["draws_kept"], "count")
    put("optimize.draw_yield", c["ro_kept"] / c["ro_attempted"] if c["ro_attempted"] else 0.0, "ratio")
    for metric, fn in (("conjecture_s", "conjecture_test"), ("sample_region_points_s", "sample_region_points"),
                       ("dsbs_outer_s", "dsbs_outer_boundary_sampled"), ("support_function_s", "support_function"),
                       ("ib_curve_s", "ib_curve")):
        put(o + metric, incl[o + fn], "s", calls[o + fn])
    put("optimize.envelope_calls", calls[o + "upper_concave_envelope"], "count")
    put("optimize.envelope_s", incl[o + "upper_concave_envelope"], "s", calls[o + "upper_concave_envelope"])
    optimize_calls = sum(v for k, v in calls.items() if k.startswith(o))
    put("optimize.self_s", self_time["optimize"], "s", optimize_calls)

    theta_s = incl["typicality.best_theta"]
    typicality_calls = sum(v for k, v in calls.items() if k.startswith("typicality."))
    put("typicality.best_theta_s", theta_s, "s", theta_s)
    put("typicality.self_s", self_time["typicality"], "s", typicality_calls)
    put("typicality.code_pairs_per_s", c["code_pairs"] / theta_s if theta_s else 0.0, "1/s", theta_s)

    put("cli.self_s", self_time["cli"], "s", calls["cli.main"])
    for command in _COMMANDS:
        put(f"cli.{command}_s", incl["cli.cmd_" + command], "s", calls["cli.cmd_" + command])
    put("trace.spans", len(tracer.spans), "count")
    return out


def merge(rounds):
    """One value per metric over several traced rounds.

    Counts must repeat exactly; every other metric is the median. Returns
    (metrics, names of counts that differed between rounds).
    """
    merged, unsteady = {}, []
    for name, (value, unit) in rounds[0].items():
        values = [r[name][0] for r in rounds if name in r]
        if unit == "count":
            if len(values) != len(rounds) or len(set(values)) != 1:
                unsteady.append(name)
            merged[name] = (value, unit)
        else:
            merged[name] = (statistics.median(values), unit)
    return merged, unsteady
