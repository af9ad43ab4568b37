"""In-memory spans around the calls into fedamp's public functions.

For the length of one op, each traced function is replaced in every
module that looks it up by name (accountant imports weighted_normal_pdf
by name, so both fedamp.accountant and fedamp.divergence get a wrapper).
A span records name, start, end, parent span and op id; counts are taken
at the same boundaries. Nothing inside src/ is changed.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _count_pdf_evals(counts, args, kwargs, result):
    z = _arg(args, kwargs, 0, "z")
    means = _arg(args, kwargs, 1, "means")
    counts["divergence.weighted_normal_pdf.evals"] += z.shape[0] * means.shape[0]


def _count_crossing(counts, args, kwargs, result):
    counts["accountant.find_z_star.crossings"] += 1


def _count_degenerate(counts, exc):
    from fedamp.accountant import DegenerateIntegrandError

    if isinstance(exc, DegenerateIntegrandError):
        counts["accountant.find_z_star.degenerate"] += 1


def _count_delta_eval(counts, args, kwargs, result):
    counts["accountant.delta_evals"] += 1


def _count_quadrature_evals(counts, args, kwargs, result):
    counts["numerics.integrate_adaptive.evals"] += result.evaluations


def _count_root_f_evals(counts, args, kwargs):
    f = _arg(args, kwargs, 0, "f")

    def counted(x):
        counts["numerics.find_root_bracketed.f_evals"] += 1
        return f(x)

    if args:
        return (counted,) + tuple(args[1:]), kwargs
    return args, {**kwargs, "f": counted}


def _count_round(counts, args, kwargs, result):
    outcome = result[1]
    counts["simulator.participants"] += len(outcome.participants)
    counts["simulator.sampled_elements"] += sum(
        len(s) for s in outcome.sampled_elements.values()
    )


def _count_grad_rows(counts, args, kwargs, result):
    counts["simulator.task_sample_grads.rows"] += _arg(args, kwargs, 2, "X").shape[0]


# (span name, function name, modules that look it up, before, after, on_error)
TRACED = (
    ("divergence.weighted_normal_pdf", "weighted_normal_pdf", ("accountant", "divergence"), None, _count_pdf_evals, None),
    ("divergence.binomial_log_weights", "binomial_log_weights", ("accountant", "divergence"), None, None, None),
    ("divergence.hockey_stick", "hockey_stick", ("divergence",), None, None, None),
    ("divergence.worst_case_pair", "worst_case_pair", ("divergence",), None, None, None),
    ("accountant.find_z_star", "find_z_star", ("accountant",), None, _count_crossing, _count_degenerate),
    ("accountant.delta_for_scheme", "delta_for_scheme", ("accountant",), None, _count_delta_eval, None),
    ("accountant.calibrate_sigma", "calibrate_sigma", ("accountant",), None, None, None),
    ("accountant.eps_for_delta", "eps_for_delta", ("accountant",), None, None, None),
    ("accountant.sweep", "sweep", ("accountant",), None, None, None),
    ("accountant.delta_main", "delta_main", ("accountant",), None, None, None),
    ("accountant.delta_main_quadrature", "delta_main_quadrature", ("accountant",), None, None, None),
    ("accountant.count_integrand_sign_changes", "count_integrand_sign_changes", ("accountant",), None, None, None),
    ("accountant.closed_forms", "delta_upper_bound", ("accountant",), None, None, None),
    ("accountant.closed_forms", "delta_lower_bound", ("accountant",), None, None, None),
    ("accountant.closed_forms", "delta_only_local", ("accountant",), None, None, None),
    ("numerics.integrate_adaptive", "integrate_adaptive", ("accountant", "divergence"), None, _count_quadrature_evals, None),
    ("numerics.find_root_bracketed", "find_root_bracketed", ("accountant",), _count_root_f_evals, None, None),
    ("numerics.gaussian_mechanism_delta", "gaussian_mechanism_delta", ("accountant",), None, None, None),
    ("simulator.run_training", "run_training", ("simulator",), None, None, None),
    ("simulator.make_streams", "make_streams", ("simulator",), None, None, None),
    ("simulator.make_synthetic_datasets", "make_synthetic_datasets", ("simulator",), None, None, None),
    ("simulator.run_round", "run_round", ("simulator",), None, _count_round, None),
    ("simulator.task_sample_grads", "task_sample_grads", ("simulator",), None, _count_grad_rows, None),
    ("simulator.task_loss", "task_loss", ("simulator",), None, None, None),
)

# Exact counts: for one seed they repeat from run to run.
DETERMINISTIC_COUNTS = (
    "divergence.weighted_normal_pdf.evals",
    "accountant.delta_evals",
    "accountant.find_z_star.degenerate",
    "numerics.integrate_adaptive.evals",
    "numerics.find_root_bracketed.f_evals",
    "simulator.task_sample_grads.rows",
)


class Tracer:
    """Spans and counts of the ops run inside ``op``."""

    def __init__(self):
        # One list per field rather than one object per span keeps the
        # garbage collector from walking every span.
        self.names, self.starts, self.ends, self.parents, self.op_ids = [], [], [], [], []
        self.counts = Counter()
        self._stack = []
        self._op = -1
        self._patches = []
        for name, attr, sites, before, after, on_error in TRACED:
            for site in sites:
                module = importlib.import_module("fedamp." + site)
                original = getattr(module, attr)
                wrapper = self._wrap(name, original, before, after, on_error)
                self._patches.append((module, attr, original, wrapper))

    def _wrap(self, name, fn, before, after, on_error):
        names, starts, ends, parents, op_ids = self.names, self.starts, self.ends, self.parents, self.op_ids
        stack, counts = self._stack, self.counts

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(counts, args, kwargs)
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            op_ids.append(self._op)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(counts, exc)
                raise
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if after is not None:
                after(counts, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def op(self, op_id):
        """Trace the calls made inside the block as op ``op_id``."""
        self._op = op_id
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for module, attr, original, _ in self._patches:
                setattr(module, attr, original)
            self._op = -1

    def spans(self):
        """(name, start, end, parent index, op id) per span, in start order."""
        return zip(self.names, self.starts, self.ends, self.parents, self.op_ids)

    def write(self, path):
        """One JSON array per span: name, start, end, parent index, op id."""
        with open(path, "w") as out:
            for record in self.spans():
                out.write(json.dumps(record) + "\n")


def span_totals(spans):
    """Per span name: calls, inclusive seconds and self seconds.

    Inclusive time counts only the outermost span of a name, so a name
    that calls itself (closed_forms) is not counted twice. Self time is a
    span's duration minus the durations of its direct children.
    """
    spans = list(spans)
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = {}
    outer_end = {}
    for index, (name, start, end, _, _) in enumerate(spans):
        entry = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += end - start - child_time[index]
        if start >= outer_end.get(name, -1.0):
            entry["s"] += end - start
            outer_end[name] = end
    return totals


def unit(name):
    """Unit of a per-layer metric, read from its name."""
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("ns_per_eval"):
        return "ns"
    if name.endswith(("useful_ratio", "overhead")):
        return "ratio"
    return "count"


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans, counts):
    """Every per-layer metric of BENCHMARK.json except trace.overhead and
    trace.ops, which the caller adds. Layers a workload leaves idle read 0."""
    totals = span_totals(spans)

    def get(name, field):
        return totals.get(name, {}).get(field, 0)

    pdf_evals = counts["divergence.weighted_normal_pdf.evals"]
    z_calls = get("accountant.find_z_star", "calls")
    return {
        "divergence.weighted_normal_pdf.s": get("divergence.weighted_normal_pdf", "s"),
        "divergence.weighted_normal_pdf.calls": get("divergence.weighted_normal_pdf", "calls"),
        "divergence.weighted_normal_pdf.evals": pdf_evals,
        "divergence.weighted_normal_pdf.ns_per_eval": 1e9 * _ratio(get("divergence.weighted_normal_pdf", "s"), pdf_evals),
        "divergence.binomial_log_weights.calls": get("divergence.binomial_log_weights", "calls"),
        "divergence.binomial_log_weights.s": get("divergence.binomial_log_weights", "s"),
        "divergence.hockey_stick.self_s": get("divergence.hockey_stick", "self_s"),
        "divergence.worst_case_pair.s": get("divergence.worst_case_pair", "s"),
        "accountant.find_z_star.self_s": get("accountant.find_z_star", "self_s"),
        "accountant.find_z_star.calls": z_calls,
        "accountant.find_z_star.degenerate": counts["accountant.find_z_star.degenerate"],
        "accountant.find_z_star.useful_ratio": _ratio(counts["accountant.find_z_star.crossings"], z_calls),
        "accountant.delta_evals": counts["accountant.delta_evals"],
        "accountant.calibrate_sigma.s": get("accountant.calibrate_sigma", "s"),
        "accountant.eps_for_delta.s": get("accountant.eps_for_delta", "s"),
        "accountant.sweep.s": get("accountant.sweep", "s"),
        "accountant.delta_main.s": get("accountant.delta_main", "s"),
        "accountant.delta_main_quadrature.self_s": get("accountant.delta_main_quadrature", "self_s"),
        "accountant.count_integrand_sign_changes.self_s": get("accountant.count_integrand_sign_changes", "self_s"),
        "accountant.closed_forms.s": get("accountant.closed_forms", "s"),
        "numerics.integrate_adaptive.self_s": get("numerics.integrate_adaptive", "self_s"),
        "numerics.integrate_adaptive.calls": get("numerics.integrate_adaptive", "calls"),
        "numerics.integrate_adaptive.evals": counts["numerics.integrate_adaptive.evals"],
        "numerics.find_root_bracketed.self_s": get("numerics.find_root_bracketed", "self_s"),
        "numerics.find_root_bracketed.f_evals": counts["numerics.find_root_bracketed.f_evals"],
        "numerics.gaussian_mechanism_delta.calls": get("numerics.gaussian_mechanism_delta", "calls"),
        "numerics.gaussian_mechanism_delta.s": get("numerics.gaussian_mechanism_delta", "s"),
        "simulator.run_round.self_s": get("simulator.run_round", "self_s"),
        "simulator.run_round.calls": get("simulator.run_round", "calls"),
        "simulator.task_sample_grads.s": get("simulator.task_sample_grads", "s"),
        "simulator.task_sample_grads.rows": counts["simulator.task_sample_grads.rows"],
        "simulator.task_loss.s": get("simulator.task_loss", "s"),
        "simulator.make_streams.s": get("simulator.make_streams", "s"),
        "simulator.make_synthetic_datasets.s": get("simulator.make_synthetic_datasets", "s"),
        "simulator.participants": counts["simulator.participants"],
        "simulator.sampled_elements": counts["simulator.sampled_elements"],
    }
