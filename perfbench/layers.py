"""Per-layer metrics from the spans of one traced case.

A span is ``[name, start, end, parent, info]`` (see tracer.py).  A span's
self time is its duration minus the durations of its children; calls run
on one thread, so children never overlap.

Layer times are given as shares of the traced case's wall time
(`trace.total_s`): self time unless the table marks them inclusive.  A
share is 0 where a workload never enters the layer, and it does not move
with the machine-wide speed drift that changes every absolute time of a
run together.  Multiply by `trace.total_s` for seconds.
"""

from __future__ import annotations

from collections import defaultdict

MODULES = ("cli", "mesh", "spaces", "forms", "operators", "krylov",
           "precond", "factory", "newton", "problems")
PC_TYPES = ("lu", "sor", "assembled", "telescope", "ksp", "fieldsplit",
            "pcd", "schwarz")
OPERATOR_APPLIES = ("operators.matfree_apply", "operators.csr_apply",
                    "precond.schur.apply")

# time-share metric -> span name whose self time it sums
SELF_SHARE = {
    "mesh.build_share": "mesh.build",
    "spaces.function_space_share": "spaces.function_space",
    "forms.kernel_share": "forms.kernel",
    "forms.action_share": "forms.action",
    "forms.assemble_share": "forms.assemble",
    "forms.space_eval_share": "forms.space_eval",
    "forms.residual_share": "forms.residual",
    "forms.load_vector_share": "forms.load_vector",
    "operators.csr_apply_share": "operators.csr_apply",
    "problems.l2_error_share": "problems.l2_error",
    **{f"precond.{t}.{step}_share": f"precond.{t}.{step}"
       for t in PC_TYPES for step in ("setup", "apply")},
}
# time-share metric -> span name whose whole duration it sums
INCLUSIVE_SHARE = {
    "operators.matfree_apply_share": "operators.matfree_apply",
    "precond.schur.apply_share": "precond.schur.apply",
}
# count metric -> span name whose calls it counts
CALLS = {
    "spaces.function_space_calls": "spaces.function_space",
    "forms.kernel_calls": "forms.kernel",
    "forms.action_calls": "forms.action",
    "forms.assemble_calls": "forms.assemble",
    "forms.residual_calls": "forms.residual",
    "operators.matfree_apply_calls": "operators.matfree_apply",
    "operators.csr_apply_calls": "operators.csr_apply",
    "operators.extract_sub_calls": "operators.extract_sub",
    "krylov.solve_calls": "krylov.solve",
    "precond.schur.apply_calls": "precond.schur.apply",
    **{f"precond.{t}.apply_calls": f"precond.{t}.apply" for t in PC_TYPES},
}

# metric name -> unit; the order is the order of BENCHMARK.json
UNITS = {
    "mesh.build_share": "share",
    "spaces.function_space_share": "share",
    "spaces.function_space_calls": "count",
    "forms.kernel_share": "share",
    "forms.kernel_calls": "count",
    "forms.kernel_evals_per_state": "ratio",
    "forms.action_share": "share",
    "forms.action_calls": "count",
    "forms.assemble_share": "share",
    "forms.assemble_calls": "count",
    "forms.space_eval_share": "share",
    "forms.residual_share": "share",
    "forms.residual_calls": "count",
    "forms.load_vector_share": "share",
    "operators.matfree_apply_calls": "count",
    "operators.matfree_apply_share": "share",
    "operators.csr_apply_calls": "count",
    "operators.csr_apply_share": "share",
    "operators.extract_sub_calls": "count",
    "operators.matfree_flops_per_apply": "flop",
    "krylov.solve_calls": "count",
    "krylov.iterations": "count",
    "krylov.op_applies": "count",
    "krylov.applies_per_iteration": "ratio",
    "precond.setup_calls": "count",
    **{f"precond.{t}.{m}": u for t in PC_TYPES
       for m, u in (("setup_share", "share"), ("apply_share", "share"),
                    ("apply_calls", "count"))},
    "precond.schur.apply_calls": "count",
    "precond.schur.apply_share": "share",
    "factory.tree_builds": "count",
    "factory.tree_build_share": "share",
    "newton.its": "count",
    "problems.l2_error_share": "share",
    **{f"{m}.self_share": "share" for m in MODULES},
    "trace.total_s": "s",
    "trace.overhead_s": "s",
}


def self_times(spans):
    """Self time of every span, in span order."""
    child = [0.0] * len(spans)
    for name, start, end, parent, info in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[k]
            for k, (name, start, end, parent, info) in enumerate(spans)]


def layer_metrics(spans):
    """Every metric of UNITS except trace.overhead_s, which needs the
    untraced cases."""
    selfs = self_times(spans)
    self_by = defaultdict(float)
    incl_by = defaultdict(float)
    calls_by = defaultdict(int)
    for (name, start, end, parent, info), own in zip(spans, selfs):
        self_by[name] += own
        incl_by[name] += end - start
        calls_by[name] += 1
    total = incl_by["cli.main"]

    m = {"trace.total_s": total}
    for metric, name in SELF_SHARE.items():
        m[metric] = self_by[name] / total
    for metric, name in INCLUSIVE_SHARE.items():
        m[metric] = incl_by[name] / total
    for metric, name in CALLS.items():
        m[metric] = calls_by[name]
    for module in MODULES:
        m[f"{module}.self_share"] = sum(
            v for k, v in self_by.items()
            if k.split(".", 1)[0] == module) / total

    keys = {tuple(s[4]["key"]) for s in spans if s[0] == "forms.kernel"}
    m["forms.kernel_evals_per_state"] = (calls_by["forms.kernel"] / len(keys)
                                         if keys else 0.0)
    matfree = [s[4]["flops"] for s in spans
               if s[0] == "operators.matfree_apply"]
    m["operators.matfree_flops_per_apply"] = (sum(matfree) / len(matfree)
                                              if matfree else 0.0)

    its = sum(s[4]["its"] for s in spans if s[0] == "krylov.solve")
    applies = sum(1 for s in spans if s[0] in OPERATOR_APPLIES
                  and s[3] >= 0 and spans[s[3]][0] == "krylov.solve")
    m["krylov.iterations"] = its
    m["krylov.op_applies"] = applies
    m["krylov.applies_per_iteration"] = applies / its if its else 0.0

    m["precond.setup_calls"] = sum(n for k, n in calls_by.items()
                                   if k.startswith("precond.")
                                   and k.endswith(".setup"))
    roots = [s for s in spans
             if s[0] == "factory.build_ksp" and s[4]["prefix"] == ""]
    m["factory.tree_builds"] = len(roots)
    m["factory.tree_build_share"] = sum(s[2] - s[1] for s in roots) / total
    m["newton.its"] = sum(s[4]["its"] for s in spans if s[0] == "newton.solve")
    return m
