"""Per-layer metrics from the spans traced.py records.

Self time of a span is its call time minus the time its child spans take,
their wrapper bookkeeping included. A layer's self time is the sum over its
spans. An exception counts against a layer when it leaves a span whose
parent belongs to another layer (or is the op itself); cli also counts a
nonzero exit code from main.
"""

from __future__ import annotations

import statistics

NAME, LAYER, ENTER, START, END, EXIT, PARENT, WORK, ERROR = range(9)

GAUGE_ROWS = "psi_p_norm_rows"
GAUGE_SINGLE = "psi_p_norm"
GAUGE = {GAUGE_ROWS, GAUGE_SINGLE}
PSI_EVAL = {"eval_psi", "eval_psi_rows", "eval_psi_p"}
ESTIMATORS = {"empirical_moment", "batch_se", "top_mass_fraction", "empirical_entropy"}
VERIFY = {"verify_centered", "verify_nu_logp", "comparison_check", "enlargement_mc",
          "mlsi_report", "mlsi_residual"}
# conjugacy profile metrics by function; omega covers its vector and
# numeric-supremum forms
PROFILE_FNS = {"omega": {"omega", "omega_values", "omega_ray_sup"},
               "omega_star": {"omega_star"}, "omega_inv": {"omega_inv"},
               "lam": {"lam"}, "legendre_1d": {"legendre_1d"}}
PROFILE_ALL = set().union(*PROFILE_FNS.values())
SUPPORT = {"support_function", "support_argmax"}
FORMS = {"eval_form", "form_gradient", "symmetrize", "load_matrix", "save_matrix"}
LAYER_NAMES = ("cli", "psi", "measures", "empirics", "bounds", "conjugacy", "tensors")


def _ratio(a, b):
    return a / b if b else 0.0


class OpSpans:
    """Spans of one traced op with self times and parent links resolved."""

    def __init__(self, spans):
        self.spans = spans
        covered = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                covered[s[PARENT]] += s[EXIT] - s[ENTER]
        self.self_s = [s[END] - s[START] - c for s, c in zip(spans, covered)]
        # spans start after their parents, so one forward pass marks every
        # span that runs inside a gauge solve
        self.in_gauge = []
        for s in spans:
            self.in_gauge.append(s[NAME] in GAUGE or
                                 (s[PARENT] >= 0 and self.in_gauge[s[PARENT]]))

    def parent(self, s):
        return self.spans[s[PARENT]] if s[PARENT] >= 0 else None

    def root_time(self):
        return sum(s[END] - s[START] for s in self.spans if s[PARENT] < 0)


def aggregate(ops: list) -> dict:
    """Metrics over the spans of every op in one traced pass; `ops` holds
    OpSpans objects."""
    m = {}
    calls, self_s, incl, errors = {}, {}, {}, {k: 0 for k in LAYER_NAMES}
    work = {k: 0 for k in ("gauge_rows", "gauge_unique", "chunk_values", "custom_values",
                           "estimate_values", "profile_points", "chaos_support")}
    chunk_self = custom_self = gauge_top_s = profile_top_s = support_top_s = 0.0
    gauge_top = profile_top = support_top = 0

    gauge_self = 0.0
    for op in ops:
        for s, own, in_gauge in zip(op.spans, op.self_s, op.in_gauge):
            name, layer = s[NAME], s[LAYER]
            dur = s[END] - s[START]
            key = (layer, name)
            calls[key] = calls.get(key, 0) + 1
            self_s[key] = self_s.get(key, 0.0) + own
            incl[key] = incl.get(key, 0.0) + dur
            parent = op.parent(s)
            pname = parent[NAME] if parent else None
            if s[ERROR] and s[ERROR] != "SystemExit" and (parent is None or parent[LAYER] != layer):
                errors[layer] += 1
            w = s[WORK] or {}
            if name == "main" and layer == "cli" and w.get("rc"):
                errors["cli"] += 1
            if in_gauge and layer == "psi":
                gauge_self += own
            if name == GAUGE_ROWS:
                work["gauge_rows"] += w.get("rows", 0)
                work["gauge_unique"] += w.get("unique", 0)
            if name in GAUGE and pname not in GAUGE:
                gauge_top += 1
                gauge_top_s += dur
            if name == "sample_chunk":
                work["chunk_values"] += w.get("values", 0)
                chunk_self += own
                if w.get("custom"):
                    work["custom_values"] += w.get("values", 0)
                    custom_self += own
            if name in ESTIMATORS and pname not in ESTIMATORS:
                work["estimate_values"] += w.get("values", 0)
            if name == "profile_table":
                work["profile_points"] += w.get("points", 0)
                profile_top_s += dur
            elif name in PROFILE_ALL and (parent is None or parent[LAYER] != "conjugacy"):
                work["profile_points"] += 1
                profile_top_s += dur
            if name in SUPPORT:
                if pname not in SUPPORT:
                    support_top += 1
                    support_top_s += dur
                if pname == "chaos_deterministic_term":
                    work["chaos_support"] += 1

    def n(layer, names=None):
        return sum(v for (ly, nm), v in calls.items()
                   if ly == layer and (names is None or nm in names))

    def t(layer, names=None, table=self_s):
        return sum(v for (ly, nm), v in table.items()
                   if ly == layer and (names is None or nm in names))

    for layer in LAYER_NAMES:
        m[f"{layer}.self_s"] = t(layer)
        m[f"{layer}.errors"] = errors[layer]
    m["cli.calls"] = n("cli")
    m["psi.gauge_calls"] = gauge_top
    m["psi.gauge_rows"] = work["gauge_rows"]
    m["psi.gauge_self_s"] = gauge_self
    m["psi.gauge_rows_per_s"] = _ratio(work["gauge_rows"], gauge_top_s)
    m["psi.gauge_unique_frac"] = _ratio(work["gauge_unique"], work["gauge_rows"])
    m["psi.gauge_single_calls"] = n("psi", {GAUGE_SINGLE})
    m["psi.gauge_single_s_per_call"] = _ratio(t("psi", {GAUGE_SINGLE}, incl),
                                              n("psi", {GAUGE_SINGLE}))
    m["psi.eval_calls"] = n("psi", PSI_EVAL)
    m["psi.eval_self_s"] = t("psi", PSI_EVAL)
    m["measures.chunks"] = n("measures", {"sample_chunk"})
    m["measures.values"] = work["chunk_values"]
    m["measures.values_per_s"] = _ratio(work["chunk_values"], chunk_self)
    m["measures.phi_custom.values_per_s"] = _ratio(work["custom_values"], custom_self)
    m["measures.write_s"] = t("measures", {"save_samples"}, incl)
    testfn = {nm for (ly, nm) in calls if ly == "empirics" and nm.endswith((".f", ".grad"))}
    m["empirics.testfn_calls"] = n("empirics", testfn)
    m["empirics.testfn_self_s"] = t("empirics", testfn)
    m["empirics.estimate_calls"] = n("empirics", ESTIMATORS)
    m["empirics.estimate_values"] = work["estimate_values"]
    m["empirics.estimate_self_s"] = t("empirics", ESTIMATORS)
    m["empirics.verify_self_s"] = t("empirics", VERIFY)
    m["bounds.calls"] = n("bounds")
    for metric, names in PROFILE_FNS.items():
        m[f"conjugacy.{metric}.calls"] = n("conjugacy", names)
        m[f"conjugacy.{metric}.self_s"] = t("conjugacy", names)
    m["conjugacy.profile_points"] = work["profile_points"]
    m["conjugacy.profile_points_per_s"] = _ratio(work["profile_points"], profile_top_s)
    m["conjugacy.support_calls"] = n("conjugacy", SUPPORT)
    m["conjugacy.support_self_s"] = t("conjugacy", SUPPORT)
    m["conjugacy.support_s_per_call"] = _ratio(support_top_s, support_top)
    m["conjugacy.psi_star_calls"] = n("conjugacy", {"psi_star"})
    m["conjugacy.psi_star_self_s"] = t("conjugacy", {"psi_star"})
    m["conjugacy.ray_radius_calls"] = n("conjugacy", {"conjugate_ray_radius"})
    m["conjugacy.ray_radius_self_s"] = t("conjugacy", {"conjugate_ray_radius"})
    m["tensors.partition_calls"] = n("tensors", {"partition_norms"})
    m["tensors.partition_self_s"] = t("tensors", {"partition_norms"})
    m["tensors.chaos_calls"] = n("tensors", {"chaos_deterministic_term"})
    m["tensors.chaos_self_s"] = t("tensors", {"chaos_deterministic_term"})
    m["tensors.chaos_support_per_term"] = _ratio(work["chaos_support"],
                                                 m["tensors.chaos_calls"])
    m["tensors.form_calls"] = n("tensors", FORMS)
    m["tensors.form_self_s"] = t("tensors", FORMS)
    return m


def unit(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith(("_s", "_s_per_call")):
        return "s"
    if metric.endswith(("_frac", "_per_term")) or ".span_cover" in metric:
        return "ratio"
    return "count"


def span_cover(op: OpSpans, wall_s: float) -> float:
    """Share of an op's wall time that top-level layer spans cover."""
    return _ratio(op.root_time(), wall_s)


def median_or_zero(values):
    return statistics.median(values) if values else 0.0
