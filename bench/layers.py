"""The per-layer trace of homotor: which functions are spans, what the
hooks count, and the per-layer metrics the traced run prints.

The layers are homotor's modules.  A function that a later version of
homotor no longer has is skipped and reads as zero calls.
"""

from __future__ import annotations

import importlib

from homotor import exactlin
from tracer import Tracer

# (module, function or Class.method, span); several functions can share a span
SPANS = (
    ("exactlin", "rank", "exactlin.rank"),
    ("exactlin", "rref", "exactlin.rref"),
    ("exactlin", "homology_dims", "exactlin.homology_dims"),
    ("monomial", "combine", "monomial.combine"),
    ("gcomplex", "GradedComplex.homology_at", "gcomplex.homology_at"),
    ("gcomplex", "GradedComplex.alive_masks", "gcomplex.alive_masks"),
    ("gcomplex", "module_homology_table", "gcomplex.module_homology_table"),
    ("gcomplex", "GradedComplex.__init__", "gcomplex.build"),
    ("gcomplex", "taylor_resolution", "gcomplex.build"),
    ("gcomplex", "koszul_units", "gcomplex.build"),
    ("gcomplex", "koszul_variables", "gcomplex.build"),
    ("gcomplex", "tensor_complexes", "gcomplex.build"),
    ("gcomplex", "with_coefficient", "gcomplex.build"),
    ("multicomplex", "Multicomplex.__init__", "multicomplex.validate"),
    ("multicomplex", "tensor", "multicomplex.build"),
    ("multicomplex", "select", "multicomplex.build"),
    ("multicomplex", "totalize", "multicomplex.build"),
    ("multicomplex", "koszul_cone", "multicomplex.build"),
    ("multicomplex", "hypercube_augment", "multicomplex.build"),
    ("multicomplex", "hypercube_extend", "multicomplex.build"),
    ("spectral", "pages", "spectral.pages"),
    ("spectral", "FilteredFiberComplex.__init__", "spectral.filtration"),
    ("spectral", "build_filtration", "spectral.build_filtration"),
    ("spectral", "mv_double", "spectral.mv_double"),
    ("torlab", "multi_tor", "torlab.multi_tor"),
    ("torlab", "betti_table", "torlab.betti_table"),
    ("torlab", "tor1_oracle", "torlab.tor1_oracle"),
    ("sumprod", "verify_identities", "sumprod.check"),
    ("sumprod", "exactness_equivalences", "sumprod.check"),
    ("sumprod", "complex_homology_table", "sumprod.complex_homology_table"),
    ("support", "supportoftors_check", "support.supportoftors_check"),
    ("cli", "run", "cli.run"),
)
# constructors called too often for a span: counted only
COUNTED = (("monomial", "Multidegree.__new__", "monomial.Multidegree.calls"),)

PER_LAYER = (
    ("exactlin.rank.calls", "count"),
    ("exactlin.rank.self_s", "s"),
    ("exactlin.rank.nnz", "nnz/call"),
    ("exactlin.rank.dense_share", "ratio"),
    ("exactlin.rref.calls", "count"),
    ("exactlin.rref.self_s", "s"),
    ("exactlin.rref.cells", "count"),
    ("exactlin.homology_dims.calls", "count"),
    ("monomial.Multidegree.calls", "count"),
    ("monomial.combine.calls", "count"),
    ("monomial.combine.self_s", "s"),
    ("gcomplex.homology_at.calls", "count"),
    ("gcomplex.homology_at.self_s", "s"),
    ("gcomplex.alive_masks.self_s", "s"),
    ("gcomplex.fibre_class_share", "ratio"),
    ("gcomplex.rank_cache_hit_share", "ratio"),
    ("gcomplex.module_homology_table.calls", "count"),
    ("gcomplex.module_homology_table.self_s", "s"),
    ("gcomplex.build.self_s", "s"),
    ("gcomplex.build.summands", "count"),
    ("multicomplex.build.self_s", "s"),
    ("multicomplex.validate.self_s", "s"),
    ("multicomplex.totalize.calls", "count"),
    ("spectral.pages.calls", "count"),
    ("spectral.pages.self_s", "s"),
    ("spectral.pages.r_stab_sum", "count"),
    ("spectral.filtration.self_s", "s"),
    ("spectral.build_filtration.calls", "count"),
    ("spectral.build_filtration.self_s", "s"),
    ("spectral.build_filtration.repeat_share", "ratio"),
    ("spectral.mv_double.calls", "count"),
    ("torlab.multi_tor.calls", "count"),
    ("torlab.multi_tor.self_s", "s"),
    ("torlab.betti_table.calls", "count"),
    ("torlab.betti_table.repeat_share", "ratio"),
    ("torlab.tor1_oracle.self_s", "s"),
    ("sumprod.check.self_s", "s"),
    ("sumprod.complex_homology_table.calls", "count"),
    ("support.supportoftors_check.self_s", "s"),
    ("cli.run.self_s", "s"),
    ("cli.serialize_s", "s"),
    ("cli.report_bytes", "B/job"),
    ("trace.job_s", "s"),
    ("trace.overhead_share", "ratio"),
)


def _share(part, whole):
    return part / whole if whole else 0.0


class LayerTrace:
    """Spans and counters over homotor for one traced pass of a job list."""

    def __init__(self):
        self.tracer = Tracer("homotor")
        self.counts = self.tracer.counts
        self._complexes = {}  # id -> (complex, mask signatures seen), this job
        self._filtrations = {}  # id -> (multicomplex, kinds built), this job
        self._betti = set()  # (n, generators, p) computed in this job

    def install(self):
        hooks = {
            "rank": self._rank,
            "rref": self._rref,
            "GradedComplex.homology_at": self._homology_at,
            "GradedComplex.alive_masks": self._alive_masks,
            "GradedComplex.__init__": self._graded_init,
            "totalize": self._totalize,
            "pages": self._pages,
            "build_filtration": self._build_filtration,
            "betti_table": self._betti_table,
        }
        tracer = self.tracer
        for module_name, path, span in SPANS:
            after = hooks.get(path)
            self._patch(module_name, path, lambda fn: tracer.span(span, fn, after))
        for module_name, path, counter in COUNTED:
            self._patch(module_name, path, lambda fn: tracer.counter(counter, fn))

    def _patch(self, module_name, path, make):
        module = importlib.import_module(f"homotor.{module_name}")
        owner, _, attr = path.rpartition(".")
        if owner:
            cls = getattr(module, owner, None)
            if cls is not None and attr in vars(cls):
                self.tracer.patch_method(cls, attr, make)
        elif hasattr(module, attr):
            self.tracer.patch_function(module, attr, make)

    def remove(self):
        self.tracer.remove()
        self.begin_job()

    def begin_job(self):
        self._complexes.clear()
        self._filtrations.clear()
        self._betti.clear()

    # -- hooks: (args, kwargs, result) of a call that has returned ----------

    def _rank(self, args, kwargs, result):
        m = args[0]
        self.counts["rank.nnz"] += m.nnz
        if m.nnz and m.density() > getattr(exactlin, "DENSE_THRESHOLD", 1.0):
            self.counts["rank.dense"] += 1
        if self.tracer.parent() == "gcomplex.homology_at":
            self.counts["rank.in_homology_at"] += 1

    def _rref(self, args, kwargs, result):
        shape = getattr(args[0], "shape", ())
        if len(shape) == 2:
            self.counts["rref.cells"] += shape[0] * shape[1]

    def _homology_at(self, args, kwargs, result):
        self.counts["rank.slots"] += 2 * len(args[0].window())

    def _alive_masks(self, args, kwargs, result):
        complex_ = args[0]
        _, seen = self._complexes.setdefault(id(complex_), (complex_, set()))
        signature = tuple(sorted(result.items()))
        self.counts["fibres"] += 1
        if signature not in seen:
            seen.add(signature)
            self.counts["fibre_classes"] += 1

    def _graded_init(self, args, kwargs, result):
        self.counts["summands"] += sum(len(ss) for ss in args[0].terms.values())

    def _totalize(self, args, kwargs, result):
        self.counts["totalize"] += 1

    def _pages(self, args, kwargs, result):
        self.counts["r_stab"] += result.r_stab

    def _build_filtration(self, args, kwargs, result):
        m = args[0]
        kind = args[2] if len(args) > 2 else kwargs["kind"]
        _, kinds = self._filtrations.setdefault(id(m), (m, set()))
        if kind in kinds:
            self.counts["filtration.repeats"] += 1
        kinds.add(kind)

    def _betti_table(self, args, kwargs, result):
        ideal = args[0]
        fld = args[1] if len(args) > 1 else kwargs.get("fld", exactlin.GF())
        p = fld.p
        key = (ideal.n, tuple(ideal.gens), p)
        if key in self._betti:
            self.counts["betti.repeats"] += 1
        self._betti.add(key)

    # -- metrics -------------------------------------------------------------

    def metrics(self, job_s, untraced_s, serialize_s, report_bytes, jobs):
        """{name: (value, unit)} for every PER_LAYER metric."""
        stats, c = self.tracer.stats, self.counts

        def calls(span):
            return stats[span].calls if span in stats else 0

        def self_s(span):
            return stats[span].self_s if span in stats else 0.0

        values = {
            "exactlin.rank.calls": calls("exactlin.rank"),
            "exactlin.rank.self_s": self_s("exactlin.rank"),
            "exactlin.rank.nnz": _share(c["rank.nnz"], calls("exactlin.rank")),
            "exactlin.rank.dense_share": _share(c["rank.dense"], calls("exactlin.rank")),
            "exactlin.rref.calls": calls("exactlin.rref"),
            "exactlin.rref.self_s": self_s("exactlin.rref"),
            "exactlin.rref.cells": c["rref.cells"],
            "exactlin.homology_dims.calls": calls("exactlin.homology_dims"),
            "monomial.Multidegree.calls": c["monomial.Multidegree.calls"],
            "monomial.combine.calls": calls("monomial.combine"),
            "monomial.combine.self_s": self_s("monomial.combine"),
            "gcomplex.homology_at.calls": calls("gcomplex.homology_at"),
            "gcomplex.homology_at.self_s": self_s("gcomplex.homology_at"),
            "gcomplex.alive_masks.self_s": self_s("gcomplex.alive_masks"),
            "gcomplex.fibre_class_share": _share(c["fibre_classes"], c["fibres"]),
            "gcomplex.rank_cache_hit_share":
                1.0 - _share(c["rank.in_homology_at"], c["rank.slots"]) if c["rank.slots"] else 0.0,
            "gcomplex.module_homology_table.calls": calls("gcomplex.module_homology_table"),
            "gcomplex.module_homology_table.self_s": self_s("gcomplex.module_homology_table"),
            "gcomplex.build.self_s": self_s("gcomplex.build"),
            "gcomplex.build.summands": c["summands"],
            "multicomplex.build.self_s": self_s("multicomplex.build"),
            "multicomplex.validate.self_s": self_s("multicomplex.validate"),
            "multicomplex.totalize.calls": c["totalize"],
            "spectral.pages.calls": calls("spectral.pages"),
            "spectral.pages.self_s": self_s("spectral.pages"),
            "spectral.pages.r_stab_sum": c["r_stab"],
            "spectral.filtration.self_s": self_s("spectral.filtration"),
            "spectral.build_filtration.calls": calls("spectral.build_filtration"),
            "spectral.build_filtration.self_s": self_s("spectral.build_filtration"),
            "spectral.build_filtration.repeat_share":
                _share(c["filtration.repeats"], calls("spectral.build_filtration")),
            "spectral.mv_double.calls": calls("spectral.mv_double"),
            "torlab.multi_tor.calls": calls("torlab.multi_tor"),
            "torlab.multi_tor.self_s": self_s("torlab.multi_tor"),
            "torlab.betti_table.calls": calls("torlab.betti_table"),
            "torlab.betti_table.repeat_share":
                _share(c["betti.repeats"], calls("torlab.betti_table")),
            "torlab.tor1_oracle.self_s": self_s("torlab.tor1_oracle"),
            "sumprod.check.self_s": self_s("sumprod.check"),
            "sumprod.complex_homology_table.calls": calls("sumprod.complex_homology_table"),
            "support.supportoftors_check.self_s": self_s("support.supportoftors_check"),
            "cli.run.self_s": self_s("cli.run"),
            "cli.serialize_s": serialize_s,
            "cli.report_bytes": _share(report_bytes, jobs),
            "trace.job_s": job_s,
            "trace.overhead_share": _share(job_s, untraced_s) - 1.0,
        }
        return {name: (values[name], unit) for name, unit in PER_LAYER}

